"""Span tracing of tppflow from outside the library.

``Tracer.installed()`` replaces the module-level functions and layer methods
that the library calls through with wrappers that record one span per call
(name, start, end, parent span, operation id), and puts the originals back on
exit.  Nothing under ``src/`` changes.  Spans stay in memory until
``write_spans`` and are turned into per-layer metrics by ``layer_metrics``.

Counters (tail inputs, clamp hits, pinned positions, ...) are computed after
the wrapped call returns, inside a ``trace.count`` span, so that counting
time is not charged to the layer or to its parent's self time.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from tppflow import mjp, splines, tpp, train
from tppflow import transforms as tr

LAYER_KINDS = ("fixed_scale", "spline", "scale", "diff", "psi", "logit", "block",
               "sigmoid", "psi_inv", "cumsum")
DIRS = ("fwd", "inv", "vjp", "ijt")
_METHOD_DIR = {"forward": "fwd", "inverse": "inv", "vjp": "vjp", "inv_jac_t": "ijt"}
_CLASS_KIND = {tr.Spline: "spline", tr.BlockDiag: "block", tr.Scale: "scale",
               tr.FixedScale: "fixed_scale", tr.Cumsum: "cumsum", tr.Diff: "diff"}
# chain functions: their self time is the chain overhead of one direction
CHAIN_SPANS = {"transforms._run_forward": "fwd", "transforms.compose_inverse": "inv",
               "transforms.chain_vjp_cached": "vjp", "transforms.inverse_jac_t_apply": "ijt"}
SEQ_STEP = "transforms.seq_step"
LOGIT_SATURATION = 30.0

_LAYER_SPANS = {f"transforms.{k}.{d}" for k in LAYER_KINDS for d in DIRS}


class _CountingGenerator:
    """Generator proxy that counts ``choice`` calls (one per Gibbs segment)."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def choice(self, *args, **kwargs):
        self._tracer.count("gibbs_choices", 1)
        return self._gen.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.spans = []              # [name, start, end, parent index, op id]
        self.op_kinds = []           # op id -> op kind
        self.counts = defaultdict(float)   # (op kind, counter) -> total
        self.cache_bytes = Counter()       # op id -> bytes held by ChainCaches built in it
        self._stack = []
        self._op = -1
        self._suppress = 0
        self._inverse_width = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind):
        """Root span of one timed operation; every span inside carries its id."""
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        idx = self._open("op." + kind)
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    def count(self, name, n):
        kind = self.op_kinds[self._op] if self._op >= 0 else None
        self.counts[(kind, name)] += n

    def _parent_name(self, idx):
        parent = self.spans[idx][3]
        return self.spans[parent][0] if parent >= 0 else None

    def _wrap(self, name, fn, after=None):
        tracer = self
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._suppress:
                return fn(*args, **kwargs)
            idx = tracer._open(name if fixed else name(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                book = tracer._open("trace.count")
                try:
                    after(idx, args, kwargs, out)
                finally:
                    tracer._close(book)
            return out

        return traced

    def _wrap_seq_step(self, fn):
        """Per-column inverse steps: one span each, nothing recorded inside."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(SEQ_STEP)
            tracer._suppress += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._suppress -= 1
                tracer._close(idx)

        return traced

    # -- counters run after the wrapped call ---------------------------------

    def _spline_tails(self):
        def after(idx, args, kwargs, out):
            v = args[2]       # x of forward/vjp, y of inverse
            self.count("spline_inputs", v.size)
            self.count("spline_tail", np.count_nonzero(v < 0.0) + np.count_nonzero(v > 1.0))
            if self._parent_name(idx) == "transforms.spline.ijt":
                self.count("spline_ijt_calls", 1)
        return after

    def _bridge_counts(self, method):
        def after(idx, args, kwargs, out):
            kind, x = args[0].kind, args[1]
            y = out[0] if method == "forward" else out
            clamped = ((method == "forward" and kind in ("psi_inv", "logit"))
                       or (method == "inverse" and kind in ("psi", "sigmoid")))
            if clamped:
                self.count("clamp_hits", np.count_nonzero(x < tr.CLAMP)
                           + np.count_nonzero(x > 1.0 - tr.CLAMP))
            # values in logit space: produced by logit.fwd / sigmoid.inv,
            # consumed by sigmoid.fwd / logit.inv
            logits = {("logit", "forward"): y, ("sigmoid", "inverse"): y,
                      ("sigmoid", "forward"): x, ("logit", "inverse"): x}.get((kind, method))
            if logits is not None:
                self.count("logit_saturated", np.count_nonzero(np.abs(logits) > LOGIT_SATURATION))
        return after

    def _after_run_forward(self, idx, args, kwargs, out):
        x, pins = out[0], out[3]
        pin = next((p for p in pins if p is not None), None)
        self.count("positions", x.size)
        self.count("pinned", 0 if pin is None else np.count_nonzero(pin))

    def _after_cached(self, idx, args, kwargs, out):
        held = sum(a.nbytes for a in out.inputs) + sum(p.nbytes for p in out.pins if p is not None)
        self.cache_bytes[self._op] += held

    def _after_inverse(self, idx, args, kwargs, out):
        self._inverse_width = out.shape[-1]
        if self._parent_name(idx) == "tpp.draw_extended":
            self.count("draw_inverse_calls", 1)

    def _after_draw(self, idx, args, kwargs, out):
        self.count("draw_calls", 1)
        self.count("kept_cols", out[0].shape[1])
        self.count("drawn_cols", self._inverse_width)

    def _after_row_streams(self, idx, args, kwargs, out):
        self.count("streams_built", len(out))

    def _after_soft_counts(self, idx, args, kwargs, out):
        boundaries, obs = args[0], args[1]
        self.count("soft_counts_evals", boundaries.shape[0] * boundaries.shape[1] * obs.size)

    def _after_gibbs(self, idx, args, kwargs, out):
        self.count("gibbs_sweeps", kwargs.get("burn_in", 100) + kwargs.get("n_samples", 1000))

    def _counting_stream(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            return _CountingGenerator(fn(*args, **kwargs), tracer)

        return counted

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, make):
            orig = vars(owner)[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, make(orig))

        for cls, kind in _CLASS_KIND.items():
            for method, d in _METHOD_DIR.items():
                patch(cls, method, lambda f, n=f"transforms.{kind}.{d}": self._wrap(n, f))
        for method, d in _METHOD_DIR.items():
            after = self._bridge_counts(method) if method in ("forward", "inverse") else None
            patch(tr.Bridge, method,
                  lambda f, d=d, a=after: self._wrap(
                      lambda args: f"transforms.{args[0].kind}.{d}", f, a))
        patch(tr.SequentialInverter, "step", self._wrap_seq_step)
        patch(tr, "_run_forward",
              lambda f: self._wrap("transforms._run_forward", f, self._after_run_forward))
        patch(tr, "compose_forward_cached",
              lambda f: self._wrap("transforms.compose_forward_cached", f, self._after_cached))
        patch(tr, "compose_inverse",
              lambda f: self._wrap("transforms.compose_inverse", f, self._after_inverse))
        patch(tr, "chain_vjp_cached", lambda f: self._wrap("transforms.chain_vjp_cached", f))
        patch(tr, "inverse_jac_t_apply",
              lambda f: self._wrap("transforms.inverse_jac_t_apply", f))
        patch(splines, "forward", lambda f: self._wrap("splines.forward", f, self._spline_tails()))
        patch(splines, "inverse", lambda f: self._wrap("splines.inverse", f, self._spline_tails()))
        patch(splines, "vjp", lambda f: self._wrap("splines.vjp", f, self._spline_tails()))
        for name in ("log_prob", "log_prob_grad", "sample", "sequential_sample", "inverse_map",
                     "prepare_paths", "path_gradients", "relaxed_mask"):
            patch(tpp, name, lambda f, n=f"tpp.{name}": self._wrap(n, f))
        patch(tpp, "draw_extended", lambda f: self._wrap("tpp.draw_extended", f, self._after_draw))
        patch(tpp, "row_streams",
              lambda f: self._wrap("rng.row_streams", f, self._after_row_streams))
        for name in ("elbo_relaxed", "posterior_curves", "_segment_potentials", "_fb_forward",
                     "_fb_vjp"):
            patch(mjp, name, lambda f, n=f"mjp.{name.lstrip('_')}": self._wrap(n, f))
        patch(mjp, "_soft_counts", lambda f: self._wrap("mjp.soft_counts", f, self._after_soft_counts))
        patch(mjp, "rao_teh_posterior",
              lambda f: self._wrap("mjp.rao_teh_posterior", f, self._after_gibbs))
        patch(mjp, "stream", self._counting_stream)
        patch(train, "adam_step", lambda f: self._wrap("train.adam_step", f))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- analysis ------------------------------------------------------------

    def _tables(self):
        """Inclusive time, self time and calls per (op kind, span name)."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0   # children of one span never overlap
        incl, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            key = (self.op_kinds[op] if op >= 0 else None, name)
            incl[key] += t1 - t0
            self_t[key] += t1 - t0 - covered[i]
            calls[key] += 1
        return incl, self_t, calls

    def layer_metrics(self) -> dict:
        """Per-layer numbers per round, a round being one call of each op kind.

        Times are in ms; ``_frac`` values are ratios over the whole trace.
        """
        n_ops = Counter(self.op_kinds)
        incl, self_t, calls = self._tables()

        def per_round(table, name, scale=1.0):
            return scale * sum(v / n_ops[k] for (k, n), v in table.items()
                               if n == name and k in n_ops)

        def total(name):
            return sum(v for (k, n), v in self.counts.items() if n == name)

        def ratio(num, den):
            d = total(den)
            return total(num) / d if d else 0.0

        ms = 1e3
        out = {
            "splines.forward_ms": per_round(incl, "splines.forward", ms),
            "splines.inverse_ms": per_round(incl, "splines.inverse", ms),
            "splines.vjp_ms": per_round(incl, "splines.vjp", ms),
            "splines.calls": sum(per_round(calls, f"splines.{m}")
                                 for m in ("forward", "inverse", "vjp")),
            "splines.ijt_calls": per_round(self.counts, "spline_ijt_calls"),
            "splines.tail_frac": ratio("spline_tail", "spline_inputs"),
        }
        for k in LAYER_KINDS:
            for d in DIRS:
                out[f"transforms.{k}.{d}_ms"] = per_round(incl, f"transforms.{k}.{d}", ms)
        for name, d in CHAIN_SPANS.items():
            out[f"transforms.chain.{d}_overhead_ms"] = per_round(self_t, name, ms)
        draws = total("draw_calls")
        sweeps = total("gibbs_sweeps")
        out.update({
            "transforms.pinned_frac": ratio("pinned", "positions"),
            "transforms.clamp_hits": per_round(self.counts, "clamp_hits"),
            "transforms.logit_saturated": per_round(self.counts, "logit_saturated"),
            "transforms.cache_mb": max(self.cache_bytes.values(), default=0) / 1e6,
            "transforms.seq_step_ms": per_round(incl, SEQ_STEP, ms),
            "transforms.seq_steps": per_round(calls, SEQ_STEP),
            "tpp.draw_extended_ms": per_round(self_t, "tpp.draw_extended", ms),
            "tpp.draw_rounds": total("draw_inverse_calls") / draws if draws else 0.0,
            "tpp.kept_frac": ratio("kept_cols", "drawn_cols"),
            "tpp.prepare_paths_ms": per_round(incl, "tpp.prepare_paths", ms),
            "tpp.path_gradients_ms": per_round(incl, "tpp.path_gradients", ms),
            "tpp.relaxed_mask_ms": per_round(incl, "tpp.relaxed_mask", ms),
            "rng.row_streams_ms": per_round(incl, "rng.row_streams", ms),
            "rng.streams_built": per_round(self.counts, "streams_built"),
            "mjp.segment_potentials_ms": per_round(incl, "mjp.segment_potentials", ms),
            "mjp.soft_counts_ms": per_round(incl, "mjp.soft_counts", ms),
            "mjp.soft_counts_evals": per_round(self.counts, "soft_counts_evals"),
            "mjp.fb_forward_ms": per_round(incl, "mjp.fb_forward", ms),
            "mjp.fb_vjp_ms": per_round(incl, "mjp.fb_vjp", ms),
            "mjp.elbo_self_ms": per_round(self_t, "mjp.elbo_relaxed", ms),
            "mjp.posterior_curves_self_ms": per_round(self_t, "mjp.posterior_curves", ms),
            # each sweep draws one state per segment, and segments = candidates + 1
            "mjp.gibbs_candidates_per_sweep":
                total("gibbs_choices") / sweeps - 1.0 if sweeps else 0.0,
            "train.adam_step_ms": per_round(incl, "train.adam_step", ms),
        })
        return {k: float(v) for k, v in out.items()}

    def reconcile(self, op_wall: dict) -> dict:
        """Split each op kind's traced time (ms per op) into self-time groups.

        The groups partition the root span, so they sum to it exactly unless
        spans were left open or overlap; ``residual`` compares their sum with
        the wall time the caller measured around the same op (``op_wall``:
        op kind -> list of seconds).
        """
        n_ops = Counter(self.op_kinds)
        _, self_t, _ = self._tables()
        groups = {k: defaultdict(float) for k in n_ops}
        for (kind, name), v in self_t.items():
            if kind is None:
                continue
            if name in _LAYER_SPANS or name.startswith("splines."):
                g = "layers"
            elif name in CHAIN_SPANS:
                g = "chain_overhead"
            elif name == SEQ_STEP:
                g = "seq_steps"
            elif name == "trace.count":
                g = "trace_bookkeeping"
            elif name.startswith("op."):
                g = "caller"
            else:
                g = "modules"
            groups[kind][g] += v
        out = {}
        for kind, g in groups.items():
            row = {name: 1e3 * v / n_ops[kind] for name, v in sorted(g.items())}
            wall = 1e3 * sum(op_wall[kind]) / n_ops[kind]
            row["sum"] = sum(row.values())
            row["wall"] = wall
            row["residual"] = wall - row["sum"]
            out[kind] = row
        return out

    def write_spans(self, path):
        """One JSON list per line: name, start and end in µs from the first
        span, parent line index (-1 for roots), op id, op kind."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op in self.spans:
                kind = self.op_kinds[op] if op >= 0 else None
                fh.write(json.dumps([name, round((t0 - t_ref) * 1e6, 3),
                                     round((t1 - t_ref) * 1e6, 3), parent, op, kind]))
                fh.write("\n")
