"""The three benchmark workloads, their inputs and their output checks.

Every input is made here from the run seed with NumPy; nothing goes through
``seqdata.simulate_*`` or ``mjp.simulate_mmpp``, so a change to those cannot
change a workload.  The library is called through its public module
attributes (``tpp.sample``, ``train.adam_step``, ...), the way a user calls
it, which is also what lets the tracer wrap those calls.

Each workload has three timed operations, run in this order every round of
a closed loop with one caller:

  step  the call the workload exists for
  aux   a second call on the same model
  ref   the reference the step is compared with

An operation is counted as failed when it raises or when its output check
fails; the checks run outside the timed region.
"""
from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from tppflow import mjp, tpp, train
from tppflow import transforms as tr
from tppflow.models import ModelKind, build_model
from tppflow.seqdata import EventSequence, PaddedBatch, pad_batch

# Parameters of the model under test: identity + 0.05 N(0, 1), drawn from a
# fixed stream so that every run tests the same model; --seed drives the
# inputs (rows, draws, observations) only.
PERTURB = 0.05
MODEL_SEED = 0
LR = 1e-2               # Adam learning rate, as in TrainConfig and ViConfig
# Directional finite difference of the summed log density, compared with
# grad.v on the scale of |grad| (|grad.v| <= |grad| for a unit v, and grad.v
# itself is near 0 when v is nearly orthogonal to grad).  The sum over ~140k
# events has near-vertical walls at the CLAMP boundaries, so the FD is only
# good to ~1e-5 |grad| (worst of 6 seeds x 4 fit points: 5.3e-5); a 10%
# gradient error along a random direction of ~700 parameters is ~4e-3 |grad|.
FD_STEP = 1e-7
FD_RTOL = 1e-3
SEQ_ATOL = 1e-9         # sequential vs parallel sample, measured gap ~3e-13
ROW_SUM_ATOL = 1e-9     # occupancy rows are probability vectors
# Training workloads restart from their set-up parameters every RESTART steps,
# so every run times the same stretch of the fit however fast the machine is
# (the cost of a VI iteration falls by a third as q trains).
RESTART = 10


@dataclass(frozen=True)
class Size:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    rows: int = 100             # train rows (density) and batch size (sampling)
    val_rows: int = 50
    mean_events: float = 1400.0  # Poisson mean of a density row's length
    sample_rate: float = 14.0    # rate of the sampling model (~1285 events/row)
    horizon: float = 100.0
    n_knots: int = 20
    block_size: int = 16
    n_blocks: int = 4
    mc_samples: int = 512
    gibbs_burn_in: int = 10
    gibbs_kept: int = 40
    grid: int = 200

    def chain(self, rate: float) -> ModelKind:
        """The bench ``tritpp`` chain at the given initial rate."""
        return ModelKind("tritpp", self.horizon, n_knots=self.n_knots,
                         block_size=self.block_size, n_blocks=self.n_blocks, rate_init=rate)


FULL = Size()
TINY = Size(rows=4, val_rows=3, mean_events=30.0, sample_rate=0.3, n_knots=5,
            block_size=4, n_blocks=2, mc_samples=8, gibbs_burn_in=2, gibbs_kept=3, grid=20)


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Stats:
    """Operations attempted and failed, failure messages, quality numbers."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def fail(self, what, exc):
        self.failed += 1
        if len(self.failures) < 10:
            detail = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc()
            self.failures.append(f"{what}: {detail}")


def bench_model(kind: ModelKind):
    """The model of ``kind`` with every parameter perturbed by 0.05 N(0, 1)."""
    model = build_model(kind)
    rng = np.random.default_rng(MODEL_SEED)
    model.params.values += PERTURB * rng.standard_normal(model.params.size)
    return model


def poisson_rows(rng, count: int, mean: float, horizon: float) -> PaddedBatch:
    """Rows of Poisson(mean) uniform event times on (0, horizon], padded."""
    seqs = []
    for n in rng.poisson(mean, size=count):
        times = np.sort(horizon * (1.0 - rng.random(n)))   # (0, horizon]
        seqs.append(EventSequence(times, horizon))
    return pad_batch(seqs)


def check_rows(t, horizon, what):
    require(np.all(np.isfinite(t)), f"{what}: non-finite times")
    require(np.all(np.diff(t, axis=1) >= 0.0), f"{what}: a row is not non-decreasing")
    require(float(t.min()) >= 0.0 and float(t.max()) <= horizon,
            f"{what}: times outside [0, {horizon}]")


def roundtrip(model, t):
    """F^-1(F(t)) for a batch of time rows."""
    z, _ = tr.compose_forward(t, model.spec, model.params)
    return tpp.inverse_map(model, z)


class Workload:
    name = ""
    why = ""
    aliases = {}      # generic metric name -> what it measures on this workload

    def __init__(self, size: Size, seed: int):
        self.size = size
        self.seed = seed
        self.stats = Stats()
        self._op_seed = 0

    def next_seed(self) -> int:
        self._op_seed += 1
        return self.seed * 1_000_003 + self._op_seed

    def op_divisor(self, op, out) -> float:
        """A timed call counts as this many units of its metric."""
        return 1.0

    def final_checks(self, st):
        """Checks made once per run, each counted as one attempted operation."""
        return []

    @staticmethod
    def restart_if_due(st):
        """Every RESTART steps, go back to the set-up parameters and a fresh Adam state."""
        if st.steps % RESTART == 0:
            st.model.params.values = st.theta0.copy()
            st.adam = train.AdamState.zeros(st.theta0.size)
        st.steps += 1


class DensityTrain(Workload):
    name = "density-train"
    why = ("Spline forward and VJP plus chain overhead do most of the work; padded rows run "
           "the pin path; the inverse chain and mjp do no work here.")
    aliases = {"step_ms": "grad_step_ms (log_prob_grad + adam_step, 100 train rows)",
               "aux_ms": "log_prob_ms (50 validation rows)",
               "ref_ms": "train_log_prob_ms (log_prob of the train rows at the step's parameters)",
               "items_per_s": "density_events_per_s (valid events scored by the grad step)"}

    def setup(self):
        size = self.size
        rng = np.random.default_rng([self.seed, 1])
        model = bench_model(size.chain(size.mean_events / size.horizon))
        st = SimpleNamespace(model=model, theta0=model.params.values.copy(), steps=0,
                    train=poisson_rows(rng, size.rows, size.mean_events, size.horizon),
                    val=poisson_rows(rng, size.val_rows, size.mean_events, size.horizon))
        v = rng.standard_normal(model.params.size)
        st.direction = v / np.linalg.norm(v)
        st.n_avg = max(float(st.train.mask.sum() / st.train.batch_size), 1.0)
        return st

    def step(self, st):
        self.restart_if_due(st)
        lp, g = tpp.log_prob_grad(st.model, st.train)
        theta = st.model.params.values
        grad = -g / (st.train.batch_size * st.n_avg)
        st.model.params.values, st.adam = train.adam_step(theta, grad, st.adam, LR)
        return lp, g, theta

    def check_step(self, st, out):
        lp, g, theta = out
        require(lp.shape == (st.train.batch_size,), "log_prob_grad: wrong shape")
        require(np.all(np.isfinite(lp)) and np.all(np.isfinite(g)),
                "log_prob_grad: non-finite value or gradient")
        st.last = out
        return float(st.train.mask.sum())

    def aux(self, st):
        return tpp.log_prob(st.model, st.val)

    def check_aux(self, st, out):
        require(out.shape == (st.val.batch_size,) and np.all(np.isfinite(out)),
                "log_prob: non-finite or wrongly shaped values")

    def ref(self, st):
        return tpp.log_prob(_probe(st.model, st.last[2]), st.train)

    def check_ref(self, st, out):
        require(np.array_equal(out, st.last[0]),
                "log_prob and log_prob_grad differ at the same parameters")

    def final_checks(self, st):
        def finite_difference():
            theta, v = st.model.params.values, st.direction
            _, g = tpp.log_prob_grad(st.model, st.train)
            up = tpp.log_prob(_probe(st.model, theta + FD_STEP * v), st.train)
            down = tpp.log_prob(_probe(st.model, theta - FD_STEP * v), st.train)
            fd = (float(up.sum()) - float(down.sum())) / (2.0 * FD_STEP)
            err = abs(fd - float(g @ v)) / float(np.linalg.norm(g))
            self.stats.quality["fd_err_over_grad_norm"] = err
            require(err <= FD_RTOL, f"finite difference {fd!r} vs grad.v {float(g @ v)!r} "
                                    f"(error {err:.2e} |grad|)")

        def padding_invariant():
            b = st.train
            pad = np.full((b.batch_size, 1), b.horizon)
            wider = PaddedBatch(np.concatenate([b.times, pad], 1),
                                np.concatenate([b.mask, np.zeros_like(pad)], 1), b.horizon)
            # The chain pins padded gaps, so its outputs on the original
            # columns and on the appended horizon column must not move by a bit.
            times = np.concatenate([b.times, pad], 1)
            z, logdiag = tr.compose_forward(times, st.model.spec, st.model.params)
            z2, logdiag2 = tr.compose_forward(np.concatenate([times, pad], 1),
                                              st.model.spec, st.model.params)
            width = times.shape[1]
            require(np.array_equal(z2[:, :width], z) and np.array_equal(z2[:, -1], z[:, -1])
                    and np.array_equal(logdiag2[:, :width], logdiag),
                    "one more padding column changed the chain's z or log-Jacobian terms")
            # The row sum over the wider array may split at other points
            # (NumPy pairwise summation), so it is held to the error bound of
            # a reordered sum; the ulps it moves are reported, not gated.
            lp, lp2 = tpp.log_prob(st.model, b), tpp.log_prob(st.model, wider)
            gap = np.abs(lp2 - lp)
            terms = np.abs(b.mask * logdiag[:, :-1]).sum(axis=1) + np.abs(z[:, -1])
            reorder_bound = 2.0 * (width + 1) * np.finfo(np.float64).eps * terms
            self.stats.quality["padding_lp_rows_not_bitwise"] = float(np.count_nonzero(gap))
            self.stats.quality["padding_lp_max_ulps"] = float((gap / np.spacing(np.abs(lp))).max())
            require(np.all(gap <= reorder_bound),
                    f"one more padding column moved a log density by {gap.max():.3e}, "
                    "beyond the reordered-sum bound")

        def roundtrip_quality():
            t = st.train.times
            self.stats.quality["roundtrip_max_abs"] = float(np.abs(roundtrip(st.model, t) - t).max())

        return [("finite difference", finite_difference),
                ("padding invariance", padding_invariant),
                ("round trip", roundtrip_quality)]


class SampleGen(Workload):
    name = "sample-gen"
    why = ("The same layers in the inverse direction (spline inverse, triangular solves, the "
           "doubling loop, per-row streams) with no VJP, so a forward/VJP speed-up that costs "
           "the inverse shows here.")
    aliases = {"step_ms": "sample_ms (tpp.sample, 100 rows, no length hint)",
               "aux_ms": "roundtrip_ms (F then F^-1 of the drawn extended rows)",
               "ref_ms": "sequential_sample_ms (tpp.sequential_sample, same seed)",
               "items_per_s": "sample_events_per_s (events before the horizon)"}

    def setup(self):
        return SimpleNamespace(model=bench_model(self.size.chain(self.size.sample_rate)))

    def step(self, st):
        st.last_seed = self.next_seed()
        return tpp.sample(st.model, self.size.rows, st.last_seed)

    def check_step(self, st, out):
        horizon = st.model.horizon
        check_rows(out.clipped, horizon, "sample clipped rows")
        require(np.all(np.isfinite(out.extended)), "sample: non-finite extended times")
        require(float(out.extended[:, -1].min()) >= horizon,
                "sample: a row's last extended time is before the horizon")
        st.last = out
        return float(out.hard_mask.sum())

    def aux(self, st):
        return roundtrip(st.model, st.last.extended)

    def check_aux(self, st, out):
        err = float(np.abs(out - st.last.extended).max())
        require(np.isfinite(err), "round trip of a draw is not finite")
        q = self.stats.quality
        q.setdefault("roundtrip_per_draw", []).append(err)
        q["roundtrip_max_abs"] = max(q.get("roundtrip_max_abs", 0.0), err)

    def ref(self, st):
        return tpp.sequential_sample(st.model, self.size.rows, st.last_seed)

    def check_ref(self, st, out):
        check_rows(out.clipped, st.model.horizon, "sequential_sample clipped rows")
        a, b = st.last.extended, out.extended
        n = min(a.shape[1], b.shape[1])
        gap = float(np.abs(a[:, :n] - b[:, :n]).max())
        self.stats.quality["sequential_gap_max"] = max(
            self.stats.quality.get("sequential_gap_max", 0.0), gap)
        require(gap <= SEQ_ATOL, f"sequential and parallel samples differ by {gap:.3e}")


class ViMmpp(Workload):
    name = "vi-mmpp"
    why = ("Many short rows (512 x ~20 columns): soft counts, forward-backward and its VJP, "
           "per-row Python loops and Philox stream set-up dominate; Gibbs is per-segment Python.")
    aliases = {"step_ms": "vi_iter_ms (elbo_relaxed with 512 MC samples + adam_step)",
               "aux_ms": "posterior_curves_ms (200-point grid, 512 samples)",
               "ref_ms": "gibbs_sweep_ms (one rao_teh_posterior call / its sweeps)",
               "items_per_s": "vi_paths_per_s (MC sample paths through the VI step)"}

    HORIZON = 50.0
    CONFIG = mjp.ViConfig()      # fit_vi's defaults: q family, gamma
    OBS_RANGE = (180, 240)       # acceptance 08's instance has ~200 observations
    SWITCH_RANGE = (9, 11)       # the chain leaves a state at rate 0.2: ~10 switches in 50

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        params = mjp.MmppParams(np.array([0.52, 0.22, 0.26]), np.full((3, 3), 0.1),
                                np.array([1.0, 5.0, 20.0]))
        obs = mmpp_observations(rng, params, self.HORIZON, self.OBS_RANGE, self.SWITCH_RANGE)
        cfg = self.CONFIG
        q = bench_model(ModelKind("tritpp", self.HORIZON, n_knots=cfg.n_knots,
                                  block_size=cfg.block_size, n_blocks=cfg.n_blocks,
                                  rate_init=float(params.pi @ params.total_rates)))
        return SimpleNamespace(model=q, theta0=q.params.values.copy(), steps=0, params=params, obs=obs)

    def step(self, st):
        self.restart_if_due(st)
        est = mjp.elbo_relaxed(st.model, st.params, st.obs, self.size.mc_samples, self.CONFIG.gamma,
                               seed=self.next_seed())
        st.model.params.values, st.adam = train.adam_step(st.model.params.values, -est.grad_q,
                                                          st.adam, LR)
        return est

    def check_step(self, st, out):
        grads = (out.grad_q, out.grad_pi, out.grad_a, out.grad_lam)
        require(np.isfinite(out.value) and all(np.all(np.isfinite(g)) for g in grads),
                f"ELBO or its gradients not finite (value {out.value!r})")
        return float(self.size.mc_samples)

    def aux(self, st):
        return mjp.posterior_curves(st.model, st.params, st.obs, n_grid=self.size.grid,
                                    n_samples=self.size.mc_samples, seed=self.next_seed())

    def check_aux(self, st, out):
        check_occupancy(out, self.size.grid, "posterior_curves")

    def ref(self, st):
        return mjp.rao_teh_posterior(st.obs, st.params, self.HORIZON,
                                     n_samples=self.size.gibbs_kept,
                                     burn_in=self.size.gibbs_burn_in,
                                     seed=self.next_seed(), n_grid=self.size.grid)

    def check_ref(self, st, out):
        check_occupancy(out, self.size.grid, "Gibbs occupancy")

    def op_divisor(self, op, out):
        return float(self.size.gibbs_burn_in + self.size.gibbs_kept) if op == "ref" else 1.0

    def final_checks(self, st):
        def roundtrip_quality():
            t, _ = tpp.draw_extended(st.model, self.size.mc_samples, self.next_seed())
            self.stats.quality["roundtrip_max_abs"] = float(np.abs(roundtrip(st.model, t) - t).max())

        return [("round trip", roundtrip_quality)]


def check_occupancy(curves, n_grid, what):
    require(curves.shape[0] == n_grid and np.all(np.isfinite(curves)), f"{what}: bad shape/values")
    require(float(np.abs(curves.sum(axis=1) - 1.0).max()) <= ROW_SUM_ATOL,
            f"{what}: a row does not sum to 1")


def mmpp_observations(rng, params, horizon, obs_range, switch_range, attempts=100_000):
    """Observations of one simulated MMPP path, conditioned on the number of
    observations and of state switches lying in the given ranges.

    Soft counts scale with the observations and a Gibbs sweep with the
    switches the path implies, so the conditioning gives every seed the same
    amount of work.
    """
    k = params.n_states
    totals = params.total_rates
    for _ in range(attempts):
        s = int(rng.choice(k, p=params.pi))
        t, bounds, states = 0.0, [0.0], [s]
        while True:
            t += rng.exponential(1.0 / totals[s])
            if t >= horizon:
                break
            s = int(rng.choice(k, p=params.A[s] / totals[s]))
            bounds.append(t)
            states.append(s)
        bounds.append(horizon)
        n = rng.poisson(params.lam[states] * np.diff(bounds))
        switches = int(np.count_nonzero(np.diff(states)))
        if (obs_range[0] <= n.sum() <= obs_range[1]
                and switch_range[0] <= switches <= switch_range[1]):
            obs = [a + (b - a) * rng.random(c) for a, b, c in zip(bounds[:-1], bounds[1:], n)]
            return np.sort(np.concatenate(obs))
    raise RuntimeError(f"no MMPP path with {obs_range} observations and {switch_range} "
                       f"switches in {attempts} attempts")


def _probe(model, values):
    return tpp.TppModel(model.spec, tr.ParamStore(model.params.names, model.params.slices,
                                                  values), model.horizon)


WORKLOADS = {w.name: w for w in (DensityTrain, SampleGen, ViMmpp)}
