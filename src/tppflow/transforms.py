"""Invertible layer chain for increasing triangular maps on event-time batches.

A chain maps a batch of non-decreasing time rows to non-decreasing rows of
cumulative intensity, together with the log-diagonal of the (lower
triangular) Jacobian.  Every layer has a closed-form forward, inverse and
vector-Jacobian product, so densities, samples and gradients never touch an
autodiff framework.  A layer's ``forward(x, p, keep, out)`` returns its
output, its log-diagonal and a record its ``vjp`` and ``inv_jac_t`` can reuse
(a spline's bins, positions and tail inputs, the sigmoid bridge's output;
``None`` for every other layer, and for any layer run without ``keep``).  A
constant log-diagonal is a read-only broadcast view.  An elementwise layer's
``forward_block(p)`` is ``v -> (y, ld, ...)`` on 1-D blocks, ``ld`` maybe a
scalar; one with a record gives ``recorded_block(p)``, ``(block, record)``
with the record's parts, of ``record_dtypes``, after ``ld``.
``inv_jac_t(x, p, w, res, out)`` returns u = J^-T w and the parameter
cotangent of ``vjp`` at g_y = u, g_ld = 0 (``None`` for a layer without
parameters).  A layer's ``reads_input`` says whether its ``vjp`` and
``inv_jac_t`` read ``x``.  ``column_inverse(p, batch_size)`` builds the step
``(v, j) -> v`` from column j of the output to column j of the input,
constants and column state inside.

``forward``, ``inverse``, ``vjp`` and ``inv_jac_t`` take ``out`` in the
sense of NumPy's ``out=``: the output is written there when it is given,
and ``out`` may be the input itself.  Every pass owns one array and lets
each layer write over it: the forward passes a copy of the caller's rows,
which becomes z, ``compose_inverse`` another, the sweeps their cotangent.
``compose_forward_cached`` carves every array that only the sweeps read (a
copy of each input a VJP reads, the records) from one workspace; z and
``logdiag`` never live there.  The last reader of a cache consumes it
(``inverse_jac_t_apply``, or ``chain_vjp_cached(..., consume=True)``, which
starts its cotangent in ``cache.z``): at its end it drops the cache's
entries and puts the workspace on a spare list, which holds up to 2 between
calls, for the next cached pass; a later pass over the cache raises
``ValueError``.

Padding semantics: rows are padded by repeating the horizon, which makes the
padded inter-event gaps exactly zero.  The layers from the ``Diff`` through
the next ``Cumsum`` (``TransformSpec.pinned``) pin those zero gaps: each pass
takes its mask from the zeros of the first pinned array it meets (the
``Diff``'s output going forward, the ``Cumsum``'s inverse output going back)
and zeroes one array there, at an end of the run: the ``Cumsum``'s input
going forward (z repeats Lambda(T) over the padding), the ``Diff``'s output
going back (padded times come back as T), the reverse sweep's cotangent just
past the ``Cumsum``.  Going forward every log-diagonal is added in full, and
the pinned ``logdiag`` held before the ``Diff`` is put back once, at the
``Cumsum``.  Inside the run pinned values stay finite (``CLAMP`` and the
sigmoid's clip bound them), but the map is lower triangular and padding
trails the events, so no real position reads them: appending more padding
never changes a result by even one bit.
"""
from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import solve_triangular

from . import splines as sp
from .splines import RqsSpline, _by_blocks, reversed_cumsum, sigmoid

__all__ = [
    "DomainError",
    "ParamStore",
    "TransformSpec",
    "Spline",
    "BlockDiag",
    "Scale",
    "FixedScale",
    "Bridge",
    "Cumsum",
    "Diff",
    "pairwise_diff",
    "build_param_store",
    "compose_forward",
    "compose_forward_cached",
    "compose_inverse",
    "chain_vjp_cached",
    "inverse_jac_t_apply",
    "SequentialInverter",
]

CLAMP = 1e-12          # round-off guard for inputs of psi_inv / logit
# Elements per row block of BlockDiag.  A block's buffers stay in cache and
# its products stay small: at 65536 elements and above OpenBLAS splits the
# product across threads and the forward ran 3-4x slower, and the whole batch
# as one block took the inverse of the bench chain's four blocks from 5.0 to
# 9.0 ms (2-vCPU VM).
_ROW_BLOCK = 32768
# Block matrices kept, one per parameter vector: a step touches one per block
# (4 on the bench chain), and training adds that many per step.  Each retains
# 2 kB at H = 16.  Keyed by the bytes, not the id: ``params.values`` is edited in place.
_MATRIX_MEMO = 32
_tril_indices = functools.lru_cache(maxsize=None)(lambda h: np.tril_indices(h, -1))
# Consumed caches' workspaces, kept mapped for the next cached pass: at most 2, one per VI cache
_SPARES, _SPARE_LOCK = [], threading.Lock()


class DomainError(ValueError):
    """An intermediate value left the domain of a layer."""

    def __init__(self, layer: str, message: str):
        super().__init__(f"layer '{layer}': {message}")
        self.layer = layer


# ---------------------------------------------------------------------------
# primitive vector operations


def _diff_flat(src: np.ndarray, dst: np.ndarray, n: int) -> None:
    """``dst[i] = src[i] - src[i - 1]`` over flat rows of length ``n``, row
    starts copied; ``dst`` may be ``src``.  Walked right to left in blocks
    through a small buffer, a block reads only elements left of those already
    written (NumPy would copy the whole overlapping operand of one in-place
    subtraction)."""
    buf = np.empty(min(sp._BLOCK, src.size))
    for stop in range(src.size, 1, -sp._BLOCK):
        start = max(1, stop - sp._BLOCK)
        part = buf[:stop - start]
        np.subtract(src[start:stop], src[start - 1:stop - 1], out=part)
        first = -(-start // n) * n          # the block's first row start
        part[first - start::n] = src[first:stop:n]
        dst[start:stop] = part
    dst[:1] = src[:1]


def pairwise_diff(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise adjacent differences, first element kept; inverse of cumsum.

    Written into ``out`` when it is given, which may be ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape) if out is None else out
    _diff_flat(x.reshape(-1), sp.c_view(out, -1), x.shape[-1])
    return out


def _diff_t(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Transpose of the row-wise adjacent difference: ``out[i] = x[i] - x[i + 1]``
    over each row, the last element of a row copied.

    Written into ``out`` when it is given, which may be ``x``.  Walked left
    to right in blocks through a small buffer, a block reads only elements
    right of those already written, as ``_diff_flat`` does from the other end.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape) if out is None else out
    src, dst, n = x.reshape(-1), sp.c_view(out, -1), x.shape[-1]
    buf = np.empty(min(sp._BLOCK, src.size))
    for start in range(0, src.size - 1, sp._BLOCK):
        stop = min(start + sp._BLOCK, src.size - 1)
        part = buf[:stop - start]
        np.subtract(src[start:stop], src[start + 1:stop + 1], out=part)
        last = start + (n - 1 - start) % n     # the block's first row end
        part[last - start::n] = src[last:stop:n]
        dst[start:stop] = part
    dst[src.size - 1:] = src[src.size - 1:]
    return out


# ---------------------------------------------------------------------------
# layers


@dataclass(frozen=True)
class Spline:
    """Elementwise rational quadratic spline (see :mod:`tppflow.splines`)."""

    name: str
    n_knots: int

    reads_input = False   # the record holds the bins, xi and the tail inputs

    @property
    def rqs(self) -> RqsSpline:
        return RqsSpline(self.n_knots)

    @property
    def n_params(self) -> int:
        return self.rqs.n_params

    def forward(self, x, p, keep=True, out=None):
        return sp.forward(self.rqs, p, x, keep=keep, out=out)

    def forward_block(self, p):
        return sp.forward_block(sp.make_knots(self.rqs, p))

    @property
    def record_dtypes(self):     # bins (as ``_grid_table`` counts them), xi, the tail masks
        return np.min_scalar_type(self.n_knots - 2), np.float64, np.bool_, np.bool_

    def recorded_block(self, p):
        return sp.forward_block(sp.make_knots(self.rqs, p), keep=True)

    def inverse(self, y, p, out=None):
        return sp.inverse(self.rqs, p, y, out=out)

    def column_inverse(self, p, batch_size):
        block = sp.inverse_block(sp.make_knots(self.rqs, p))
        return lambda v, j: block(v)

    def vjp(self, x, p, g_y, g_ld, res=None, out=None):
        return sp.vjp(self.rqs, p, x, g_y, g_ld, res=res, out=out)

    def inv_jac_t(self, x, p, w, res=None, out=None):
        return sp.inv_jac_t(self.rqs, p, x, w, res=res, out=out)


@dataclass(frozen=True)
class BlockDiag:
    """Repeated H x H lower-triangular block, anchored at ``offset + k*H``.

    The window [0, N) cuts conceptual blocks at both edges; cut positions
    apply the corresponding truncated block (still lower triangular, still
    invertible), so results do not depend on how far a batch is padded.
    """

    name: str
    size: int
    offset: int = 0

    reads_input = True

    def __post_init__(self):
        if self.size < 1 or self.size % 2:
            raise ValueError(f"block size must be a positive even integer, got {self.size}")
        if not (0 <= self.offset < self.size):
            raise ValueError(f"offset must lie in [0, size), got {self.offset}")

    @property
    def n_params(self) -> int:
        h = self.size
        return h * (h + 1) // 2

    def matrix(self, p) -> np.ndarray:
        """The block of ``p``, built once per parameter vector; read-only."""
        return _block_matrix(self.size, np.ascontiguousarray(p, dtype=np.float64).tobytes())

    def _by_row_blocks(self, fn, *arrays, out=None):
        """Apply ``fn`` to same-shaped ``arrays`` block by block, in row blocks.

        Each row block (at most ``_ROW_BLOCK`` elements, or one row if a row
        is longer) is copied into a reused buffer that pads every row with
        zeros to whole H-blocks, starting at ``offset``.  ``fn`` receives the
        buffers viewed as (rows * blocks, H) and returns an array of that
        shape; the unpadded columns of its results form the output, written
        into ``out`` when it is given (a C-contiguous array, which may be one
        of ``arrays``: a row block is copied before its output is written).
        """
        shape = arrays[0].shape
        n, h = shape[-1], self.size
        left = (h - self.offset) % h
        width = left + n + (h - (left + n) % h) % h
        n_rows = int(np.prod(shape[:-1]))
        rows = [a.reshape(n_rows, n) for a in arrays]
        step = max(1, _ROW_BLOCK // max(width, 1))
        bufs = [np.zeros((min(step, n_rows), width)) for _ in arrays]
        out = np.empty(shape) if out is None else out
        flat = sp.c_view(out, (n_rows, n))
        for start in range(0, n_rows, step):
            stop = min(start + step, n_rows)
            k = stop - start
            for buf, r in zip(bufs, rows):
                buf[:k, left:left + n] = r[start:stop]
            res = fn(*(buf[:k].reshape(-1, h) for buf in bufs))
            flat[start:stop] = res.reshape(k, width)[:, left:left + n]
        return out

    def forward(self, x, p, keep=True, out=None):
        b = self.matrix(p)
        pos = (np.arange(x.shape[-1]) - self.offset) % self.size
        ld = np.broadcast_to(p[:self.size][pos], x.shape)
        return self._by_row_blocks(lambda c: c @ b.T, x, out=out), ld, None

    def inverse(self, y, p, out=None):
        b = self.matrix(p)
        return self._by_row_blocks(lambda c: solve_triangular(b, c.T, lower=True).T, y, out=out)

    def column_inverse(self, p, batch_size):
        b, h = self.matrix(p), self.size
        buf = np.zeros((batch_size, h))   # the current block's inputs; zeros left of the window
        # forward substitution at each place r of a block: the inputs before r, row r of B
        places = [(buf[:, :r], b[r, :r], b[r, r], buf[:, r]) for r in range(h)]

        def step(v, j):
            before, row, diag, col = places[(j - self.offset) % h]
            v = (v - before @ row) / diag
            col[:] = v
            return v
        return step

    def _param_cotangent(self, g_b, b):
        """The parameters' cotangent from that of the block's entries."""
        return np.concatenate([np.diag(g_b) * np.diag(b), g_b[_tril_indices(self.size)]])

    def vjp(self, x, p, g_y, g_ld, res=None, out=None):
        b = self.matrix(p)
        h = self.size
        g_b = np.zeros((h, h))

        def block(gc, xc):
            g_b[:] += gc.T @ xc
            return gc @ b

        g_x = self._by_row_blocks(block, g_y, x, out=out)
        g_p = self._param_cotangent(g_b, b)
        n = x.shape[-1]
        pos = (np.arange(n) - self.offset) % h
        g_p[:h] += np.bincount(pos, weights=g_ld.reshape(-1, n).sum(axis=0), minlength=h)
        return g_x, g_p

    def inv_jac_t(self, x, p, w, res=None, out=None):
        b = self.matrix(p)
        g_b = np.zeros((self.size, self.size))

        def block(wc, xc):
            uc = solve_triangular(b.T, wc.T, lower=False).T
            g_b[:] += uc.T @ xc      # the VJP's product at output cotangent u
            return uc

        return self._by_row_blocks(block, w, x, out=out), self._param_cotangent(g_b, b)


@functools.lru_cache(maxsize=_MATRIX_MEMO)
def _block_matrix(h: int, p: bytes) -> np.ndarray:
    p = np.frombuffer(p)
    b = np.diag(np.exp(p[:h]))
    b[_tril_indices(h)] = p[h:]
    b.flags.writeable = False
    return b


@dataclass(frozen=True)
class Scale:
    """Learnable positive scalar scale, stored as a log."""

    name: str

    reads_input = True
    n_params = 1

    def forward(self, x, p, keep=True, out=None):
        return np.multiply(np.exp(p[0]), x, out=out), np.broadcast_to(p[0], x.shape), None

    def forward_block(self, p):
        s, ld = np.exp(p[0]), p[0]
        return lambda v: (s * v, ld)

    def inverse(self, y, p, out=None):
        return np.multiply(y, np.exp(-p[0]), out=out)

    def column_inverse(self, p, batch_size):
        s = np.exp(-p[0])
        return lambda v, j: v * s

    def vjp(self, x, p, g_y, g_ld, res=None, out=None):
        s = np.exp(p[0])
        axes = list(range(np.ndim(x)))
        # sum of g_y * x with no product array; read before out is written
        g_p = np.array([s * float(np.einsum(g_y, axes, x, axes, [])) + float(g_ld.sum())])
        return np.multiply(s, g_y, out=out), g_p

    def inv_jac_t(self, x, p, w, res=None, out=None):
        u = np.multiply(w, np.exp(-p[0]), out=out)
        axes = list(range(np.ndim(x)))
        return u, np.array([np.exp(p[0]) * float(np.einsum(u, axes, x, axes, []))])


@dataclass(frozen=True)
class FixedScale:
    """Constant positive scale (e.g. 1/T), no parameters."""

    value: float

    reads_input = False
    n_params = 0
    name = None

    def __post_init__(self):
        if not 0 < self.value < np.inf:
            raise ValueError(f"scale must be finite and > 0, got {self.value}")

    def forward(self, x, p, keep=True, out=None):
        ld = np.broadcast_to(np.log(self.value), x.shape)
        return np.multiply(self.value, x, out=out), ld, None

    def forward_block(self, p):
        ld = np.log(self.value)
        return lambda v: (self.value * v, ld)

    def inverse(self, y, p, out=None):
        return np.divide(y, self.value, out=out)

    def column_inverse(self, p, batch_size):
        return lambda v, j: v / self.value

    def vjp(self, x, p, g_y, g_ld, res=None, out=None):
        return np.multiply(self.value, g_y, out=out), None

    def inv_jac_t(self, x, p, w, res=None, out=None):
        return np.divide(w, self.value, out=out), None


# elementwise pieces of the bridges; the *_forward ones are forward blocks


def _clamped(v):
    return sp._clip(v, CLAMP, 1.0 - CLAMP)


def _psi_inv_value(v):
    return -np.log1p(-_clamped(v))


def _logit_value(v):
    vc = _clamped(v)
    return np.log(vc) - np.log1p(-vc)


def _sigmoid_forward(v):
    # log sigmoid'(x) = log s + log(1 - s), free of cancellation; s is also the record
    ax, s = np.abs(v), sigmoid(v)
    return s, -ax - 2.0 * np.log1p(np.exp(-ax)), s


def _psi_inv_forward(v):
    y = _psi_inv_value(v)
    return y, y


def _logit_forward(v):
    # each log once, for the value and the log-diagonal
    xc = _clamped(v)
    log_x, log_1mx = np.log(xc), np.log1p(-xc)
    return log_x - log_1mx, -log_x - log_1mx


def _logit_vjp(v, g_y, g_ld):
    xc = _clamped(v)
    return ((g_y + g_ld * (2.0 * xc - 1.0)) / (xc * (1.0 - xc)),)


@dataclass(frozen=True)
class Bridge:
    """Fixed elementwise domain bridge: psi, psi_inv, sigmoid or logit.

    psi(x) = 1 - exp(-x) takes R+ to (0,1); logit/sigmoid move between (0,1)
    and R.  ``forward`` raises :class:`DomainError` when an input of psi,
    psi_inv or logit leaves its domain by more than 1e-9; within that slack,
    inputs of psi_inv and logit are clamped to [CLAMP, 1 - CLAMP] to absorb
    round-off at the domain edges.
    """

    kind: str

    n_params = 0
    name = None

    def __post_init__(self):
        if self.kind not in ("psi", "psi_inv", "sigmoid", "logit"):
            raise ValueError(f"unknown bridge kind {self.kind!r}")
        # the sigmoid reads its record, its own output, and nothing of its input
        object.__setattr__(self, "reads_input", self.kind != "sigmoid")
        object.__setattr__(self, "record_dtypes", (np.float64,) * (self.kind == "sigmoid"))

    def forward(self, x, p, keep=True, out=None):
        y, ld, *record = _by_blocks(self.forward_block(p), x, out=out)
        return y, ld, (record[0] if keep and record else None)   # the sigmoid's record

    def forward_block(self, p):
        k = self.kind
        fn = {"psi": lambda v: (-np.expm1(-v), -v), "psi_inv": _psi_inv_forward,
              "sigmoid": _sigmoid_forward, "logit": _logit_forward}[k]

        def block(v):
            # the domain check reads the block before ``out`` (maybe v) is written
            if v.size and (float(v.min()) < -1e-9 or (k != "psi" and float(v.max()) > 1.0 + 1e-9)):
                raise DomainError(k, f"input must lie in {'[0, inf)' if k == 'psi' else '(0, 1)'}, "
                                     f"range was [{float(v.min()):g}, {float(v.max()):g}]")
            return fn(v)
        return fn if k == "sigmoid" else block

    def recorded_block(self, p):
        return self.forward_block(p), (lambda s: s) if self.kind == "sigmoid" else None

    def _inverse_block(self):
        return {"psi": _psi_inv_value, "psi_inv": lambda v: -np.expm1(-v),
                "sigmoid": _logit_value, "logit": sigmoid}[self.kind]

    def inverse(self, y, p, out=None):
        block = self._inverse_block()
        return _by_blocks(lambda v: (block(v),), y, out=out)[0]

    def column_inverse(self, p, batch_size):
        block = self._inverse_block()
        return lambda v, j: block(v)

    def vjp(self, x, p, g_y, g_ld, res=None, out=None):
        if self.kind == "sigmoid":
            x = sigmoid(x) if res is None else res      # the record s replaces x
        block = {"psi": lambda v, gy, gl: (gy * np.exp(-v) - gl,),
                 "psi_inv": lambda v, gy, gl: ((gy + gl) * (1.0 / (1.0 - _clamped(v))),),
                 "sigmoid": lambda s, gy, gl: (gy * s * (1.0 - s) + gl * (1.0 - 2.0 * s),),
                 "logit": _logit_vjp}[self.kind]
        return _by_blocks(block, x, g_y, g_ld, out=out)[0], None

    def inv_jac_t(self, x, p, w, res=None, out=None):
        k = self.kind
        if k == "psi":
            return np.multiply(w, np.exp(x), out=out), None
        if k == "psi_inv":
            return np.multiply(w, 1.0 - _clamped(x), out=out), None
        if k == "sigmoid":
            s = sigmoid(x) if res is None else res
            return np.divide(w, s * (1.0 - s), out=out), None
        xc = _clamped(x)
        return np.multiply(w * xc, 1.0 - xc, out=out), None


@dataclass(frozen=True)
class Cumsum:
    """Row-wise cumulative sum (unit-diagonal Jacobian)."""

    n_params = 0
    name = None
    reads_input = False

    def forward(self, x, p, keep=True, out=None):
        return np.cumsum(x, axis=-1, out=out), np.broadcast_to(0.0, x.shape), None

    def inverse(self, y, p, out=None):
        return pairwise_diff(y, out=out)

    def column_inverse(self, p, batch_size):
        prev = np.zeros(batch_size)      # the previous output column

        def step(v, j):
            g = v - prev
            prev[:] = v
            return g
        return step

    def vjp(self, x, p, g_y, g_ld, res=None, out=None):
        return reversed_cumsum(g_y, out=out), None

    def inv_jac_t(self, x, p, w, res=None, out=None):
        return _diff_t(w, out=out), None


@dataclass(frozen=True)
class Diff:
    """Row-wise adjacent difference (unit-diagonal Jacobian); inverse of Cumsum."""

    n_params = 0
    name = None
    reads_input = False

    def forward(self, x, p, keep=True, out=None):
        return pairwise_diff(x, out=out), np.broadcast_to(0.0, x.shape), None

    def inverse(self, y, p, out=None):
        return np.cumsum(y, axis=-1, out=out)

    def column_inverse(self, p, batch_size):
        total = np.full(batch_size, -0.0)   # the previous input column; -0.0 + v is v

        def step(v, j):
            np.add(v, total, out=total)
            return total.copy()
        return step

    def vjp(self, x, p, g_y, g_ld, res=None, out=None):
        return _diff_t(g_y, out=out), None

    def inv_jac_t(self, x, p, w, res=None, out=None):
        return reversed_cumsum(w, out=out), None


# ---------------------------------------------------------------------------
# parameter store and transform spec


@dataclass
class ParamStore:
    """Flat parameter vector with named slices (one slice per learnable layer)."""

    names: tuple
    slices: dict
    values: np.ndarray

    def view(self, name: str) -> np.ndarray:
        return self.values[self.slices[name]]

    def copy(self) -> "ParamStore":
        return ParamStore(self.names, dict(self.slices), self.values.copy())

    @property
    def size(self) -> int:
        return self.values.size


# layer kind -> class, as written in checkpoints (format version 1)
_LAYER_CLASSES = {"spline": Spline, "block": BlockDiag, "scale": Scale,
                  "fixed_scale": FixedScale, "bridge": Bridge, "cumsum": Cumsum, "diff": Diff}
_LAYER_KINDS = {cls: kind for kind, cls in _LAYER_CLASSES.items()}


def _field_key(f):
    """Record key of a layer field; a Bridge's own ``kind`` is stored as "bridge"."""
    return "bridge" if f.name == "kind" else f.name


@dataclass(frozen=True)
class TransformSpec:
    """Ordered layer chain; ``layers[0]`` is applied to the times first.

    ``pinned`` is the run of layers from the ``Diff`` through the next
    ``Cumsum`` (empty without them); the passes zero the padding at its ends.
    """

    layers: tuple

    def __post_init__(self):
        names = [l.name for l in self.layers if l.n_params > 0]
        if len(names) != len(set(names)):
            raise ValueError(f"learnable layer names must be unique, got {names}")
        diff = cumsum = None
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Diff) and diff is None:
                diff = i
            elif isinstance(layer, Cumsum) and diff is not None and cumsum is None:
                cumsum = i
            elif isinstance(layer, (Diff, Cumsum)):
                raise ValueError(f"layer {i} ({type(layer).__name__}) is outside the one pinned "
                                 "run a chain may have, from a Diff through the next Cumsum")
        if diff is not None and cumsum is None:
            raise ValueError(f"layer {diff} (Diff) has no later Cumsum to end its pinned run")
        object.__setattr__(self, "pinned", range(0) if diff is None else range(diff, cumsum + 1))

    def to_dict(self) -> dict:
        return {"layers": [{"kind": _LAYER_KINDS[type(l)],
                            **{_field_key(f): getattr(l, f.name) for f in fields(l)}}
                           for l in self.layers]}

    @classmethod
    def from_dict(cls, d: dict) -> "TransformSpec":
        layers = []
        for i, rec in enumerate(d["layers"]):
            layer_cls = _LAYER_CLASSES.get(rec.get("kind"))
            if layer_cls is None:
                raise ValueError(f"layer {i}: unknown layer kind {rec.get('kind')!r}")
            missing = [_field_key(f) for f in fields(layer_cls) if _field_key(f) not in rec]
            if missing:
                raise ValueError(f"layer {i} ({rec['kind']}) has no field {missing[0]!r}")
            layers.append(layer_cls(**{f.name: rec[_field_key(f)] for f in fields(layer_cls)}))
        return cls(tuple(layers))


def build_param_store(spec: TransformSpec) -> ParamStore:
    """Identity-initialized flat parameters for a chain."""
    names, slices = [], {}
    pos = 0
    for layer in spec.layers:
        if layer.n_params == 0:
            continue
        names.append(layer.name)
        slices[layer.name] = slice(pos, pos + layer.n_params)
        pos += layer.n_params
    return ParamStore(tuple(names), slices, np.zeros(pos))


# ---------------------------------------------------------------------------
# chain execution


def _params_of(layer, store):
    return store.view(layer.name) if layer.n_params else None


@dataclass
class ChainCache:
    spec: TransformSpec
    store: ParamStore
    inputs: list            # per layer input: a workspace copy where its vjp reads it, else any
    residuals: list         # per layer forward record for its vjp (or None)
    pins: list              # per layer pin mask active at the layer OUTPUT (or None)
    z: np.ndarray | None    # None once a consuming chain_vjp_cached has run
    logdiag: np.ndarray
    workspace: np.ndarray | None = None    # the bytes the inputs and records are carved from


def _check_live(cache: ChainCache):
    if cache.z is None:
        raise ValueError("the cache was consumed by chain_vjp_cached(..., consume=True) or "
                         "inverse_jac_t_apply; run compose_forward_cached again")


def _validate_rows(x, what):
    if x.size == 0:
        return
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")
    if float(x[..., 0].min()) < 0:
        raise ValueError(f"{what} must be non-negative")
    if np.any(x[..., 1:] < x[..., :-1]):
        raise ValueError(f"{what} rows must be non-decreasing")


def _zeros_of(y):
    """The pin mask of a pass: where ``y`` is zero, or None if nowhere."""
    pin = y == 0.0
    return pin if pin.any() else None


def _hand_on(cache):
    """Drop a consumed cache's entries and put its workspace on the spare list, if it has room."""
    cache.inputs[:] = cache.residuals[:] = [None] * len(cache.inputs)
    with _SPARE_LOCK:
        if cache.workspace is not None and len(_SPARES) < 2:
            _SPARES.append(cache.workspace)
    cache.workspace = None


def _run_forward(times, spec, store, validate, workspace=None):
    """Forward pass on a copy of ``times``, every layer writing over it.

    A stretch of layers with ``forward_block`` runs together, each block of
    ``_BLOCK`` elements through every layer, which adds its log-diagonal block
    into ``logdiag``; every other layer runs alone through ``forward``.  With
    a ``workspace`` the pass also returns the copy of each input a VJP reads
    and the records, written block by block into arrays carved from it."""
    x = np.array(times, dtype=np.float64, order="C", ndmin=2)
    if validate:
        _validate_rows(x, "times")
    layers, run, keep, end = spec.layers, spec.pinned, workspace is not None, [0]

    def carve(dtype=np.float64):    # the workspace's next 64-byte aligned array
        start = end[0] - (workspace.ctypes.data + end[0]) % -64
        end[0] = start + x.size * np.dtype(dtype).itemsize
        return workspace[start:end[0]].view(dtype).reshape(x.shape)

    logdiag = np.zeros_like(x)
    inputs, records, stretch, pin = [], [], [], None
    for i, layer in enumerate(layers):
        p = _params_of(layer, store)
        kept = carve() if keep and layer.reads_input else None
        inputs.append(x if kept is None else kept)
        records.append(layer.recorded_block(p) + ([carve(d) for d in layer.record_dtypes],)
                       if keep and hasattr(layer, "recorded_block") else (None, None, ()))
        if not hasattr(layer, "forward_block"):
            if kept is not None:
                np.copyto(kept, x)
            logdiag += layer.forward(x, p, False, out=x)[1]
        else:
            stretch.append((records[-1][0] or layer.forward_block(p), kept, records[-1][2]))
            if i + 1 < len(layers) and hasattr(layers[i + 1], "forward_block"):
                continue
            flat, acc = x.reshape(-1), logdiag.reshape(-1)     # views: every array is C-contiguous
            for start in range(0, x.size, sp._BLOCK):
                at = np.s_[start:start + sp._BLOCK]
                v, part = flat[at], acc[at]
                for block, copy, parts in stretch:
                    if copy is not None:
                        copy.reshape(-1)[at] = v
                    v, ld, *rec = block(v)
                    part += ld
                    for a, r in zip(parts, rec):
                        a.reshape(-1)[at] = r
                flat[at] = v
            stretch = []
        if run and i == run.start:
            pin = _zeros_of(x)
            pinned_ld = None if pin is None else logdiag[pin]
        if pin is not None and i == run[-1] - 1:       # the Cumsum's input
            np.copyto(x, 0.0, where=pin)
        if pin is not None and i == run[-1]:
            logdiag[pin] = pinned_ld
    pins = [pin if i in run else None for i in range(len(layers))]    # one mask, one run
    residuals = [record(*parts) if record else None for _, record, parts in records]
    return x, logdiag, inputs, pins, residuals


def compose_forward(batch_times, spec: TransformSpec, store: ParamStore, validate: bool = True):
    """Map padded time rows through the chain.

    Returns ``(z, logdiag)`` where ``z`` holds the cumulative-intensity rows
    and ``logdiag`` the per-position log Jacobian diagonal.
    """
    z, logdiag, _, _, _ = _run_forward(batch_times, spec, store, validate)
    return z, logdiag


def compose_forward_cached(batch_times, spec, store, validate: bool = True) -> ChainCache:
    # per layer a float array if it reads its input, and its record's; a spare too small is dropped
    n = np.size(batch_times)
    nbytes = 63 + sum(-(-n * np.dtype(d).itemsize // 64) * 64 for layer in spec.layers
                      for d in (np.float64,) * layer.reads_input + getattr(layer, "record_dtypes", ()))
    with _SPARE_LOCK:
        workspace = _SPARES.pop() if _SPARES else None
    if workspace is None or workspace.nbytes < nbytes:
        workspace = np.empty(nbytes, np.uint8)
    z, logdiag, inputs, pins, residuals = _run_forward(batch_times, spec, store, validate, workspace)
    return ChainCache(spec, store, inputs, residuals, pins, z, logdiag, workspace)


def compose_inverse(z, spec: TransformSpec, store: ParamStore, validate: bool = True):
    """Invert the chain: cumulative-intensity rows back to time rows.

    The pass copies ``z`` once and every layer writes its output over its
    input.
    """
    y = np.array(z, dtype=np.float64, order="C", ndmin=2)
    if validate:
        _validate_rows(y, "z")
    layers, run, pin = spec.layers, spec.pinned, None
    for i in range(len(layers) - 1, -1, -1):
        layers[i].inverse(y, _params_of(layers[i], store), out=y)
        # y now holds the forward output of layer i - 1
        if run and i == run[-1]:
            pin = _zeros_of(y)
        if pin is not None and i - 1 == run.start:
            np.copyto(y, 0.0, where=pin)   # the Diff's output: padded times come back as T
    return y


def chain_vjp_cached(cache: ChainCache, cot_z, cot_logdiag, consume: bool = False):
    """Reverse-mode sweep through a cached forward pass.

    ``cot_z`` and ``cot_logdiag`` are cotangents of the two outputs; returns
    ``(grad_params, grad_times)`` with ``grad_params`` flat like the store.

    The sweep keeps one cotangent array ``g`` of its own, and every layer
    writes its input cotangent over it (``vjp(..., out=g)``), never over a
    layer input or record.  Without ``consume`` ``g`` is a copy of ``cot_z``
    and the cache may be read again.  With ``consume`` the sweep is the cache's
    last reader: ``cot_z`` is copied into ``cache.z``, which then serves as
    ``g`` and so ends up holding ``grad_times``; at the end the cache's
    entries are dropped, its workspace is handed on, and a later pass over
    the cache raises ``ValueError``.

    Over the pinned run the sweep masks ``cot_logdiag`` at pinned positions
    and zeroes ``g`` there once, just past the ``Cumsum``'s VJP.
    """
    _check_live(cache)
    spec, store = cache.spec, cache.store
    g_ld_full = np.asarray(cot_logdiag, dtype=np.float64)
    if np.shape(cot_z) != cache.z.shape or g_ld_full.shape != cache.z.shape:
        raise ValueError("cotangent shapes must match the forward output")
    if consume:
        g, cache.z = cache.z, None
        np.copyto(g, cot_z)
    else:
        g = np.array(cot_z, dtype=np.float64, order="C")
    grad = np.zeros_like(store.values)
    pin = next((p for p in cache.pins if p is not None), None)    # the run's one mask
    g_ld_pinned = None if pin is None else np.where(pin, 0.0, g_ld_full)
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        g_ld = g_ld_full if cache.pins[i] is None else g_ld_pinned
        g, g_p = layer.vjp(cache.inputs[i], _params_of(layer, store), g, g_ld,
                           cache.residuals[i], out=g)
        if pin is not None and i == spec.pinned[-1]:
            np.copyto(g, 0.0, where=pin)   # the cotangent of the Cumsum's input
        if g_p is not None:
            grad[store.slices[layer.name]] += g_p
    if consume:
        _hand_on(cache)
    return grad, g


def inverse_jac_t_apply(cache: ChainCache, w):
    """Parameter gradient -(dF/dtheta)^T J_F^-T w of a loss L(t) with
    t = F^{-1}(z), z held fixed, and ``w`` = dL/dt (implicit-function rule).

    A reverse sweep at cot_z = J_F^-T w would hand layer i the cotangent
    u_i = J_i^-T ... J_1^-T w, so this one forward-order walk lets each
    layer's ``inv_jac_t`` map u_{i-1} to u_i over one array and return its
    parameter cotangent at u_i.  It consumes the cache, which must be pin-free.
    """
    _check_live(cache)
    if any(p is not None for p in cache.pins):
        raise ValueError("inverse_jac_t_apply requires a pin-free forward cache")
    spec, store = cache.spec, cache.store
    u = np.array(w, dtype=np.float64, order="C")
    cache.z = None
    grad = np.zeros_like(store.values)
    for i, layer in enumerate(spec.layers):
        u, g_p = layer.inv_jac_t(cache.inputs[i], _params_of(layer, store), u,
                                 cache.residuals[i], out=u)
        if g_p is not None:
            grad[store.slices[layer.name]] -= g_p
    _hand_on(cache)
    return grad


# ---------------------------------------------------------------------------
# one-position-at-a-time inversion (sequential sampling baseline)


class SequentialInverter:
    """Inverts the chain one column at a time, mimicking an autoregressive
    sampler: each call to :meth:`step` takes the next z column, shaped
    ``(batch_size,)``, and returns that column of times, using only the
    columns seen before.  The parameters are read once, at construction, into
    each layer's ``column_inverse`` step: later changes to the store do not count."""

    def __init__(self, spec: TransformSpec, store: ParamStore, batch_size: int):
        self.batch_size = batch_size
        self.pos = 0
        self._steps = [layer.column_inverse(_params_of(layer, store), batch_size)
                       for layer in reversed(spec.layers)]

    def step(self, z_col: np.ndarray) -> np.ndarray:
        v = np.array(z_col, dtype=np.float64)
        if v.shape != (self.batch_size,):
            raise ValueError(f"z column has shape {v.shape}; this inverter takes columns "
                             f"of length {self.batch_size}")
        for step in self._steps:
            v = step(v, self.pos)
        self.pos += 1
        return v
