"""Invertible layer chain for increasing triangular maps on event-time batches.

A chain maps a batch of non-decreasing time rows to non-decreasing rows of
cumulative intensity, together with the log-diagonal of the (lower
triangular) Jacobian.  Every layer has a closed-form forward, inverse and
vector-Jacobian product, so densities, samples and gradients never touch an
autodiff framework.  A layer's ``forward`` returns its output, its
log-diagonal and a record its ``vjp`` and ``inv_jac_t`` can reuse (a
spline's bins and intermediates, the sigmoid bridge's output; ``None`` for
every other layer).

Padding semantics: rows are padded by repeating the horizon, which makes the
padded inter-event gaps exactly zero.  Gap-space layers pin those zero gaps
through the chain (a zero gap maps to a zero increment for every parameter
value), so appending more padding never changes a result by even one bit.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import solve_triangular

from . import splines as sp
from .splines import RqsSpline, reversed_cumsum, sigmoid

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
    "chain_vjp",
    "chain_vjp_cached",
    "inverse_jac_t_apply",
    "SequentialInverter",
]

CLAMP = 1e-12          # round-off guard for inputs of psi_inv / logit


class DomainError(ValueError):
    """An intermediate value left the domain of a layer."""

    def __init__(self, layer: str, message: str):
        super().__init__(f"layer '{layer}': {message}")
        self.layer = layer


# ---------------------------------------------------------------------------
# primitive vector operations


def pairwise_diff(x: np.ndarray) -> np.ndarray:
    """Row-wise adjacent differences, first element kept; inverse of cumsum."""
    x = np.asarray(x, dtype=np.float64)
    y = x.copy()
    y[..., 1:] -= x[..., :-1]
    return y


def _diff_t(x: np.ndarray) -> np.ndarray:
    """Transpose of the row-wise adjacent difference."""
    u = x.copy()
    u[..., :-1] -= x[..., 1:]
    return u


# ---------------------------------------------------------------------------
# layers


@dataclass(frozen=True)
class Spline:
    """Elementwise rational quadratic spline (see :mod:`tppflow.splines`)."""

    name: str
    n_knots: int

    force_fwd = True
    force_inv = True

    @property
    def rqs(self) -> RqsSpline:
        return RqsSpline(self.n_knots)

    @property
    def n_params(self) -> int:
        return self.rqs.n_params

    def forward(self, x, p):
        return sp.forward(self.rqs, p, x)

    def inverse(self, y, p):
        return sp.inverse(self.rqs, p, y)

    def vjp(self, x, p, g_y, g_ld, res=None):
        return sp.vjp(self.rqs, p, x, g_y, g_ld, res=res)

    def inv_jac_t(self, x, p, w, res=None):
        return sp.inv_jac_t(self.rqs, p, x, w, res=res)


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

    force_fwd = False
    force_inv = False

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
        h = self.size
        b = np.zeros((h, h))
        b[np.diag_indices(h)] = np.exp(p[:h])
        b[np.tril_indices(h, -1)] = p[h:]
        return b

    def _pad_widths(self, n):
        h = self.size
        left = (h - self.offset) % h
        right = (h - (left + n) % h) % h
        return left, right

    def _chunk(self, x):
        left, right = self._pad_widths(x.shape[-1])
        xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(left, right)])
        return xp.reshape(x.shape[:-1] + (-1, self.size)), left

    def forward(self, x, p):
        b = self.matrix(p)
        chunks, left = self._chunk(x)
        y = np.einsum("ij,...nj->...ni", b, chunks)
        n = x.shape[-1]
        y = y.reshape(x.shape[:-1] + (-1,))[..., left:left + n]
        pos = (np.arange(n) + left) % self.size
        ld = np.broadcast_to(p[:self.size][pos], x.shape).copy()
        return y, ld, None

    def inverse(self, y, p):
        b = self.matrix(p)
        chunks, left = self._chunk(y)
        flat = chunks.reshape(-1, self.size)
        x = solve_triangular(b, flat.T, lower=True).T
        n = y.shape[-1]
        return x.reshape(y.shape[:-1] + (-1,))[..., left:left + n]

    def vjp(self, x, p, g_y, g_ld, res=None):
        b = self.matrix(p)
        h = self.size
        xc, left = self._chunk(x)
        gc, _ = self._chunk(g_y)
        g_x = np.einsum("ij,...ni->...nj", b, gc)
        n = x.shape[-1]
        g_x = g_x.reshape(x.shape[:-1] + (-1,))[..., left:left + n]
        g_b = gc.reshape(-1, h).T @ xc.reshape(-1, h)
        g_p = np.zeros_like(p)
        g_p[:h] = np.diag(g_b) * np.diag(b)
        g_p[h:] = g_b[np.tril_indices(h, -1)]
        pos = (np.arange(n) + left) % h
        g_p[:h] += np.bincount(pos, weights=g_ld.reshape(-1, n).sum(axis=0), minlength=h)
        return g_x, g_p

    def inv_jac_t(self, x, p, w, res=None):
        b = self.matrix(p)
        chunks, left = self._chunk(w)
        flat = chunks.reshape(-1, self.size)
        u = solve_triangular(b.T, flat.T, lower=False).T
        n = w.shape[-1]
        return u.reshape(w.shape[:-1] + (-1,))[..., left:left + n]


@dataclass(frozen=True)
class Scale:
    """Learnable positive scalar scale, stored as a log."""

    name: str

    force_fwd = True
    force_inv = True
    n_params = 1

    def forward(self, x, p):
        s = np.exp(p[0])
        return s * x, np.full_like(x, p[0]), None

    def inverse(self, y, p):
        return y * np.exp(-p[0])

    def vjp(self, x, p, g_y, g_ld, res=None):
        s = np.exp(p[0])
        g_p = np.array([s * float((g_y * x).sum()) + float(g_ld.sum())])
        return s * g_y, g_p

    def inv_jac_t(self, x, p, w, res=None):
        return w * np.exp(-p[0])


@dataclass(frozen=True)
class FixedScale:
    """Constant positive scale (e.g. 1/T), no parameters."""

    value: float

    force_fwd = True
    force_inv = True
    n_params = 0
    name = None

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError(f"scale must be > 0, got {self.value}")

    def forward(self, x, p):
        return self.value * x, np.full_like(x, np.log(self.value)), None

    def inverse(self, y, p):
        return y / self.value

    def vjp(self, x, p, g_y, g_ld, res=None):
        return self.value * g_y, None

    def inv_jac_t(self, x, p, w, res=None):
        return w / self.value


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

    @property
    def force_fwd(self):
        return self.kind != "logit"   # logit output lives in R

    @property
    def force_inv(self):
        return self.kind != "sigmoid"  # sigmoid input lives in R

    def forward(self, x, p):
        k = self.kind
        if k == "psi":
            if x.size and float(x.min()) < -1e-9:
                raise DomainError("psi", f"input must be >= 0, min was {float(x.min()):g}")
            return -np.expm1(-x), -x, None
        if k == "sigmoid":
            # log sigmoid'(x) = log s + log(1 - s), free of cancellation;
            # s is also the record that vjp and inv_jac_t read
            ax = np.abs(x)
            s = sigmoid(x)
            return s, -ax - 2.0 * np.log1p(np.exp(-ax)), s
        if x.size:
            lo, hi = float(x.min()), float(x.max())
            if lo < -1e-9 or hi > 1.0 + 1e-9:
                raise DomainError(k, f"input must lie in (0, 1), range was [{lo:g}, {hi:g}]")
        xc = np.clip(x, CLAMP, 1.0 - CLAMP)
        if k == "psi_inv":
            y = -np.log1p(-xc)
            return y, y, None
        log_x, log_1mx = np.log(xc), np.log1p(-xc)
        return log_x - log_1mx, -log_x - log_1mx, None

    def inverse(self, y, p):
        k = self.kind
        if k == "psi":
            yc = np.clip(y, CLAMP, 1.0 - CLAMP)
            return -np.log1p(-yc)
        if k == "psi_inv":
            return -np.expm1(-y)
        if k == "sigmoid":
            yc = np.clip(y, CLAMP, 1.0 - CLAMP)
            return np.log(yc) - np.log1p(-yc)
        return sigmoid(y)

    def vjp(self, x, p, g_y, g_ld, res=None):
        k = self.kind
        if k == "psi":
            return g_y * np.exp(-x) - g_ld, None
        if k == "psi_inv":
            d = 1.0 / (1.0 - np.clip(x, CLAMP, 1.0 - CLAMP))
            return (g_y + g_ld) * d, None
        if k == "sigmoid":
            s = sigmoid(x) if res is None else res
            return g_y * s * (1.0 - s) + g_ld * (1.0 - 2.0 * s), None
        xc = np.clip(x, CLAMP, 1.0 - CLAMP)
        return (g_y + g_ld * (2.0 * xc - 1.0)) / (xc * (1.0 - xc)), None

    def inv_jac_t(self, x, p, w, res=None):
        k = self.kind
        if k == "psi":
            return w * np.exp(x)
        if k == "psi_inv":
            return w * (1.0 - np.clip(x, CLAMP, 1.0 - CLAMP))
        if k == "sigmoid":
            s = sigmoid(x) if res is None else res
            return w / (s * (1.0 - s))
        xc = np.clip(x, CLAMP, 1.0 - CLAMP)
        return w * xc * (1.0 - xc)


@dataclass(frozen=True)
class Cumsum:
    """Row-wise cumulative sum (unit-diagonal Jacobian)."""

    n_params = 0
    name = None
    force_fwd = False
    force_inv = False

    def forward(self, x, p):
        return np.cumsum(x, axis=-1), np.zeros_like(x), None

    def inverse(self, y, p):
        return pairwise_diff(y)

    def vjp(self, x, p, g_y, g_ld, res=None):
        return reversed_cumsum(g_y), None

    def inv_jac_t(self, x, p, w, res=None):
        return _diff_t(w)


@dataclass(frozen=True)
class Diff:
    """Row-wise adjacent difference (unit-diagonal Jacobian); inverse of Cumsum."""

    n_params = 0
    name = None
    force_fwd = True   # zero gaps stay exactly zero
    force_inv = False

    def forward(self, x, p):
        return pairwise_diff(x), np.zeros_like(x), None

    def inverse(self, y, p):
        return np.cumsum(y, axis=-1)

    def vjp(self, x, p, g_y, g_ld, res=None):
        return _diff_t(g_y), None

    def inv_jac_t(self, x, p, w, res=None):
        return reversed_cumsum(w)


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
    """Ordered layer chain; ``layers[0]`` is applied to the times first."""

    layers: tuple

    def __post_init__(self):
        names = [l.name for l in self.layers if l.n_params > 0]
        if len(names) != len(set(names)):
            raise ValueError(f"learnable layer names must be unique, got {names}")

    def to_dict(self) -> dict:
        return {"layers": [{"kind": _LAYER_KINDS[type(l)],
                            **{_field_key(f): getattr(l, f.name) for f in fields(l)}}
                           for l in self.layers]}

    @classmethod
    def from_dict(cls, d: dict) -> "TransformSpec":
        layers = []
        for rec in d["layers"]:
            layer_cls = _LAYER_CLASSES.get(rec["kind"])
            if layer_cls is None:
                raise ValueError(f"unknown layer kind {rec['kind']!r}")
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
    inputs: list            # per layer input matrix
    residuals: list         # per layer forward record for its vjp (or None)
    pins: list              # per layer pin mask active at the layer OUTPUT (or None)
    z: np.ndarray
    logdiag: np.ndarray


def _validate_rows(x, what):
    if x.size == 0:
        return
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")
    if float(x[..., 0].min()) < 0:
        raise ValueError(f"{what} must be non-negative")
    if np.any(x[..., 1:] < x[..., :-1]):
        raise ValueError(f"{what} rows must be non-decreasing")


def _run_forward(times, spec, store, validate, keep=False):
    """Forward pass; with ``keep`` the layer inputs and forward records are
    returned for a VJP, otherwise each is dropped once its layer has run."""
    x = np.atleast_2d(np.asarray(times, dtype=np.float64))
    if keep:
        x = x.copy()    # the cache must not alias the caller's array
    if validate:
        _validate_rows(x, "times")
    logdiag = np.zeros_like(x)
    inputs, residuals, pins = [], [], []
    pin = None
    for layer in spec.layers:
        p = _params_of(layer, store)
        y, ld, res = layer.forward(x, p)
        if isinstance(layer, Diff):
            pin = y == 0.0
            if not pin.any():
                pin = None
        if pin is not None:
            # y and ld are fresh arrays of this layer, so pin them in place
            if layer.force_fwd:
                np.copyto(y, 0.0, where=pin)
            np.copyto(ld, 0.0, where=pin)
        if keep:
            inputs.append(x)
            residuals.append(res)
        pins.append(pin)
        logdiag += ld
        x = y
        if isinstance(layer, Cumsum):
            pin = None
    return x, logdiag, inputs, pins, residuals


def compose_forward(batch_times, spec: TransformSpec, store: ParamStore, validate: bool = True):
    """Map padded time rows through the chain.

    Returns ``(z, logdiag)`` where ``z`` holds the cumulative-intensity rows
    and ``logdiag`` the per-position log Jacobian diagonal.
    """
    z, logdiag, _, _, _ = _run_forward(batch_times, spec, store, validate)
    return z, logdiag


def compose_forward_cached(batch_times, spec, store, validate: bool = True) -> ChainCache:
    z, logdiag, inputs, pins, residuals = _run_forward(batch_times, spec, store, validate, keep=True)
    return ChainCache(spec, store, inputs, residuals, pins, z, logdiag)


def compose_inverse(z, spec: TransformSpec, store: ParamStore, validate: bool = True):
    """Invert the chain: cumulative-intensity rows back to time rows."""
    y = np.atleast_2d(np.asarray(z, dtype=np.float64)).copy()
    if validate:
        _validate_rows(y, "z")
    pin = None
    for layer in reversed(spec.layers):
        p = _params_of(layer, store)
        x = layer.inverse(y, p)
        if isinstance(layer, Cumsum):
            pin = x == 0.0
            if not pin.any():
                pin = None
        if pin is not None and layer.force_inv:
            x = np.where(pin, 0.0, x)
        y = x
        if isinstance(layer, Diff):
            pin = None
    return y


def chain_vjp_cached(cache: ChainCache, cot_z, cot_logdiag):
    """Reverse-mode sweep through a cached forward pass.

    ``cot_z`` and ``cot_logdiag`` are cotangents of the two outputs; returns
    ``(grad_params, grad_times)`` with ``grad_params`` flat like the store.
    """
    spec, store = cache.spec, cache.store
    g = np.array(cot_z, dtype=np.float64, copy=True)
    g_ld_full = np.asarray(cot_logdiag, dtype=np.float64)
    if g.shape != cache.z.shape or g_ld_full.shape != cache.z.shape:
        raise ValueError("cotangent shapes must match the forward output")
    grad = np.zeros_like(store.values)
    masked_pin, g_ld_masked = None, None
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        pin = cache.pins[i]
        if pin is None:
            g_ld = g_ld_full
        else:
            if pin is not masked_pin:     # one pin mask serves a run of layers
                masked_pin, g_ld_masked = pin, np.where(pin, 0.0, g_ld_full)
            g_ld = g_ld_masked
            if layer.force_fwd:
                np.copyto(g, 0.0, where=pin)   # a copy of cot_z or a fresh layer output
        p = _params_of(layer, store)
        g, g_p = layer.vjp(cache.inputs[i], p, g, g_ld, cache.residuals[i])
        if g_p is not None:
            grad[store.slices[layer.name]] += g_p
    return grad, g


def chain_vjp(batch_times, spec, store, cot_z, cot_logdiag, validate: bool = True):
    """Gradients of ``sum(cot_z * z) + sum(cot_logdiag * logdiag)``."""
    cache = compose_forward_cached(batch_times, spec, store, validate)
    return chain_vjp_cached(cache, cot_z, cot_logdiag)


def inverse_jac_t_apply(cache: ChainCache, w):
    """Apply the inverse transposed chain Jacobian to a times-cotangent.

    Used for reparametrized sampling gradients: for a loss L(t) with
    t = F^{-1}(z), ``grad_params = -chain_vjp(cot_z=u)`` where
    ``u = J_F^{-T} dL/dt``.  Only valid for caches without pinned positions.
    """
    if any(p is not None for p in cache.pins):
        raise ValueError("inverse_jac_t_apply requires a pin-free forward cache")
    u = np.array(w, dtype=np.float64, copy=True)
    for layer, x, res in zip(cache.spec.layers, cache.inputs, cache.residuals):
        u = layer.inv_jac_t(x, _params_of(layer, cache.store), u, res)
    return u


# ---------------------------------------------------------------------------
# one-position-at-a-time inversion (sequential sampling baseline)


class SequentialInverter:
    """Inverts the chain one column at a time, mimicking an autoregressive
    sampler: each call to :meth:`step` consumes one z column and emits one
    time column, using only previously seen columns.

    Spline knots and block matrices are built once, from the parameters the
    store holds at construction."""

    def __init__(self, spec: TransformSpec, store: ParamStore, batch_size: int):
        self.spec = spec
        self.store = store
        self.b = batch_size
        self.pos = 0
        self._state = {}
        self._const = {}
        for i, layer in enumerate(spec.layers):
            if isinstance(layer, Cumsum):
                self._state[i] = np.zeros(batch_size)          # previous output column
            elif isinstance(layer, Diff):
                self._state[i] = np.zeros(batch_size)          # previous input column
            elif isinstance(layer, BlockDiag):
                self._state[i] = np.zeros((batch_size, layer.size))  # inputs of the current block
                self._const[i] = layer.matrix(_params_of(layer, store))
            elif isinstance(layer, Spline):
                self._const[i] = (layer.rqs, sp.make_knots(layer.rqs, _params_of(layer, store)))

    def step(self, z_col: np.ndarray) -> np.ndarray:
        v = np.asarray(z_col, dtype=np.float64).copy()
        j = self.pos
        for i in range(len(self.spec.layers) - 1, -1, -1):
            layer = self.spec.layers[i]
            if isinstance(layer, Cumsum):
                prev = self._state[i]
                self._state[i] = v.copy()
                v = v - prev
            elif isinstance(layer, Diff):
                v = v + self._state[i]
                self._state[i] = v.copy()
            elif isinstance(layer, BlockDiag):
                h = layer.size
                r = (j - layer.offset) % h
                if r == 0:
                    self._state[i][:] = 0.0
                buf = self._state[i]
                bm = self._const[i]
                v = (v - buf[:, :r] @ bm[r, :r]) / bm[r, r]
                buf[:, r] = v
            elif isinstance(layer, Spline):
                rqs, knots = self._const[i]
                v = sp.inverse(rqs, None, v, knots=knots)
            else:
                v = layer.inverse(v.reshape(-1, 1), _params_of(layer, self.store)).ravel()
        self.pos += 1
        return v
