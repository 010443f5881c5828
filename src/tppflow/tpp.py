"""Point-process density interface over a composed map: masked batched
log-density, parallel inversion sampling with clipping, sigmoid-relaxed masks
and a differentiable entropy estimate."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transforms as tr
from .rng import row_streams
from .seqdata import EventSequence, PaddedBatch, unpad_batch
from .splines import sigmoid
from .transforms import ChainCache, ParamStore, TransformSpec

__all__ = [
    "TppModel",
    "SampleBatch",
    "log_prob",
    "log_prob_grad",
    "draw_extended",
    "inverse_map",
    "sample",
    "sequential_sample",
    "relaxed_mask",
    "entropy_estimate",
]

MAX_EXTENDED = 1 << 20


@dataclass
class TppModel:
    """A point-process density on [0, horizon] defined by a layer chain."""

    spec: TransformSpec
    params: ParamStore
    horizon: float

    def copy(self) -> "TppModel":
        return TppModel(self.spec, self.params.copy(), self.horizon)


@dataclass
class SampleBatch:
    """Inversion-sampling output.

    ``extended`` holds raw inverse-map times (last column of every row is
    >= horizon), ``clipped`` is min(extended, horizon), ``hard_mask`` flags
    events strictly before the horizon and ``soft_mask`` is the sigmoid
    relaxation at temperature gamma (None unless requested).  ``zbar`` is the
    forward map of the clipped rows, so ``zbar[:, -1]`` is the cumulative
    intensity at the horizon.
    """

    extended: np.ndarray
    clipped: np.ndarray
    hard_mask: np.ndarray
    soft_mask: np.ndarray | None
    zbar: np.ndarray
    horizon: float

    def to_batch(self) -> PaddedBatch:
        return PaddedBatch(self.clipped, self.hard_mask, self.horizon)

    def to_sequences(self) -> list[EventSequence]:
        return unpad_batch(self.to_batch())


def _append_horizon(batch: PaddedBatch):
    """One extra horizon column guarantees the last z equals the compensator
    at T even for the longest (padding-free) row."""
    b = batch.times.shape[0]
    times = np.concatenate([batch.times, np.full((b, 1), batch.horizon)], axis=1)
    mask = np.concatenate([batch.mask, np.zeros((b, 1))], axis=1)
    return times, mask


def _row_log_density(mask, logdiag, z):
    """Masked row sums of the log-Jacobian diagonals minus the compensator.

    Rows are summed in column order (pairwise summation would split a row at
    width-dependent points), so trailing padding adds exact zeros and the
    result is bit-for-bit the same at any padded width.
    """
    return np.cumsum(mask * logdiag, axis=1)[:, -1] - z[:, -1]


def log_prob(model: TppModel, batch: PaddedBatch) -> np.ndarray:
    """Per-sequence log density: sum of masked log-Jacobian diagonals minus
    the cumulative intensity at the horizon."""
    if batch.horizon != model.horizon:
        raise ValueError(f"batch horizon {batch.horizon} != model horizon {model.horizon}")
    times, mask = _append_horizon(batch)
    z, logdiag = tr.compose_forward(times, model.spec, model.params)
    return _row_log_density(mask, logdiag, z)


def log_prob_grad(model: TppModel, batch: PaddedBatch):
    """(per-sequence log densities, gradient of their sum w.r.t. parameters)."""
    if batch.horizon != model.horizon:
        raise ValueError(f"batch horizon {batch.horizon} != model horizon {model.horizon}")
    times, mask = _append_horizon(batch)
    cache = tr.compose_forward_cached(times, model.spec, model.params)
    lp = _row_log_density(mask, cache.logdiag, cache.z)
    cot_z = np.zeros_like(cache.z)
    cot_z[:, -1] = -1.0
    grad, _ = tr.chain_vjp_cached(cache, cot_z, mask)
    return lp, grad


def _estimated_count(model: TppModel) -> int:
    """Events before the horizon on one row of unit gaps, z = (1, 2, ..., n).

    The row grows x4 from 64 columns until it passes the horizon (at most
    ``MAX_EXTENDED``); the inverse is prefix-stable, so the count does not
    depend on where the growth stopped.  The forward map of the empty
    history cannot serve here: psi saturates on the single gap [T] and
    psi_inv clamps it, so that estimate never exceeds -log(CLAMP) ~ 27.6.
    """
    n = 64
    while True:
        t = inverse_map(model, np.arange(1.0, n + 1.0))
        if float(t[0, -1]) >= model.horizon or n == MAX_EXTENDED:
            return int(np.count_nonzero(t < model.horizon))
        n = min(4 * n, MAX_EXTENDED)


def _first_width(model: TppModel) -> int:
    """Columns of the first draw: c + 6 sqrt(c) for the estimated count c.

    A row's count is roughly Poisson(c), so a row outlasts the first draw
    with probability ~1e-9; such a row costs one more round, not a result.
    """
    c = _estimated_count(model)
    return min(MAX_EXTENDED, max(64, int(np.ceil(c + 6.0 * np.sqrt(c)))))


def inverse_map(model: TppModel, z) -> np.ndarray:
    """Push unit-rate rows through the inverse chain."""
    return tr.compose_inverse(np.atleast_2d(np.asarray(z, dtype=np.float64)),
                              model.spec, model.params)


def draw_extended(model: TppModel, batch_size: int, seed: int):
    """Unit-rate draws pushed through the inverse map, per-row streams.

    The first draw has ``_first_width`` columns; rows are extended (doubling)
    until every last time reaches the horizon.  A row's stream continues
    where it left off and the inverse is prefix-stable, so the result does
    not depend on the first width or on how many columns other rows forced.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = _first_width(model)
    streams = row_streams(seed, batch_size, 2)
    gaps = np.stack([g.exponential(1.0, size=n) for g in streams])
    while True:
        z = np.cumsum(gaps, axis=1)
        t_ext = tr.compose_inverse(z, model.spec, model.params)
        if float(t_ext[:, -1].min()) >= model.horizon:
            break
        if 2 * n > MAX_EXTENDED:
            raise RuntimeError(f"extended sample length exceeded {MAX_EXTENDED}")
        more = np.stack([g.exponential(1.0, size=n) for g in streams])
        gaps = np.concatenate([gaps, more], axis=1)
        n *= 2
    keep = int((t_ext < model.horizon).sum(axis=1).max()) + 1
    return t_ext[:, :keep], z[:, :keep]


def sample(model: TppModel, batch_size: int, seed: int,
           gamma: float | None = None) -> SampleBatch:
    """Draw sequences by parallel inversion of unit-rate Poisson noise."""
    t_ext, _ = draw_extended(model, batch_size, seed)
    return _finish_sample(model, t_ext, gamma)


def _finish_sample(model: TppModel, t_ext, gamma):
    clipped = np.minimum(t_ext, model.horizon)
    hard = (t_ext < model.horizon).astype(np.float64)
    soft = relaxed_mask(t_ext, model.horizon, gamma) if gamma is not None else None
    zbar, _ = tr.compose_forward(clipped, model.spec, model.params, validate=False)
    return SampleBatch(t_ext, clipped, hard, soft, zbar, model.horizon)


def sequential_sample(model: TppModel, batch_size: int, seed: int,
                      gamma: float | None = None) -> SampleBatch:
    """One-event-at-a-time inversion sampler (autoregressive baseline).

    Distributionally identical to :func:`sample`; exists so the benchmark can
    compare the parallel strategy against sequential generation.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    streams = row_streams(seed, batch_size, 2)
    inverter = tr.SequentialInverter(model.spec, model.params, batch_size)
    z_last = np.zeros(batch_size)
    cols = []
    t_last = np.full(batch_size, -np.inf)
    while float(t_last.min()) < model.horizon:
        if len(cols) >= MAX_EXTENDED:
            raise RuntimeError(f"extended sample length exceeded {MAX_EXTENDED}")
        z_last = z_last + np.array([g.exponential(1.0) for g in streams])
        t_col = inverter.step(z_last)
        cols.append(t_col)
        t_last = np.maximum(t_last, t_col)
    t_ext = np.stack(cols, axis=1)
    keep = int((t_ext < model.horizon).sum(axis=1).max()) + 1
    return _finish_sample(model, t_ext[:, :keep], gamma)


def relaxed_mask(extended_times, horizon: float, gamma: float) -> np.ndarray:
    """Sigmoid relaxation of the indicator 1(t < T): sigma((T - t) / gamma)."""
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    return sigmoid((horizon - np.asarray(extended_times, dtype=np.float64)) / gamma)


# ---------------------------------------------------------------------------
# differentiable functionals of samples


@dataclass
class SamplePaths:
    """Caches tying a sample to both forward passes used by sampling losses."""

    model: TppModel
    t_ext: np.ndarray
    clipped: np.ndarray
    hard_mask: np.ndarray
    soft_mask: np.ndarray | None
    gamma: float | None       # temperature of soft_mask
    cache_ext: ChainCache     # forward at the extended times (log-Jacobian)
    cache_clip: ChainCache    # forward at the clipped times (compensator)

    @property
    def jext(self):
        return self.cache_ext.logdiag

    @property
    def zbar(self):
        return self.cache_clip.z


def prepare_paths(model: TppModel, t_ext, gamma: float | None) -> SamplePaths:
    clipped = np.minimum(t_ext, model.horizon)
    hard = (t_ext < model.horizon).astype(np.float64)
    soft = relaxed_mask(t_ext, model.horizon, gamma) if gamma is not None else None
    cache_ext = tr.compose_forward_cached(t_ext, model.spec, model.params, validate=False)
    cache_clip = tr.compose_forward_cached(clipped, model.spec, model.params, validate=False)
    return SamplePaths(model, np.asarray(t_ext, dtype=np.float64), clipped, hard, soft, gamma,
                       cache_ext, cache_clip)


def path_log_density(paths: SamplePaths, relaxed: bool) -> np.ndarray:
    """log q(t) of each sampled row: masked log-diagonals minus compensator."""
    m = paths.soft_mask if relaxed else paths.hard_mask
    return _row_log_density(m, paths.jext, paths.zbar)


def path_gradients(paths: SamplePaths, g_mask=None, g_tclip=None, g_jext=None, g_zbar=None):
    """Parameter gradient of a scalar functional of a sample.

    The caller supplies cotangents w.r.t. the soft mask, the clipped times,
    the extended log-Jacobian diagonal and the clipped forward map; the mask
    derivative and reparametrization through the inverse map are handled
    here.
    """
    shape = paths.t_ext.shape
    grad = np.zeros_like(paths.model.params.values)
    if g_mask is None:
        g_t = np.zeros(shape)
    else:
        # d soft_mask / d t = -sigma'((T - t) / gamma) / gamma
        s = paths.soft_mask
        g_t = g_mask * (-s * (1.0 - s) / paths.gamma)
    g_clip_total = np.zeros(shape) if g_tclip is None else np.asarray(g_tclip, dtype=np.float64)

    if g_zbar is not None:
        gp, gt = tr.chain_vjp_cached(paths.cache_clip, g_zbar, np.zeros(shape))
        grad += gp
        g_clip_total = g_clip_total + gt
    if g_jext is not None:
        gp, gt = tr.chain_vjp_cached(paths.cache_ext, np.zeros(shape), g_jext)
        grad += gp
        g_t += gt
    # clipping passes gradients only where the sample stayed inside [0, T]
    g_t += g_clip_total * paths.hard_mask
    if np.any(g_t):
        u = tr.inverse_jac_t_apply(paths.cache_ext, g_t)
        gp, _ = tr.chain_vjp_cached(paths.cache_ext, u, np.zeros(shape))
        grad -= gp
    return grad


def entropy_estimate(model: TppModel, n_samples: int, gamma: float, seed: int = 0,
                     draws: np.ndarray | None = None, relaxed: bool = True):
    """Monte Carlo entropy -E[log q(t)] and its parameter gradient.

    ``draws`` fixes the unit-rate rows (for oracle tests); otherwise
    ``n_samples`` rows are drawn.  The relaxed estimator weights the
    log-Jacobian sum with sigmoid masks at temperature ``gamma`` and is
    differentiable everywhere; the hard estimator uses the exact indicators,
    so it jumps whenever a parameter change pushes an event across the
    horizon and its gradient ignores those jump locations.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if draws is None:
        t_ext, _ = draw_extended(model, n_samples, seed)
    else:
        z = np.atleast_2d(np.asarray(draws, dtype=np.float64))
        t_ext = tr.compose_inverse(z, model.spec, model.params)
    paths = prepare_paths(model, t_ext, gamma)
    b = t_ext.shape[0]
    value = -float(path_log_density(paths, relaxed).mean())

    m = paths.soft_mask if relaxed else paths.hard_mask
    g_jext = -m / b
    g_zbar = np.zeros_like(t_ext)
    g_zbar[:, -1] = 1.0 / b
    g_mask = -paths.jext / b if relaxed else None
    grad = path_gradients(paths, g_mask=g_mask, g_jext=g_jext, g_zbar=g_zbar)
    return value, grad
