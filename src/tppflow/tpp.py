"""Point-process density interface over a composed map: masked batched
log-density, parallel inversion sampling with clipping, sigmoid-relaxed masks
and a differentiable entropy estimate."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import transforms as tr
from .rng import row_exponentials, row_streams
from .seqdata import EventSequence, PaddedBatch, unpad_batch
from .splines import _BLOCK, sigmoid
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
# Gaps drawn per row stream at a time by sequential_sample.  Streams are
# local to the call, so drawing ahead leaves every used draw unchanged.
_GAP_BLOCK = 64
# First widths kept, one per model: a VI step samples 1, and training adds 1 per
# step.  Each retains its key (8 B per parameter), the values' bytes, not their
# id: callers edit ``params.values`` in place.
_WIDTH_MEMO = 16


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
    >= horizon), ``clipped`` is min(extended, horizon) and ``hard_mask`` flags
    events strictly before the horizon.  Relaxed masks and the compensator
    at the horizon come from :func:`prepare_paths`.
    """

    extended: np.ndarray
    clipped: np.ndarray
    hard_mask: np.ndarray
    horizon: float

    def to_batch(self) -> PaddedBatch:
        return PaddedBatch(self.clipped, self.hard_mask, self.horizon)

    def to_sequences(self) -> list[EventSequence]:
        return unpad_batch(self.to_batch())


def _append_horizon(rows, value):
    """``rows`` with one more column, filled with ``value``.

    The horizon appended to the times guarantees that the last z equals the
    compensator at T even for the longest (padding-free) row; a zero
    appended to the mask leaves that column out of the row densities.
    Callers build the mask after the forward pass has dropped the times.
    """
    out = np.empty((rows.shape[0], rows.shape[1] + 1))
    out[:, :-1] = rows
    out[:, -1] = value
    return out


def _row_log_density(mask, logdiag, z):
    """Masked row sums of the log-Jacobian diagonals minus the compensator.

    Rows are summed in column order (pairwise summation would split a row at
    width-dependent points), so trailing padding adds exact zeros and the
    result is bit-for-bit the same at any padded width.  The sum runs over
    blocks of columns, each block's cumulative sum carrying on from the last.
    """
    step = max(1, _BLOCK // max(logdiag.shape[0], 1))
    total = None
    for start in range(0, logdiag.shape[1], step):
        part = mask[:, start:start + step] * logdiag[:, start:start + step]
        if total is not None:
            part[:, 0] += total
        total = np.cumsum(part, axis=1, out=part)[:, -1]
    return total - z[:, -1]


def _last_column(shape, value):
    """Read-only rows of zeros with ``value`` in the last column: the
    cotangent of a compensator read off the last z."""
    row = np.zeros(shape[-1])
    row[-1] = value
    return np.broadcast_to(row, shape)


def log_prob(model: TppModel, batch: PaddedBatch) -> np.ndarray:
    """Per-sequence log density: sum of masked log-Jacobian diagonals minus
    the cumulative intensity at the horizon."""
    if batch.horizon != model.horizon:
        raise ValueError(f"batch horizon {batch.horizon} != model horizon {model.horizon}")
    z, logdiag = tr.compose_forward(_append_horizon(batch.times, batch.horizon),
                                    model.spec, model.params)
    return _row_log_density(_append_horizon(batch.mask, 0.0), logdiag, z)


def log_prob_grad(model: TppModel, batch: PaddedBatch):
    """(per-sequence log densities, gradient of their sum w.r.t. parameters)."""
    if batch.horizon != model.horizon:
        raise ValueError(f"batch horizon {batch.horizon} != model horizon {model.horizon}")
    cache = tr.compose_forward_cached(_append_horizon(batch.times, batch.horizon),
                                      model.spec, model.params)
    mask = _append_horizon(batch.mask, 0.0)
    lp = _row_log_density(mask, cache.logdiag, cache.z)
    grad, _ = tr.chain_vjp_cached(cache, _last_column(mask.shape, -1.0), mask, consume=True)
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
    """Columns of the first draw: c + 6 sqrt(c) for the estimated count c, plus one past T.

    A row's count is roughly Poisson(c), so a row outlasts the first draw
    with probability ~1e-9; such a row costs one more round, not a result.
    """
    p = model.params
    return _pilot_width(model.spec, model.horizon, p.names, tuple(
        (n, s.start, s.stop) for n, s in p.slices.items()), np.asarray(p.values, float).tobytes())


@functools.lru_cache(maxsize=_WIDTH_MEMO)
def _pilot_width(spec, horizon, names, bounds, values: bytes) -> int:
    store = ParamStore(names, {n: slice(*b) for n, *b in bounds}, np.frombuffer(values))
    c = _estimated_count(TppModel(spec, store, horizon))
    return min(MAX_EXTENDED, int(np.ceil(c + 6.0 * np.sqrt(c))) + 1)


def inverse_map(model: TppModel, z) -> np.ndarray:
    """Push unit-rate rows through the inverse chain."""
    return tr.compose_inverse(np.atleast_2d(np.asarray(z, dtype=np.float64)),
                              model.spec, model.params)


def draw_extended(model: TppModel, batch_size: int, seed: int):
    """Unit-rate draws pushed through the inverse map, per-row streams.

    The first draw has ``_first_width`` columns; rows are extended (doubling)
    until every last time reaches the horizon.  An extension redraws each row
    from its start, so its first columns come back unchanged, and the inverse
    is prefix-stable: the result does not depend on the first width or on how
    many columns other rows forced.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = _first_width(model)
    while True:
        z = np.cumsum(row_exponentials(seed, batch_size, n, 2), axis=1)
        t_ext = tr.compose_inverse(z, model.spec, model.params)
        if float(t_ext[:, -1].min()) >= model.horizon:
            break
        if 2 * n > MAX_EXTENDED:
            raise RuntimeError(f"extended sample length exceeded {MAX_EXTENDED}")
        n *= 2
    keep = int((t_ext < model.horizon).sum(axis=1).max()) + 1
    return t_ext[:, :keep], z[:, :keep]


def sample(model: TppModel, batch_size: int, seed: int) -> SampleBatch:
    """Draw sequences by parallel inversion of unit-rate Poisson noise."""
    t_ext, _ = draw_extended(model, batch_size, seed)
    return _finish_sample(model, t_ext)


def _finish_sample(model: TppModel, t_ext) -> SampleBatch:
    return SampleBatch(t_ext, np.minimum(t_ext, model.horizon),
                       (t_ext < model.horizon).astype(np.float64), model.horizon)


def sequential_sample(model: TppModel, batch_size: int, seed: int) -> SampleBatch:
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
        j = len(cols) % _GAP_BLOCK
        if j == 0:
            gaps = np.stack([g.exponential(1.0, size=_GAP_BLOCK) for g in streams], axis=1)
        z_last = z_last + gaps[j]
        t_col = inverter.step(z_last)
        cols.append(t_col)
        t_last = np.maximum(t_last, t_col)
    t_ext = np.stack(cols, axis=1)
    keep = int((t_ext < model.horizon).sum(axis=1).max()) + 1
    return _finish_sample(model, t_ext[:, :keep])


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


def prepare_paths(model: TppModel, t_ext, gamma: float | None) -> SamplePaths:
    smp = _finish_sample(model, np.asarray(t_ext, dtype=np.float64))
    soft = relaxed_mask(smp.extended, model.horizon, gamma) if gamma is not None else None
    cache_ext = tr.compose_forward_cached(smp.extended, model.spec, model.params, validate=False)
    cache_clip = tr.compose_forward_cached(smp.clipped, model.spec, model.params, validate=False)
    return SamplePaths(model, smp.extended, smp.clipped, smp.hard_mask, soft, gamma,
                       cache_ext, cache_clip)


def draw_paths(model: TppModel, n_samples: int, gamma: float, seed: int = 0,
               draws: np.ndarray | None = None) -> SamplePaths:
    """Check the arguments of a sampling loss, then draw ``n_samples`` rows
    (or push the fixed unit-rate rows ``draws`` through the inverse map) and
    prepare both forward passes over them."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if draws is None:
        t_ext, _ = draw_extended(model, n_samples, seed)
    else:
        t_ext = inverse_map(model, draws)
    return prepare_paths(model, t_ext, gamma)


def path_log_density(paths: SamplePaths, relaxed: bool) -> np.ndarray:
    """log q(t) of each sampled row: masked log-diagonals minus compensator."""
    m = paths.soft_mask if relaxed else paths.hard_mask
    return _row_log_density(m, paths.cache_ext.logdiag, paths.cache_clip.z)


def path_gradients(paths: SamplePaths, relaxed: bool, g_mask=None, g_tclip=None):
    """Parameter gradient of mean_r(f_r - log q_r) over the sampled rows.

    log q_r is :func:`path_log_density` with the same ``relaxed``; its
    cotangents are built here.  The caller passes only those of its own
    per-row term f_r, not divided by the row count: ``g_mask`` w.r.t. the
    soft mask (relaxed only) and ``g_tclip`` w.r.t. the clipped times, each
    ``None`` where f_r does not depend on it.  The mean, the mask derivative
    and the reparametrization through the inverse map are handled here.

    This is the last reader of both caches and consumes them: ``cache_clip``
    at its one reverse sweep, ``cache_ext`` at the second of its two, the
    forward-order walk of :func:`tppflow.transforms.inverse_jac_t_apply`.
    Read ``path_log_density`` first; a second call on the same ``paths``
    raises ``ValueError``.
    """
    if g_mask is not None and not relaxed:
        raise ValueError("g_mask is a soft-mask cotangent and needs relaxed=True")
    shape = paths.t_ext.shape
    inv_b = 1.0 / shape[0]
    # log q = sum_j m_j log J_ext,j - Lambda(T), Lambda(T) the last clipped z
    grad, g_clip = tr.chain_vjp_cached(paths.cache_clip, _last_column(shape, inv_b),
                                       np.zeros(shape), consume=True)
    if g_tclip is not None:
        g_clip += g_tclip * inv_b
    m = paths.soft_mask if relaxed else paths.hard_mask
    gp, g_t = tr.chain_vjp_cached(paths.cache_ext, np.zeros(shape), -(m * inv_b))
    grad += gp
    if relaxed:
        jext = paths.cache_ext.logdiag
        g_m = -jext if g_mask is None else g_mask - jext
        # d soft_mask / d t = -sigma'((T - t) / gamma) / gamma
        s = paths.soft_mask
        g_t += g_m * inv_b * (-s * (1.0 - s) / paths.gamma)
    # clipping passes gradients only where the sample stayed inside [0, T]
    g_t += g_clip * paths.hard_mask
    grad += tr.inverse_jac_t_apply(paths.cache_ext, g_t)
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
    paths = draw_paths(model, n_samples, gamma, seed, draws)
    value = -float(path_log_density(paths, relaxed).mean())
    return value, path_gradients(paths, relaxed)
