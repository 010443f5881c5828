"""Evaluation metrics: counting-measure distance, MMD with a Gaussian kernel
over that distance, 1-Wasserstein distance between length distributions, and
a one-sample Kolmogorov-Smirnov check against the unit exponential."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .seqdata import EventSequence, pad_batch

__all__ = [
    "MmdConfig",
    "counting_distance",
    "distance_matrix",
    "mmd",
    "wasserstein_lengths",
    "ks_exp1",
]


@dataclass(frozen=True)
class MmdConfig:
    """Kernel bandwidth: the pooled median heuristic unless ``sigma`` is set."""

    sigma: float | None = None

    def __post_init__(self):
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError(f"fixed sigma must be > 0, got {self.sigma}")


def counting_distance(t: EventSequence, u: EventSequence, horizon: float | None = None) -> float:
    """sum_i |t_i - u_i| over shared indices plus (T - u_i) for the extras."""
    if horizon is None:
        horizon = t.horizon
    if t.horizon != u.horizon or t.horizon != horizon:
        raise ValueError("sequences must share the horizon of the comparison")
    a, b = t.times, u.times
    if a.size > b.size:
        a, b = b, a
    n = a.size
    return float(np.abs(a - b[:n]).sum() + (horizon - b[n:]).sum())


def distance_matrix(setA: list[EventSequence], setB: list[EventSequence]) -> np.ndarray:
    """All pairwise counting distances.

    Padding both sets with T to one width makes the distance the L1 norm of
    the difference of two padded rows.
    """
    rows = pad_batch(setA + setB).times
    return cdist(rows[:len(setA)], rows[len(setA):], "cityblock")


def mmd(setA: list[EventSequence], setB: list[EventSequence],
        config: MmdConfig = MmdConfig()) -> float:
    """Biased (V-statistic) squared MMD estimate with a Gaussian kernel.

    The V-statistic keeps the diagonal terms, so mmd(X, X) is exactly zero.
    The median heuristic pools the pairwise distances of the union of both
    sets.
    """
    if not setA or not setB:
        raise ValueError("both sample sets must be non-empty")
    horizons = {s.horizon for s in setA} | {s.horizon for s in setB}
    if len(horizons) != 1:
        raise ValueError("all sequences must share one horizon")
    daa = distance_matrix(setA, setA)
    dbb = distance_matrix(setB, setB)
    dab = distance_matrix(setA, setB)
    if config.sigma is not None:
        sigma = config.sigma
    else:
        # pairwise distances of the pooled set = within-A, within-B, across
        pooled = np.concatenate([
            daa[np.triu_indices(len(setA), k=1)],
            dbb[np.triu_indices(len(setB), k=1)],
            dab.ravel(),
        ])
        sigma = float(np.median(pooled)) if pooled.size else 1.0
        if sigma <= 0:
            sigma = 1.0
    c = -0.5 / (sigma * sigma)
    return float(np.exp(c * daa).mean() - 2.0 * np.exp(c * dab).mean()
                 + np.exp(c * dbb).mean())


def wasserstein_lengths(datasetA: list[EventSequence], datasetB: list[EventSequence]) -> float:
    """1-Wasserstein distance between the empirical length distributions."""
    if not datasetA or not datasetB:
        raise ValueError("both datasets must be non-empty")
    a = np.sort([len(s) for s in datasetA]).astype(np.float64)
    b = np.sort([len(s) for s in datasetB]).astype(np.float64)
    # integral of |F_A - F_B| over the merged support
    values = np.concatenate([a, b])
    values.sort(kind="mergesort")
    deltas = np.diff(values)
    cdf_a = np.searchsorted(a, values[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, values[:-1], side="right") / b.size
    return float((np.abs(cdf_a - cdf_b) * deltas).sum())


def ks_exp1(gaps: np.ndarray, alpha: float = 0.01):
    """One-sample KS statistic against Exponential(1).

    Returns ``(statistic, passed)`` with the asymptotic critical value
    c(alpha) = sqrt(-ln(alpha/2) / 2) / sqrt(n).
    """
    g = np.sort(np.asarray(gaps, dtype=np.float64).ravel())
    if g.size == 0:
        raise ValueError("need at least one gap")
    if float(g.min()) < 0:
        raise ValueError("gaps must be non-negative")
    n = g.size
    cdf = -np.expm1(-g)
    stat = float(max(np.abs(cdf - np.arange(1, n + 1) / n).max(),
                     np.abs(cdf - np.arange(n) / n).max()))
    crit = float(np.sqrt(-0.5 * np.log(alpha / 2.0)) / np.sqrt(n))
    return stat, stat < crit
