"""Monotone rational quadratic splines.

A spline with K knots is an increasing bijection of [0, 1] onto itself built
from K-1 rational-quadratic bins, continued linearly outside [0, 1] with the
boundary derivatives (so the map is a bijection of the whole real line, which
the inversion sampler relies on for points beyond the horizon).  Value,
derivative and inverse are all closed form.

Unconstrained parameters (any real vector is valid):
  - K-1 width logits  -> bin widths  via softmax with floor ``MIN_BIN``
  - K-1 height logits -> bin heights via softmax with floor ``MIN_BIN``
  - K derivative logits -> knot derivatives via softplus with floor
    ``MIN_DERIV`` (shifted so zero logits give unit derivatives)

The zero vector is exactly the identity map.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import softmax

__all__ = ["RqsSpline", "MIN_BIN", "MIN_DERIV", "sigmoid", "make_knots", "forward", "inverse",
           "vjp"]

MIN_BIN = 1e-3
MIN_DERIV = 1e-3
# softplus(_DERIV_SHIFT) == 1 - MIN_DERIV, so zero logits give derivative 1.
_DERIV_SHIFT = float(np.log(np.expm1(1.0 - MIN_DERIV)))


@dataclass(frozen=True)
class RqsSpline:
    """Hyperparameters of one spline; ``n_knots`` counts both endpoints."""

    n_knots: int

    def __post_init__(self):
        if self.n_knots < 2:
            raise ValueError(f"a spline needs at least 2 knots, got {self.n_knots}")

    @property
    def n_bins(self) -> int:
        return self.n_knots - 1

    @property
    def n_params(self) -> int:
        return 3 * self.n_knots - 2

    def split_params(self, theta: np.ndarray):
        m = self.n_bins
        return theta[:m], theta[m:2 * m], theta[2 * m:]


class Knots(NamedTuple):
    x: np.ndarray   # (K,) knot positions, x[0] = 0
    y: np.ndarray   # (K,) knot values, y[0] = 0
    d: np.ndarray   # (K,) knot derivatives, > 0
    w: np.ndarray   # (K-1,) bin widths
    h: np.ndarray   # (K-1,) bin heights
    sm_w: np.ndarray
    sm_h: np.ndarray
    sig_d: np.ndarray


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), branch-free.

    The clip keeps ``exp`` from overflowing.  It changes no result for
    |x| <= 500; below -500 the value stays at sigmoid(-500) ~ 7e-218
    instead of underflowing towards 0.
    """
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def make_knots(spline: RqsSpline, theta: np.ndarray) -> Knots:
    tw, th, td = spline.split_params(np.asarray(theta, dtype=np.float64))
    m = spline.n_bins
    sm_w = softmax(tw)
    sm_h = softmax(th)
    scale = 1.0 - m * MIN_BIN
    w = MIN_BIN + scale * sm_w
    h = MIN_BIN + scale * sm_h
    x = np.concatenate([[0.0], np.cumsum(w)])
    y = np.concatenate([[0.0], np.cumsum(h)])
    sig_d = sigmoid(td + _DERIV_SHIFT)
    d = MIN_DERIV + np.logaddexp(0.0, td + _DERIV_SHIFT)
    return Knots(x, y, d, w, h, sm_w, sm_h, sig_d)


def _bin_index(edges, v, n_bins):
    k = np.searchsorted(edges, v, side="right") - 1
    return np.clip(k, 0, n_bins - 1)


def forward(spline: RqsSpline, theta: np.ndarray, x: np.ndarray, knots: Knots | None = None):
    """Evaluate the spline and the log of its derivative, tails included."""
    kn = knots if knots is not None else make_knots(spline, theta)
    x = np.asarray(x, dtype=np.float64)
    lo = x < 0.0
    hi = x > 1.0

    y = np.empty_like(x)
    ld = np.empty_like(x)

    xi_in = np.clip(x, 0.0, 1.0)
    k = _bin_index(kn.x, xi_in, spline.n_bins)
    wk, hk = kn.w[k], kn.h[k]
    xk, yk = kn.x[k], kn.y[k]
    dlo, dhi = kn.d[k], kn.d[k + 1]
    s = hk / wk
    xi = np.clip((xi_in - xk) / wk, 0.0, 1.0)
    u = xi * (1.0 - xi)
    num = s * xi * xi + dlo * u
    den = s + (dhi + dlo - 2.0 * s) * u
    q = dhi * xi * xi + 2.0 * s * u + dlo * (1.0 - xi) ** 2

    y[:] = yk + hk * num / den
    ld[:] = 2.0 * np.log(s) + np.log(q) - 2.0 * np.log(den)

    d0, d1 = kn.d[0], kn.d[-1]
    if lo.any():
        y[lo] = d0 * x[lo]
        ld[lo] = np.log(d0)
    if hi.any():
        y[hi] = 1.0 + d1 * (x[hi] - 1.0)
        ld[hi] = np.log(d1)
    return y, ld


def inverse(spline: RqsSpline, theta: np.ndarray, y: np.ndarray, knots: Knots | None = None) -> np.ndarray:
    """Closed-form inverse (quadratic-formula root per bin, linear tails)."""
    kn = knots if knots is not None else make_knots(spline, theta)
    y = np.asarray(y, dtype=np.float64)
    lo = y < 0.0
    hi = y > 1.0

    yi_in = np.clip(y, 0.0, 1.0)
    k = _bin_index(kn.y, yi_in, spline.n_bins)
    wk, hk = kn.w[k], kn.h[k]
    xk, yk = kn.x[k], kn.y[k]
    dlo, dhi = kn.d[k], kn.d[k + 1]
    s = hk / wk
    mm = dhi + dlo - 2.0 * s
    r = yi_in - yk
    a = hk * (s - dlo) + r * mm
    b = hk * dlo - r * mm
    c = -s * r
    disc = np.maximum(b * b - 4.0 * a * c, 0.0)
    xi = 2.0 * c / (-b - np.sqrt(disc))
    xi = np.clip(xi, 0.0, 1.0)
    x = xk + wk * xi

    d0, d1 = kn.d[0], kn.d[-1]
    if lo.any():
        x[lo] = y[lo] / d0
    if hi.any():
        x[hi] = 1.0 + (y[hi] - 1.0) / d1
    return x


def vjp(spline: RqsSpline, theta: np.ndarray, x: np.ndarray, g_y: np.ndarray, g_ld: np.ndarray,
        knots: Knots | None = None):
    """Pull cotangents on (value, logderiv) back to (input, parameters).

    Recomputes the forward internals from ``x``; all partial derivatives are
    analytic.  Returns ``(g_x, g_theta)`` with ``g_theta`` flat like theta.
    """
    kn = knots if knots is not None else make_knots(spline, theta)
    x = np.asarray(x, dtype=np.float64)
    g_y = np.asarray(g_y, dtype=np.float64)
    g_ld = np.asarray(g_ld, dtype=np.float64)
    m = spline.n_bins
    K = spline.n_knots

    lo = x < 0.0
    hi = x > 1.0
    inner = ~(lo | hi)

    xf = np.clip(x, 0.0, 1.0)
    k = _bin_index(kn.x, xf, m)
    wk, hk = kn.w[k], kn.h[k]
    xk = kn.x[k]
    dlo, dhi = kn.d[k], kn.d[k + 1]
    s = hk / wk
    xi = np.clip((xf - xk) / wk, 0.0, 1.0)
    u = xi * (1.0 - xi)
    one_m2xi = 1.0 - 2.0 * xi
    mm = dhi + dlo - 2.0 * s
    num = s * xi * xi + dlo * u
    den = s + mm * u
    q = dhi * xi * xi + 2.0 * s * u + dlo * (1.0 - xi) ** 2

    # value partials
    dn_dxi = 2.0 * s * xi + dlo * one_m2xi
    dd_dxi = mm * one_m2xi
    dy_dxi = hk * (dn_dxi * den - num * dd_dxi) / den**2
    dy_ds = hk * (xi * xi * den - num * (1.0 - 2.0 * u)) / den**2
    dy_ddlo = hk * u * (den - num) / den**2
    dy_ddhi = -hk * num * u / den**2
    dy_dh_direct = num / den
    dy_dyk = 1.0

    # logderiv partials
    dq_dxi = 2.0 * (dhi * xi + s * one_m2xi - dlo * (1.0 - xi))
    dl_dxi = dq_dxi / q - 2.0 * dd_dxi / den
    dl_ds = 2.0 / s + 2.0 * u / q - 2.0 * (1.0 - 2.0 * u) / den
    dl_ddlo = (1.0 - xi) ** 2 / q - 2.0 * u / den
    dl_ddhi = xi * xi / q - 2.0 * u / den

    gy = np.where(inner, g_y, 0.0)
    gl = np.where(inner, g_ld, 0.0)

    g_xi = gy * dy_dxi + gl * dl_dxi
    g_x = g_xi / wk
    g_s = gy * dy_ds + gl * dl_ds
    g_w_elem = -g_xi * xi / wk - g_s * s / wk
    g_h_elem = gy * dy_dh_direct + g_s / wk
    g_xk_elem = -g_xi / wk
    g_yk_elem = gy * dy_dyk
    g_dlo_elem = gy * dy_ddlo + gl * dl_ddlo
    g_dhi_elem = gy * dy_ddhi + gl * dl_ddhi

    kf = k.ravel()
    g_w = np.bincount(kf, weights=g_w_elem.ravel(), minlength=m)
    g_h = np.bincount(kf, weights=g_h_elem.ravel(), minlength=m)
    g_d = np.bincount(kf, weights=g_dlo_elem.ravel(), minlength=K)
    g_d += np.bincount(kf + 1, weights=g_dhi_elem.ravel(), minlength=K)
    g_xknot = np.bincount(kf, weights=g_xk_elem.ravel(), minlength=m)
    g_yknot = np.bincount(kf, weights=g_yk_elem.ravel(), minlength=m)

    # tails: y = d0*x below, 1 + d1*(x-1) above
    if lo.any():
        g_x = np.where(lo, g_y * kn.d[0], g_x)
        g_d[0] += float((g_y * x)[lo].sum() + (g_ld / kn.d[0])[lo].sum())
    if hi.any():
        g_x = np.where(hi, g_y * kn.d[-1], g_x)
        g_d[-1] += float((g_y * (x - 1.0))[hi].sum() + (g_ld / kn.d[-1])[hi].sum())

    # knot positions are prefix sums of widths/heights
    suf_x = np.concatenate([np.cumsum(g_xknot[::-1])[::-1], [0.0]])
    suf_y = np.concatenate([np.cumsum(g_yknot[::-1])[::-1], [0.0]])
    g_w = g_w + suf_x[1:]
    g_h = g_h + suf_y[1:]

    scale = 1.0 - m * MIN_BIN
    g_sm_w = scale * g_w
    g_sm_h = scale * g_h
    g_tw = kn.sm_w * (g_sm_w - float(kn.sm_w @ g_sm_w))
    g_th = kn.sm_h * (g_sm_h - float(kn.sm_h @ g_sm_h))
    g_td = g_d * kn.sig_d

    return g_x, np.concatenate([g_tw, g_th, g_td])
