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

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import softmax

__all__ = ["RqsSpline", "Residuals", "MIN_BIN", "MIN_DERIV", "sigmoid", "reversed_cumsum",
           "make_knots", "forward_block", "forward", "inverse_block", "inverse", "vjp", "inv_jac_t"]

MIN_BIN = 1e-3
MIN_DERIV = 1e-3
# softplus(_DERIV_SHIFT) == 1 - MIN_DERIV, so zero logits give derivative 1.
_DERIV_SHIFT = float(np.log(np.expm1(1.0 - MIN_DERIV)))
# Cells of the uniform grid the bin lookup reads.  A cell (1/2048 wide) is
# narrower than the narrowest bin (MIN_BIN), so it holds at most one knot;
# 1024 cells (9.8e-4 wide) would also do, with 2% to spare, and 2048 keeps a
# factor of two.  A power of two, so the cell of v is computed without
# rounding.
_GRID = 2048
# Elements per block of ``_by_blocks`` (the spline and bridge passes), of both
# transforms forward passes through a stretch of elementwise layers (records
# included) and in-place differences, tpp._row_log_density, mjp._soft_counts and
# mjp.posterior_curves.  A block's temporaries (64 kB each) stay in cache and
# are recycled by the allocator, where whole-batch temporaries are paged in
# afresh on every call.  The library removes such allocations, or reuses them
# (the cached pass's workspace), rather than set allocator options: glibc's
# trim and mmap thresholds belong to the whole host process and are read only
# at start-up, and mallopt would change every other allocation of the host.
_BLOCK = 8192
# Knots kept, one per parameter vector: a VI step touches 3, and training adds
# 3 per step.  Each retains ~37 kB, mostly its two 2049-cell grid tables.  Keyed
# by theta's bytes, not its id: callers edit ``params.values`` in place.
_KNOTS_MEMO = 16


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
    s: np.ndarray   # (K-1,) bin slopes h / w
    mm: np.ndarray  # (K-1,) d_lo + d_hi - 2s: the rational function's den = s + mm * u
    two_a: np.ndarray  # (K-1,) 2 (s - d_lo): q = d_lo + xi (two_a + mm xi)
    delta: np.ndarray  # (K-1,) _slope_units' per-bin constants d_lo / s, delta + d_hi / s - 2
    mu: np.ndarray     # and 2 (1 - delta)
    two_b: np.ndarray
    sm_w: np.ndarray
    sm_h: np.ndarray
    sig_d: np.ndarray
    a0: np.ndarray  # (K-1,) inverse's per-bin constants h (s - d_lo), h d_lo and -s
    b0: np.ndarray
    neg_s: np.ndarray
    inv_w: np.ndarray  # (K-1,) 1 / w
    x_grid: tuple   # bin lookup tables of x and y, see _grid_table
    y_grid: tuple


class Residuals(NamedTuple):
    """What one forward evaluation leaves for ``vjp`` and ``inv_jac_t``.

    Only the bin and the position inside it are kept per element; the
    derivatives are recomputed from them in units of the bin's slope
    (``_slope_units``).  The tail inputs are kept too, so that neither
    reads ``x``: a pass may write over the input once the record is built.
    """

    k: np.ndarray              # bin of each (clipped) input; uint8 up to 256 bins
    xi: np.ndarray             # position inside the bin, in [0, 1]
    lo: np.ndarray | None      # mask of the inputs below 0, None when there are none
    hi: np.ndarray | None      # mask of the inputs above 1, None when there are none
    x_lo: np.ndarray | None    # x[lo], in order
    x_hi: np.ndarray | None    # x[hi], in order


def _clip(v, lo, hi):
    """``np.clip(v, lo, hi)``, but for -0.0 clipped at lo = 0, which comes out
    +0.0.  Up to 1024 elements it clips with min/max, in half np.clip's time;
    np.clip wins from ~3000 elements, and by ~10x from 40000."""
    if np.size(v) <= 1024:
        return np.minimum(np.maximum(v, lo), hi)
    return np.clip(v, lo, hi)


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), branch-free.

    The clip keeps ``exp`` from overflowing.  It changes no result for
    |x| <= 500; below -500 the value stays at sigmoid(-500) ~ 7e-218
    instead of underflowing towards 0.
    """
    return 1.0 / (1.0 + np.exp(-_clip(x, -500.0, 500.0)))


def reversed_cumsum(x, out=None):
    """Cumulative sum from the end of the last axis: the transpose of ``np.cumsum``.

    Written into ``out`` when it is given, which may be ``x``.
    """
    out = np.empty(np.shape(x)) if out is None else out
    np.cumsum(x[..., ::-1], axis=-1, out=out[..., ::-1])
    return out


def make_knots(spline: RqsSpline, theta: np.ndarray) -> Knots:
    """The knots of ``theta``, built once per parameter vector; every array is read-only."""
    return _knots(spline.n_knots, np.ascontiguousarray(theta, dtype=np.float64).tobytes())


@functools.lru_cache(maxsize=_KNOTS_MEMO)
def _knots(n_knots: int, theta: bytes) -> Knots:
    tw, th, td = RqsSpline(n_knots).split_params(np.frombuffer(theta))
    m = n_knots - 1
    sm_w = softmax(tw)
    sm_h = softmax(th)
    scale = 1.0 - m * MIN_BIN
    w = MIN_BIN + scale * sm_w
    h = MIN_BIN + scale * sm_h
    x = np.concatenate([[0.0], np.cumsum(w)])
    y = np.concatenate([[0.0], np.cumsum(h)])
    sig_d = sigmoid(td + _DERIV_SHIFT)
    d = MIN_DERIV + np.logaddexp(0.0, td + _DERIV_SHIFT)
    s = h / w
    mm = d[1:] + d[:-1] - 2.0 * s
    delta = d[:-1] / s
    kn = Knots(x, y, d, w, h, s, mm, 2.0 * (s - d[:-1]), delta, delta + d[1:] / s - 2.0,
               2.0 * (1.0 - delta), sm_w, sm_h, sig_d, h * (s - d[:-1]), h * d[:-1], -s, 1.0 / w,
               _grid_table(x), _grid_table(y))
    for a in (*kn[:-2], *kn.x_grid, *kn.y_grid):
        a.flags.writeable = False
    return kn


def _cell(v):
    """Grid cell of each ``v`` in [0, 1]: floor(v * _GRID), exact as _GRID is a
    power of two.  ``fmax`` sends NaN to cell 0 rather than through the cast."""
    c = v * _GRID
    np.fmax(c, 0.0, out=c)
    return c.astype(np.intp)


def _grid_table(edges):
    """Lookup table of the interior knots ``edges[1:-1]`` for ``_bin_index``.

    ``first[c]`` counts the interior knots in the cells before cell c, and
    ``knot[c]`` is the interior knot in cell c, or +inf.  Knots are at least
    ``MIN_BIN`` > 1/_GRID apart, so no cell holds two.
    """
    inner = edges[1:-1]
    cell = _cell(inner)
    starts = np.zeros(_GRID + 1, dtype=np.min_scalar_type(len(inner)))
    starts[cell + 1] = 1
    first = np.cumsum(starts, dtype=starts.dtype)
    knot = np.full(_GRID + 1, np.inf)
    knot[cell] = inner
    return first, knot


def _bin_index(table, v):
    """Bin of each ``v`` in [0, 1]: the number of interior knots at or below it.

    This is exactly the clipped ``searchsorted(edges, v, "right") - 1``: a
    knot in an earlier cell than v is <= v, one in a later cell is > v, and
    the one knot that may share v's cell is compared directly.  The cost per
    element is one cell, two gathers and one compare, whatever the number of
    knots.  A NaN ``v`` falls in bin 0.
    """
    first, knot = table
    c = _cell(v)
    return first[c] + (v >= knot[c])


def c_view(a, shape):
    """``a`` reshaped to ``shape`` as a view, so that writes reach ``a``.

    ``a`` must be C-contiguous, as every ``out`` of a layer is; otherwise
    the reshape could be a copy and the writes would be lost.
    """
    if not a.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    return a.reshape(shape)


def _by_blocks(fn, *arrays, out=None):
    """Apply ``fn`` to same-shaped ``arrays`` in blocks of at most ``_BLOCK`` elements.

    ``fn`` maps 1-D blocks to a tuple of arrays of the same length, element
    by element; the results are returned shaped like the inputs.  The first
    result is written into ``out`` when it is given (a C-contiguous array of
    that shape), which may be one of ``arrays``: a block is read in full
    before its results are written.
    """
    shape = arrays[0].shape
    if out is None and arrays[0].size <= _BLOCK:
        return [a.reshape(shape) for a in fn(*(a.reshape(-1) for a in arrays))]
    flat = [a.reshape(-1) for a in arrays]
    n = flat[0].size
    first = fn(*(a[:_BLOCK] for a in flat))
    outs = [] if out is None else [out]
    outs += [np.empty(shape, dtype=a.dtype) for a in first[len(outs):]]
    flat_outs = [c_view(o, -1) for o in outs]
    for start in range(0, n, _BLOCK):
        parts = first if start == 0 else fn(*(a[start:start + _BLOCK] for a in flat))
        for o, part in zip(flat_outs, parts):
            o[start:start + _BLOCK] = part
    return outs


def _rational(kn: Knots, k, xi):
    """s, num, den and q of bins ``k`` (intp) at positions ``xi``: the forward's value path.

    value = y_k + h num / den and derivative = s^2 q / den^2, with
    u = xi (1 - xi), num = s xi^2 + d_lo u, den = s + mm u, and q, which only
    the derivative reads, in Horner form: q = d_lo + xi (2a + mm xi) with
    a = s - d_lo.  These stay apart from ``_slope_units``, so the value keeps
    the bits of its per-element transcription.  Horner's sum cancels where
    d_lo is far above d_hi near xi = 1, so the log-derivative's error grows
    with the parameter scale: against 80-bit arithmetic, 7e-16 at scale 0.2
    and up to 9.7e-14 at scale 3.
    """
    u = xi * (1.0 - xi)
    s = kn.s[k]
    dlo = kn.d[:-1][k]
    mm_k = kn.mm[k]
    num = s * xi * xi + dlo * u
    den = s + mm_k * u
    q = dlo + xi * (kn.two_a[k] + mm_k * xi)
    return s, num, den, q


def _slope_units(kn: Knots, k, xi):
    """delta, mu, u, D, Q and dQ/dxi of bins ``k`` (intp) at positions ``xi``.

    In units of the bin's slope s, with delta = d_lo / s, eps = d_hi / s and
    mu = delta + eps - 2: num / den = N / D and s^2 q / den^2 = s Q / D^2, where
    N = xi^2 + delta u, D = 1 + mu u and Q = delta + xi (2 (1 - delta) + mu xi).
    With delta and eps held fixed the value does not depend on s, and the
    log-derivative moves as log s.
    """
    dl = kn.delta[k]
    mu = kn.mu[k]
    u = xi * (1.0 - xi)
    mu_xi = mu * xi
    inner = kn.two_b[k] + mu_xi
    return dl, mu, u, 1.0 + mu * u, dl + xi * inner, inner + mu_xi


def forward_block(kn: Knots, keep=False):
    """The block function ``v -> (y, logderiv)`` of ``forward``.  With ``keep``,
    ``(block, record)``: the block also returns the record's parts k, xi, lo
    and hi, and ``record`` makes the ``Residuals`` of them once every block has run."""
    d0, d1 = kn.d[0], kn.d[-1]
    log_d0, log_d1 = np.log(d0), np.log(d1)
    x_lo, x_hi = [], []     # tail inputs, block by block

    def block(v):
        xc = np.clip(v, 0.0, 1.0)
        k_small = _bin_index(kn.x_grid, xc)
        k = k_small.astype(np.intp)
        xi = np.clip((xc - kn.x[k]) / kn.w[k], 0.0, 1.0)
        s, num, den, q = _rational(kn, k, xi)
        y = kn.y[k] + kn.h[k] * num / den
        ld = np.log(s * s * q / (den * den))
        # linear tails; their inputs are taken before ``out`` (maybe x) is written
        lo = v < 0.0
        hi = v > 1.0
        if lo.any():
            x_lo.append(v[lo])
            y[lo] = d0 * x_lo[-1]
            ld[lo] = log_d0
        if hi.any():
            x_hi.append(v[hi])
            y[hi] = 1.0 + d1 * (x_hi[-1] - 1.0)
            ld[hi] = log_d1
        return (y, ld, k_small, xi, lo, hi) if keep else (y, ld)

    def record(k, xi, lo, hi):
        return Residuals(k, xi, lo if x_lo else None, hi if x_hi else None,
                         np.concatenate(x_lo) if x_lo else None,
                         np.concatenate(x_hi) if x_hi else None)
    return (block, record) if keep else block


def forward(spline: RqsSpline, theta: np.ndarray, x: np.ndarray, keep: bool = True,
            out: np.ndarray | None = None):
    """Evaluate the spline and the log of its derivative, tails included.

    Returns ``(y, logderiv, residuals)``; the residuals let ``vjp`` and
    ``inv_jac_t`` skip the bin search and read nothing of ``x``.  Without
    ``keep`` they are ``None`` and only y and logderiv are written out.
    ``y`` is written into ``out`` when it is given, which may be ``x``.
    """
    kn = make_knots(spline, theta)
    block, record = forward_block(kn, keep=True) if keep else (forward_block(kn), None)
    y, ld, *parts = _by_blocks(block, np.asarray(x, dtype=np.float64), out=out)
    return y, ld, record(*parts) if keep else None


def inverse_block(kn: Knots):
    """The inverse of one 1-D block under knots ``kn``: the block function of
    ``inverse``, and the spline's column step in ``SequentialInverter``."""
    d0, d1 = kn.d[0], kn.d[-1]

    def block(v):
        yc = _clip(v, 0.0, 1.0)       # a -0.0 that comes out +0.0 changes no bit of x
        k = _bin_index(kn.y_grid, yc).astype(np.intp)
        r = yc - kn.y[k]
        # per bin: a = a0 + r mm, b = b0 - r mm, c = -s r with r = y - y_k
        r_mm = r * kn.mm[k]
        a = kn.a0[k] + r_mm
        b = kn.b0[k] - r_mm
        c = kn.neg_s[k] * r
        disc = np.maximum(b * b - 4.0 * a * c, 0.0)
        xi = _clip(2.0 * c / (-b - np.sqrt(disc)), 0.0, 1.0)
        x = kn.x[k] + kn.w[k] * xi
        # linear tails, where the clip moved v; count_nonzero beats .any() on a column
        if np.count_nonzero(yc != v):
            lo, hi = v < 0.0, v > 1.0
            x[lo] = v[lo] / d0
            x[hi] = 1.0 + (v[hi] - 1.0) / d1
        return x

    return block


def inverse(spline: RqsSpline, theta: np.ndarray, y: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """Closed-form inverse (quadratic-formula root per bin, linear tails).

    The result is written into ``out`` when it is given, which may be ``y``.
    """
    block = inverse_block(make_knots(spline, theta))
    x, = _by_blocks(lambda v: (block(v),), np.asarray(y, dtype=np.float64), out=out)
    return x


def vjp(spline: RqsSpline, theta: np.ndarray, x: np.ndarray, g_y: np.ndarray, g_ld: np.ndarray,
        res: Residuals | None = None, out: np.ndarray | None = None):
    """Pull cotangents on (value, logderiv) back to (input, parameters).

    ``res`` is the record ``forward`` returned for this ``x``; without it
    the forward pass is run here.  All partial derivatives are analytic,
    taken in units of the bin's slope (``_slope_units``): per element only
    the partials in xi, delta and eps, and the cotangent of s once per bin.
    Returns ``(g_x, g_theta)`` with ``g_theta`` flat like theta; ``g_x`` is
    written into ``out`` when it is given.  With ``res``, ``x`` is not read,
    and ``out`` may be ``x``, ``g_y`` or both: ``g_y`` is read block by
    block before that block of ``g_x`` is written.
    """
    if res is None:
        res = forward(spline, theta, x)[2]
    kn = make_knots(spline, theta)
    g_y = np.asarray(g_y, dtype=np.float64)
    g_ld = np.asarray(g_ld, dtype=np.float64)
    m = spline.n_bins
    d0, d1 = kn.d[0], kn.d[-1]
    # tails: y = d0*x below, 1 + d1*(x-1) above; summed before g_x is written
    g_d0 = 0.0 if res.lo is None else float(g_y[res.lo] @ res.x_lo + g_ld[res.lo].sum() / d0)
    g_d1 = 0.0 if res.hi is None else float(g_y[res.hi] @ (res.x_hi - 1.0)
                                            + g_ld[res.hi].sum() / d1)
    tails = [(t, d) for t, d in ((res.lo, d0), (res.hi, d1)) if t is not None]

    # Inside a bin: y = y_k + h N/D and logderiv = log s + log Q - 2 log D;
    # num, den and q below are N, D and Q of ``_slope_units``
    sums = np.zeros((7, m))

    def block(k_small, xi, gy_in, gl_in, *masks):
        """g_x of one block; adds the block's per-bin sums of the partials to ``sums``."""
        k = k_small.astype(np.intp)
        gy, gl = gy_in, gl_in
        if masks:     # the bins' partials see no cotangent from tail positions
            in_tail = masks[0] if len(masks) == 1 else masks[0] | masks[1]
            gy, gl = np.where(in_tail, 0.0, gy_in), np.where(in_tail, 0.0, gl_in)
        dl, mu, u, den, q, dq = _slope_units(kn, k, xi)
        xi_xi = xi * xi
        num = xi_xi + dl * u
        inv_den = 1.0 / den
        a = gy * kn.h[k] * inv_den * inv_den        # g_y h / D^2
        gl_q = gl / q
        two_gl_d = 2.0 * gl * inv_den
        # d/dxi: dN/D = Q/D^2, dQ, dD = mu (1 - 2 xi)
        g_xi = a * q + gl_q * dq - two_gl_d * mu * (1.0 - 2.0 * xi)
        # d/d(delta), d/d(eps): dN = (u, 0), dD = (u, u), dQ = ((1 - xi)^2, xi^2)
        au = a * u
        two_u_gl_d = two_gl_d * u
        g_dl = au * (den - num) + (1.0 - xi) ** 2 * gl_q - two_u_gl_d
        g_eps = xi_xi * gl_q - two_u_gl_d - au * num
        for row, wt in zip(sums, (g_xi, g_xi * xi, g_dl, g_eps, gy * num * inv_den, gy, gl)):
            row += np.bincount(k, weights=wt, minlength=m)
        g_x = g_xi * kn.inv_w[k]
        for t, (_, d) in zip(masks, tails):
            g_x[t] = gy_in[t] * d
        return (g_x,)

    g_x, = _by_blocks(block, res.k, res.xi, g_y, g_ld, *(t for t, _ in tails), out=out)
    return g_x, _theta_cotangent(kn, sums, g_d0, g_d1)


def _theta_cotangent(kn: Knots, sums, g_d0, g_d1):
    """g_theta from the tail cotangents of d_0 and d_K and ``sums``, which
    holds per bin (and is written over) the sums of g_xi, g_xi xi, the
    partials in delta and eps, g_y N / D, g_y and g_ld."""
    sum_xi, sum_xi_xi, sum_dl, sum_eps, g_h, g_yknot, sum_ld = sums

    # delta = d_lo / s and eps = d_hi / s; at fixed delta and eps only log s moves with s
    inv_s = 1.0 / kn.s
    g_d = np.zeros(kn.d.size)
    g_d[:-1] = sum_dl * inv_s
    g_d[1:] += sum_eps * inv_s
    sum_s = (sum_ld - kn.delta * sum_dl - kn.d[1:] * inv_s * sum_eps) * inv_s
    g_d[0] += g_d0
    g_d[-1] += g_d1

    # xi = (x - x_k) / w and s = h / w; per-bin constants leave the sums
    g_xknot = -kn.inv_w * sum_xi
    g_w = -kn.inv_w * (sum_xi_xi + kn.s * sum_s)
    g_h += kn.inv_w * sum_s

    # knot positions are prefix sums of widths/heights
    g_w[:-1] += reversed_cumsum(g_xknot)[1:]
    g_h[:-1] += reversed_cumsum(g_yknot)[1:]

    scale = 1.0 - kn.w.size * MIN_BIN
    g_sm_w = scale * g_w
    g_sm_h = scale * g_h
    g_tw = kn.sm_w * (g_sm_w - float(kn.sm_w @ g_sm_w))
    g_th = kn.sm_h * (g_sm_h - float(kn.sm_h @ g_sm_h))
    g_td = g_d * kn.sig_d

    return np.concatenate([g_tw, g_th, g_td])


def inv_jac_t(spline: RqsSpline, theta: np.ndarray, x: np.ndarray, w: np.ndarray,
              res: Residuals | None = None, out: np.ndarray | None = None):
    """u = w / F'(x) (the Jacobian is diagonal) and the ``g_theta`` of ``vjp``
    at g_y = u, g_ld = 0, where its partials collapse: g_xi = w w_k and
    a = g_y h / D^2 = w w_k / Q.  u is written into ``out`` when it is given,
    which may be ``w``.  ``res`` is the record ``forward`` returned for this
    ``x``; without it the forward pass is run here.  With it, ``x`` is not read.
    """
    if res is None:
        res = forward(spline, theta, x)[2]
    kn = make_knots(spline, theta)
    tails = [(t, d) for t, d in ((res.lo, kn.d[0]), (res.hi, kn.d[-1])) if t is not None]
    sums = np.zeros((7, spline.n_bins))

    def block(k_small, xi, w_in, *masks):
        k = k_small.astype(np.intp)
        # the bins' partials see no cotangent from tail positions
        w = np.where(np.logical_or.reduce(masks), 0.0, w_in) if masks else w_in
        dl, _, uu, den, q, _ = _slope_units(kn, k, xi)
        u = w * den * den / (kn.s[k] * q)
        g_xi = w * kn.w[k]
        a_uu = g_xi / q * uu
        num = xi * xi + dl * uu
        for row, wt in zip(sums, (g_xi, g_xi * xi, a_uu * (den - num), -(a_uu * num),
                                  u * num / den, u)):
            row += np.bincount(k, weights=wt, minlength=row.size)
        for t, (_, d) in zip(masks, tails):
            u[t] = w_in[t] / d
        return (u,)

    w = np.asarray(w, dtype=np.float64)
    u, = _by_blocks(block, res.k, res.xi, w, *(t for t, _ in tails), out=out)
    # tails: y = d0*x below, 1 + d1*(x-1) above
    g_d0 = 0.0 if res.lo is None else float(u[res.lo] @ res.x_lo)
    g_d1 = 0.0 if res.hi is None else float(u[res.hi] @ (res.x_hi - 1.0))
    return u, _theta_cotangent(kn, sums, g_d0, g_d1)
