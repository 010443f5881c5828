import numpy as np
import pytest

from tppflow import splines as sp
from tppflow.splines import RqsSpline


def reference_bin_eval(knots, x):
    """Independent scalar evaluation of the rational-quadratic bin formula."""
    k = int(np.searchsorted(knots.x, x, side="right")) - 1
    k = min(max(k, 0), len(knots.w) - 1)
    w, h = knots.w[k], knots.h[k]
    d0, d1 = knots.d[k], knots.d[k + 1]
    s = h / w
    xi = (x - knots.x[k]) / w
    num = h * (s * xi**2 + d0 * xi * (1 - xi))
    den = s + (d1 + d0 - 2 * s) * xi * (1 - xi)
    value = knots.y[k] + num / den
    deriv = s**2 * (d1 * xi**2 + 2 * s * xi * (1 - xi) + d0 * (1 - xi) ** 2) / den**2
    return value, deriv


@pytest.fixture
def spline10():
    return RqsSpline(10)


@pytest.fixture
def theta10(spline10, rng):
    return rng.normal(0.0, 1.0, spline10.n_params)


def test_identity_configuration(spline10):
    theta = np.zeros(spline10.n_params)
    y, ld, _ = sp.forward(spline10, theta, np.array([0.3]))
    assert y[0] == pytest.approx(0.3, abs=1e-15)
    assert ld[0] == pytest.approx(0.0, abs=1e-14)


def test_boundary_pinned(spline10, theta10):
    x = np.array([1e-9, 1 - 1e-9])
    y, _, _ = sp.forward(spline10, theta10, x)
    assert 0 < y[0] < 1e-5
    assert 1 - 1e-5 < y[1] < 1


def test_matches_direct_formula_and_numeric_slope(spline10, theta10):
    knots = sp.make_knots(spline10, theta10)
    x = np.array([0.5])
    y, ld, _ = sp.forward(spline10, theta10, x)
    ref_y, ref_d = reference_bin_eval(knots, 0.5)
    assert y[0] == pytest.approx(ref_y, rel=1e-12)
    h = 1e-6
    yp, _, _ = sp.forward(spline10, theta10, x + h)
    ym, _, _ = sp.forward(spline10, theta10, x - h)
    slope = (yp[0] - ym[0]) / (2 * h)
    assert np.exp(ld[0]) == pytest.approx(slope, rel=1e-6)
    assert np.exp(ld[0]) == pytest.approx(ref_d, rel=1e-12)


def test_inverse_identity(spline10):
    theta = np.zeros(spline10.n_params)
    x = sp.inverse(spline10, theta, np.array([0.7]))
    assert x[0] == pytest.approx(0.7, abs=1e-15)


def test_inverse_round_trip(spline10, theta10, rng):
    y = rng.uniform(0, 1, 10_000)
    x = sp.inverse(spline10, theta10, y)
    y2, _, _ = sp.forward(spline10, theta10, x)
    assert np.abs(y2 - y).max() < 1e-10


def test_inverse_matches_bisection(spline10, theta10):
    target = 0.25
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        val, _, _ = sp.forward(spline10, theta10, np.array([mid]))
        if val[0] < target:
            lo = mid
        else:
            hi = mid
    x = sp.inverse(spline10, theta10, np.array([target]))
    assert x[0] == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_knot_boundary_continuity(spline10, theta10):
    """Value and first derivative agree when a knot is approached from the
    two neighbouring bins."""
    knots = sp.make_knots(spline10, theta10)
    eps = 1e-13
    for xk in knots.x[1:-1]:
        y_lo, ld_lo, _ = sp.forward(spline10, theta10, np.array([xk - eps]))
        y_hi, ld_hi, _ = sp.forward(spline10, theta10, np.array([xk + eps]))
        assert abs(y_hi[0] - y_lo[0]) < 1e-12
        assert abs(np.exp(ld_hi[0]) - np.exp(ld_lo[0])) < 1e-9 * max(1.0, np.exp(ld_lo[0]))


def test_monotone_increasing_bijection(spline10, theta10, rng):
    x = np.sort(rng.uniform(0, 1, 2000))
    y, _, _ = sp.forward(spline10, theta10, x)
    assert np.all(np.diff(y) > 0)
    assert y.min() > 0 and y.max() < 1
    knots = sp.make_knots(spline10, theta10)
    assert np.all(np.diff(knots.x) >= sp.MIN_BIN - 1e-12)
    assert np.all(np.diff(knots.y) >= sp.MIN_BIN - 1e-12)
    assert np.all(knots.d >= sp.MIN_DERIV)


def test_linear_tails_round_trip(spline10, theta10):
    x = np.array([-2.0, 1.5, 40.0])
    y, ld, _ = sp.forward(spline10, theta10, x)
    knots = sp.make_knots(spline10, theta10)
    assert ld[0] == pytest.approx(np.log(knots.d[0]))
    assert ld[1] == pytest.approx(np.log(knots.d[-1]))
    assert np.abs(sp.inverse(spline10, theta10, y) - x).max() < 1e-12


@pytest.mark.parametrize("n_knots, scale", [(2, 1.0), (3, 1.0), (10, 1.0), (20, 1.0), (3, 3.0)])
def test_vjp_matches_finite_differences(n_knots, scale, rng):
    """Smooth points, both tails, 0 and 1, and inputs exactly on the knots.

    The log-derivative has a kink in x at every knot and at 0 and 1, and in
    theta where a moving knot passes through x, so there only the value's
    cotangent is checked; in x with a one-sided difference, as the value's
    second derivative jumps at a knot.  Parameters at scale 3 push knot
    derivatives far from the bins' slopes (delta and eps far from 1).  With
    10 or 20 knots at that scale the central difference does not resolve
    the gradient at these draws: the log-derivative at x = 1 reads the last
    knot, which moves with theta by rounding, through a derivative in xi of
    order 1e3, and the difference quotient of a width logit moves by 4e-5
    relative between steps 1e-5 and 1e-6.  So those cases are left out.
    """
    spline = RqsSpline(n_knots)
    theta = scale * rng.normal(0.0, 1.0, spline.n_params)
    knots = sp.make_knots(spline, theta)
    smooth = np.concatenate([rng.uniform(0.02, 0.98, 40), [1.3, -0.4, -2.0, 3.0]])
    edges = np.array([0.0, 1.0])
    moving = knots.x[1:-1]
    x = np.concatenate([smooth, edges, moving])
    n_smooth = smooth.size
    gy = rng.normal(0, 1, x.shape)
    gl = rng.normal(0, 1, x.shape)
    gl[n_smooth + edges.size:] = 0.0
    gx, gth = sp.vjp(spline, theta, x, gy, gl)
    gx_value, _ = sp.vjp(spline, theta, x, gy, np.zeros_like(x))

    def objective(theta, xs, gl=gl):
        y, ld, _ = sp.forward(spline, theta, xs)
        return float((gy * y).sum() + (gl * ld).sum())

    eps = 1e-6
    for i in range(spline.n_params):
        e = np.zeros(spline.n_params)
        e[i] = eps
        num = (objective(theta + e, x) - objective(theta - e, x)) / (2 * eps)
        assert gth[i] == pytest.approx(num, rel=2e-5, abs=1e-7)
    for j in list(range(0, n_smooth, 7)) + list(range(n_smooth, x.size)):
        e = np.zeros_like(x)
        e[j] = eps
        if j < n_smooth:
            num = (objective(theta, x + e) - objective(theta, x - e)) / (2 * eps)
            assert gx[j] == pytest.approx(num, rel=2e-5, abs=1e-7)
        else:
            f = [objective(theta, x + c * e, np.zeros_like(x)) for c in (0, 1, 2)]
            num = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * eps)
            assert gx_value[j] == pytest.approx(num, rel=2e-5, abs=1e-7)


def knot_probes(rng, edges, lo=0.0, hi=1.0):
    """Random points in [lo, hi], every knot, both float neighbours of every
    knot, 0 and 1."""
    return np.concatenate([rng.uniform(lo, hi, 2000), edges, np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf), [0.0, 1.0]])


def searchsorted_inverse(knots, y):
    """The inverse with a binary search per element and the quadratic's
    coefficients built per element."""
    yc = np.clip(y, 0.0, 1.0)
    k = np.clip(np.searchsorted(knots.y, yc, side="right") - 1, 0, len(knots.w) - 1)
    wk, hk = knots.w[k], knots.h[k]
    xk, yk = knots.x[k], knots.y[k]
    dlo, dhi = knots.d[k], knots.d[k + 1]
    s = knots.s[k]
    mm = dhi + dlo - 2.0 * s
    r = yc - yk
    a = hk * (s - dlo) + r * mm
    b = hk * dlo - r * mm
    c = -s * r
    disc = np.maximum(b * b - 4.0 * a * c, 0.0)
    xi = np.clip(2.0 * c / (-b - np.sqrt(disc)), 0.0, 1.0)
    x = np.where(y < 0.0, y / knots.d[0], xk + wk * xi)
    return np.where(y > 1.0, 1.0 + (y - 1.0) / knots.d[-1], x)


def searchsorted_forward(knots, x):
    """The forward value with a binary search per element and the rational
    function's num and den built per element."""
    xc = np.clip(x, 0.0, 1.0)
    k = np.clip(np.searchsorted(knots.x, xc, side="right") - 1, 0, len(knots.w) - 1)
    s = knots.s[k]
    dlo, dhi = knots.d[k], knots.d[k + 1]
    xi = np.clip((xc - knots.x[k]) / knots.w[k], 0.0, 1.0)
    u = xi * (1.0 - xi)
    num = s * xi * xi + dlo * u
    den = s + (dhi + dlo - 2.0 * s) * u
    y = np.where(x < 0.0, knots.d[0] * x, knots.y[k] + knots.h[k] * num / den)
    return np.where(x > 1.0, 1.0 + knots.d[-1] * (x - 1.0), y)


def test_grid_cells_are_narrower_than_the_narrowest_bin():
    """So a grid cell holds at most one knot, which the bin lookup needs."""
    assert 1.0 / sp._GRID < sp.MIN_BIN


@pytest.mark.parametrize("n_knots", [2, 5, 20, 300])
def test_bin_index_matches_clipped_searchsorted(n_knots, rng):
    """On x and y knots of random splines, at the points of ``knot_probes``;
    parameters scaled by 3 shrink bins to MIN_BIN, and 300 knots need an
    index wider than uint8."""
    spline = RqsSpline(n_knots)
    for scale in (1.0, 1.0, 1.0, 3.0, 3.0, 3.0):
        theta = scale * rng.normal(0.0, 1.0, spline.n_params)
        kn = sp.make_knots(spline, theta)
        for edges, table in ((kn.x, kn.x_grid), (kn.y, kn.y_grid)):
            v = np.clip(knot_probes(rng, edges), 0.0, 1.0)
            expected = np.clip(np.searchsorted(edges, v, "right") - 1, 0, spline.n_bins - 1)
            k = sp._bin_index(table, v)
            assert k.dtype == (np.uint8 if spline.n_bins <= 256 else np.uint16)
            assert np.array_equal(k, expected)
        v = np.clip(knot_probes(rng, kn.x), 0.0, 1.0)
        expected = np.clip(np.searchsorted(kn.x, v, "right") - 1, 0, spline.n_bins - 1)
        assert np.array_equal(sp.forward(spline, theta, v)[2].k, expected)


@pytest.mark.parametrize("n_knots", [2, 5, 20, 300])
def test_inverse_matches_searchsorted_reference_bitwise(n_knots, rng):
    """In the bins, on and beside every y knot, and in both tails, with
    parameters at scale 1 and 3."""
    spline = RqsSpline(n_knots)
    for scale in (1.0, 1.0, 1.0, 3.0, 3.0, 3.0):
        theta = scale * rng.normal(0.0, 1.0, spline.n_params)
        kn = sp.make_knots(spline, theta)
        y = knot_probes(rng, kn.y, -0.3, 1.3)
        assert np.array_equal(sp.inverse(spline, theta, y), searchsorted_inverse(kn, y))


@pytest.mark.parametrize("n_knots", [2, 5, 20, 300])
def test_forward_matches_searchsorted_reference_bitwise(n_knots, rng):
    """The value, kept record or not, in the bins, on and beside every x
    knot, and in both tails, with parameters at scale 1 and 3: only the
    derivatives are computed in units of the bin's slope."""
    spline = RqsSpline(n_knots)
    for scale in (1.0, 1.0, 1.0, 3.0, 3.0, 3.0):
        theta = scale * rng.normal(0.0, 1.0, spline.n_params)
        kn = sp.make_knots(spline, theta)
        x = knot_probes(rng, kn.x, -0.3, 1.3)
        expected = searchsorted_forward(kn, x)
        assert np.array_equal(sp.forward(spline, theta, x)[0], expected)
        assert np.array_equal(sp.forward(spline, theta, x, keep=False)[0], expected)


def test_nan_inputs_and_parameters_give_nan(spline10, theta10):
    """A NaN input gives NaN and leaves the other entries alone; NaN width and
    height logits make every knot NaN, so every input in [0, 1] gives NaN.
    Nothing raises or warns."""
    v = np.array([-0.5, 0.0, 0.3, np.nan, 1.0, 1.5])
    finite = ~np.isnan(v)
    y, ld, _ = sp.forward(spline10, theta10, v)
    y_ref, ld_ref, _ = sp.forward(spline10, theta10, v[finite])
    assert np.isnan(y[3]) and np.isnan(ld[3])
    assert np.array_equal(y[finite], y_ref) and np.array_equal(ld[finite], ld_ref)
    x = sp.inverse(spline10, theta10, v)
    assert np.isnan(x[3]) and np.array_equal(x[finite], sp.inverse(spline10, theta10, v[finite]))

    theta = theta10.copy()
    theta[:2 * spline10.n_bins] = np.nan
    inside = ~((v < 0.0) | (v > 1.0))
    y, ld, _ = sp.forward(spline10, theta, v)
    x = sp.inverse(spline10, theta, v)
    for out in (y, ld, x):
        assert np.all(np.isnan(out[inside])) and np.all(np.isfinite(out[~inside]))


def test_inv_jac_t_divides_by_the_derivative(spline10, theta10, rng):
    """From a kept forward record or from x alone, in the bins and both tails."""
    x = np.concatenate([rng.uniform(0.0, 1.0, (3, 50)), [[-0.5] * 50, [1.5] * 50]])
    w = rng.normal(0, 1, x.shape)
    _, ld, res = sp.forward(spline10, theta10, x)
    u, g_theta = sp.inv_jac_t(spline10, theta10, x, w, res=res)
    u_bare, g_theta_bare = sp.inv_jac_t(spline10, theta10, x, w)
    assert np.array_equal(u, u_bare) and np.array_equal(g_theta, g_theta_bare)
    assert np.abs(u - w * np.exp(-ld)).max() < 1e-12 * np.abs(u).max()


def test_blocked_evaluation_matches_small_calls(spline10, theta10, rng):
    """Inputs spanning several evaluation blocks give, element for element,
    what calls on short pieces give, both tails and every knot included; an
    ``out`` that is not C-contiguous is refused (tests/test_layers.py checks
    the rest of ``out``)."""
    kn = sp.make_knots(spline10, theta10)
    x = rng.uniform(-0.1, 1.1, (3, sp._BLOCK + 5))
    x[0, :kn.x.size] = kn.x
    gy, gl = rng.normal(0, 1, x.shape), rng.normal(0, 1, x.shape)
    y, ld, res = sp.forward(spline10, theta10, x)
    assert res.lo is not None and res.hi is not None
    with pytest.raises(ValueError, match="C-contiguous"):
        sp.forward(spline10, theta10, x, out=np.empty(x.shape + (2,))[..., 0])
    gx, gth = sp.vjp(spline10, theta10, x, gy, gl, res=res)
    x_back = sp.inverse(spline10, theta10, y)
    gth_parts = np.zeros_like(gth)
    for r in range(3):
        for piece in np.array_split(np.arange(x.shape[1]), 7):
            y_p, ld_p, _ = sp.forward(spline10, theta10, x[r, piece])
            assert np.array_equal(y_p, y[r, piece]) and np.array_equal(ld_p, ld[r, piece])
            assert np.array_equal(sp.inverse(spline10, theta10, y_p), x_back[r, piece])
            gx_p, gth_p = sp.vjp(spline10, theta10, x[r, piece], gy[r, piece], gl[r, piece])
            assert np.array_equal(gx_p, gx[r, piece])
            gth_parts += gth_p
    assert np.allclose(gth_parts, gth, rtol=1e-9, atol=1e-9 * np.abs(gth).max())


def test_spline_ops_are_total(spline10, theta10):
    """The interval edges and both linear tails belong to the map: the
    log-derivative is log d_0 at 0 and below it, and log d_K above 1."""
    kn = sp.make_knots(spline10, theta10)
    ld = sp.forward(spline10, theta10, np.array([0.0, -2.0, 1.5]))[1]
    assert np.abs(ld - np.log(kn.d[[0, 0, -1]])).max() <= 1e-12


def test_memoised_knots_are_read_only(spline10, theta10):
    """Every array of the shared knots refuses writes, both grid tables included."""
    kn = sp.make_knots(spline10, theta10)
    arrays = [a for a in kn if isinstance(a, np.ndarray)] + [*kn.x_grid, *kn.y_grid]
    assert len(arrays) == len(kn) + 2
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0
    assert sp.make_knots(spline10, theta10.copy()) is kn


def test_knot_memo_is_keyed_by_the_knot_count(rng):
    """Equal parameter bytes under another ``n_knots`` give other knots: here
    a vector of 5-knot parameters, which does not fit 4 knots, raises rather
    than coming back as the cached 5-knot constants."""
    theta = rng.normal(0.0, 1.0, RqsSpline(5).n_params)
    assert sp.make_knots(RqsSpline(5), theta).x.size == 5
    with pytest.raises(ValueError):
        sp.make_knots(RqsSpline(4), theta)
    for n_knots in (2, 3, 4):
        zeros = np.zeros(RqsSpline(n_knots).n_params)
        assert sp.make_knots(RqsSpline(n_knots), zeros).x.size == n_knots
