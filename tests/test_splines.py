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
    y, ld = sp.forward(spline10, theta, np.array([0.3]))
    assert y[0] == pytest.approx(0.3, abs=1e-15)
    assert ld[0] == pytest.approx(0.0, abs=1e-14)


def test_boundary_pinned(spline10, theta10):
    x = np.array([1e-9, 1 - 1e-9])
    y, _ = sp.forward(spline10, theta10, x)
    assert 0 < y[0] < 1e-5
    assert 1 - 1e-5 < y[1] < 1


def test_matches_direct_formula_and_numeric_slope(spline10, theta10):
    knots = sp.make_knots(spline10, theta10)
    x = np.array([0.5])
    y, ld = sp.forward(spline10, theta10, x)
    ref_y, ref_d = reference_bin_eval(knots, 0.5)
    assert y[0] == pytest.approx(ref_y, rel=1e-12)
    h = 1e-6
    yp, _ = sp.forward(spline10, theta10, x + h)
    ym, _ = sp.forward(spline10, theta10, x - h)
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
    y2, _ = sp.forward(spline10, theta10, x)
    assert np.abs(y2 - y).max() < 1e-10


def test_inverse_matches_bisection(spline10, theta10):
    target = 0.25
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        val, _ = sp.forward(spline10, theta10, np.array([mid]))
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
        y_lo, ld_lo = sp.forward(spline10, theta10, np.array([xk - eps]))
        y_hi, ld_hi = sp.forward(spline10, theta10, np.array([xk + eps]))
        assert abs(y_hi[0] - y_lo[0]) < 1e-12
        assert abs(np.exp(ld_hi[0]) - np.exp(ld_lo[0])) < 1e-9 * max(1.0, np.exp(ld_lo[0]))


def test_monotone_increasing_bijection(spline10, theta10, rng):
    x = np.sort(rng.uniform(0, 1, 2000))
    y, _ = sp.forward(spline10, theta10, x)
    assert np.all(np.diff(y) > 0)
    assert y.min() > 0 and y.max() < 1
    knots = sp.make_knots(spline10, theta10)
    assert np.all(np.diff(knots.x) >= sp.MIN_BIN - 1e-12)
    assert np.all(np.diff(knots.y) >= sp.MIN_BIN - 1e-12)
    assert np.all(knots.d >= sp.MIN_DERIV)


def test_linear_tails_round_trip(spline10, theta10):
    x = np.array([-2.0, 1.5, 40.0])
    y, ld = sp.forward(spline10, theta10, x)
    knots = sp.make_knots(spline10, theta10)
    assert ld[0] == pytest.approx(np.log(knots.d[0]))
    assert ld[1] == pytest.approx(np.log(knots.d[-1]))
    assert np.abs(sp.inverse(spline10, theta10, y) - x).max() < 1e-12


def test_vjp_matches_finite_differences(spline10, theta10, rng):
    x = np.concatenate([rng.uniform(0.02, 0.98, 40), [1.3, -0.4]])
    gy = rng.normal(0, 1, x.shape)
    gl = rng.normal(0, 1, x.shape)
    gx, gth = sp.vjp(spline10, theta10, x, gy, gl)

    def objective(theta, xs):
        y, ld = sp.forward(spline10, theta, xs)
        return float((gy * y).sum() + (gl * ld).sum())

    eps = 1e-6
    for i in range(spline10.n_params):
        e = np.zeros(spline10.n_params)
        e[i] = eps
        num = (objective(theta10 + e, x) - objective(theta10 - e, x)) / (2 * eps)
        assert gth[i] == pytest.approx(num, rel=2e-5, abs=1e-7)
    for j in range(0, 42, 7):
        e = np.zeros_like(x)
        e[j] = eps
        num = (objective(theta10, x + e) - objective(theta10, x - e)) / (2 * eps)
        assert gx[j] == pytest.approx(num, rel=2e-5, abs=1e-7)


def test_spline_ops_are_total(spline10, theta10):
    """The interval edges and both linear tails belong to the map: nothing
    outside (0, 1) is rejected."""
    d0 = sp.make_knots(spline10, theta10).d[0]
    y, ld = sp.forward(spline10, theta10, np.array([0.0, 0.4, 1.2]))
    assert y[0] == 0.0
    assert ld[0] == pytest.approx(np.log(d0), abs=1e-12)
    x = sp.inverse(spline10, theta10, np.concatenate([[-0.1], y]))
    assert np.abs(x - [-0.1 / d0, 0.0, 0.4, 1.2]).max() < 1e-12
