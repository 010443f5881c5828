import numpy as np
import pytest
from scipy.integrate import quad

from conftest import ALL_KINDS, make_model, random_batch
from tppflow import transforms as tr
from tppflow.tpp import _append_horizon


# ---------------------------------------------------------------------------
# cumsum / diff


def test_cumsum_layer_examples():
    for y in (tr.Cumsum().forward(np.array([1.0, 2.0, 3.0]), None)[0],
              tr.Diff().inverse(np.array([1.0, 2.0, 3.0]), None)):
        assert np.array_equal(y, [1.0, 3.0, 6.0])
    assert tr.Cumsum().forward(np.zeros((2, 0)), None)[0].shape == (2, 0)
    assert tr.Diff().inverse(np.zeros((2, 0)), None).shape == (2, 0)


def test_cumsum_layer_matches_sequential_accumulation(rng):
    x = rng.uniform(0, 1, (2, 500_000))
    sequential = np.add.accumulate(x, axis=1)
    assert np.array_equal(tr.Cumsum().forward(x, None)[0], sequential)
    assert np.array_equal(tr.Diff().inverse(x, None), sequential)
    # trailing zeros (padded gaps) leave every prefix sum unchanged
    padded = np.concatenate([x, np.zeros((2, 300))], axis=1)
    y = tr.Cumsum().forward(padded, None)[0]
    assert np.array_equal(y[:, :x.shape[1]], sequential)
    assert np.all(y[:, x.shape[1]:] == sequential[:, -1:])


def test_pairwise_diff_examples(rng):
    assert np.array_equal(tr.pairwise_diff(np.array([1.0, 3.0, 6.0])), [1.0, 2.0, 3.0])
    x = rng.normal(0, 1, (4, 300))
    assert np.abs(tr.pairwise_diff(tr.Cumsum().forward(x, None)[0]) - x).max() < 1e-12
    inc = np.sort(rng.uniform(0, 5, 50))
    assert np.all(tr.pairwise_diff(inc) > 0)


def test_cumsum_diff_transposed_operators_match_dense(rng):
    n = 7
    ones = np.tril(np.ones((n, n)))            # Jacobian of Cumsum
    diff = np.linalg.inv(ones)                 # Jacobian of Diff
    g = rng.normal(0, 1, (3, n))
    x = rng.normal(0, 1, (3, n))
    for layer, jac in ((tr.Cumsum(), ones), (tr.Diff(), diff)):
        g_x, g_p = layer.vjp(x, None, g, np.zeros_like(g))
        assert g_p is None
        assert np.abs(g_x - g @ jac).max() < 1e-12
        assert np.abs(layer.inv_jac_t(x, None, g) - g @ np.linalg.inv(jac)).max() < 1e-12


# ---------------------------------------------------------------------------
# bridges


def test_bridge_closed_forms():
    y, ld, _ = tr.Bridge("psi").forward(np.array([np.log(2.0)]), None)
    assert y[0] == pytest.approx(0.5, abs=1e-15)
    assert ld[0] == pytest.approx(-np.log(2.0), abs=1e-15)
    y, ld, _ = tr.Bridge("sigmoid").forward(np.array([0.0]), None)
    assert y[0] == 0.5
    assert ld[0] == pytest.approx(np.log(0.25), abs=1e-15)
    y, ld, _ = tr.FixedScale(1.0 / 100.0).forward(np.array([25.0]), None)
    assert y[0] == pytest.approx(0.25)
    assert ld[0] == pytest.approx(-np.log(100.0))


def test_sigmoid_log_derivative_matches_direct_form(rng):
    x = np.concatenate([rng.normal(0, 3, 200), [-40.0, -700.0, 40.0, 700.0]])
    y, ld, _ = tr.Bridge("sigmoid").forward(x, None)
    assert np.all((y >= 0) & (y <= 1)) and np.all(np.isfinite(ld))
    mid = np.abs(x) < 20
    direct = np.log(y[mid] * (1.0 - y[mid]))
    assert np.abs(ld[mid] - direct).max() < 1e-12
    assert np.abs(ld[np.abs(x) == 700.0] + 700.0).max() < 1e-12


def test_bridge_inverse_pairs(rng):
    for kind in ("psi", "psi_inv", "sigmoid", "logit"):
        layer = tr.Bridge(kind)
        x = rng.uniform(0.05, 0.95, 100) if kind in ("psi_inv", "logit") \
            else (rng.uniform(0.1, 5, 100) if kind == "psi" else rng.normal(0, 2, 100))
        y, _, _ = layer.forward(x, None)
        assert np.abs(layer.inverse(y, None) - x).max() < 1e-12


def test_bridge_domain_errors():
    with pytest.raises(tr.DomainError, match="psi"):
        tr.Bridge("psi").forward(np.array([-0.5]), None)
    with pytest.raises(tr.DomainError, match="psi_inv"):
        tr.Bridge("psi_inv").forward(np.array([1.5]), None)
    with pytest.raises(tr.DomainError, match="logit"):
        tr.Bridge("logit").forward(np.array([-0.2]), None)
    with pytest.raises(ValueError):
        tr.FixedScale(-1.0)
    with pytest.raises(ValueError):
        tr.Bridge("nope")


# ---------------------------------------------------------------------------
# block-diagonal layers


def dense_block_matrix(block: tr.BlockDiag, theta, n: int) -> np.ndarray:
    """Window of the infinite block-diagonal operator, built independently."""
    b = block.matrix(theta)
    h, o = block.size, block.offset
    out = np.zeros((n, n))
    start = o - h if o else 0
    while start < n:
        for i in range(h):
            for j in range(h):
                gi, gj = start + i, start + j
                if 0 <= gi < n and 0 <= gj < n:
                    out[gi, gj] = b[i, j]
        start += h
    return out


def test_block_identity_and_2x2_example():
    blk = tr.BlockDiag("b", 2, 0)
    y, ld, _ = blk.forward(np.array([[1.0, 1.0]]), np.zeros(3))
    assert np.array_equal(y, [[1.0, 1.0]]) and np.array_equal(ld, [[0.0, 0.0]])
    theta = np.array([np.log(2.0), 0.0, 1.0])   # [[2, 0], [1, 1]]
    y, ld, _ = blk.forward(np.array([[1.0, 1.0]]), theta)
    assert np.allclose(y, [[2.0, 2.0]])
    assert np.allclose(ld, [[np.log(2.0), 0.0]])


@pytest.mark.parametrize("offset", [0, 2])
def test_block_forward_matches_dense_oracle(rng, offset):
    blk = tr.BlockDiag("b", 4, offset)
    theta = rng.normal(0, 0.7, blk.n_params)
    x = rng.normal(0, 1, (3, 10))
    y, ld, _ = blk.forward(x, theta)
    dense = dense_block_matrix(blk, theta, 10)
    assert np.abs(y - x @ dense.T).max() < 1e-13
    assert np.abs(np.exp(ld) - np.diag(dense)).max() < 1e-13
    assert np.abs(blk.inverse(y, theta) - x).max() < 1e-10
    solve = np.linalg.solve(dense, y[0])
    assert np.abs(blk.inverse(y, theta)[0] - solve).max() < 1e-12


def test_block_window_consistency(rng):
    # widening the batch must not change earlier columns (causal operator)
    blk = tr.BlockDiag("b", 4, 2)
    theta = rng.normal(0, 0.5, blk.n_params)
    x = rng.normal(0, 1, (2, 9))
    y_small, _, _ = blk.forward(x, theta)
    y_big, _, _ = blk.forward(np.concatenate([x, rng.normal(0, 1, (2, 6))], axis=1), theta)
    assert np.array_equal(y_big[:, :9], y_small)


def test_block_round_trip(rng):
    blk = tr.BlockDiag("b", 4, 0)
    theta = rng.normal(0, 0.5, blk.n_params)
    x = rng.normal(0, 1, (2, 8))
    y, _, _ = blk.forward(x, theta)
    assert np.abs(blk.inverse(y, theta) - x).max() < 1e-10


def test_block_validation():
    with pytest.raises(ValueError):
        tr.BlockDiag("b", 3, 0)    # odd size
    with pytest.raises(ValueError):
        tr.BlockDiag("b", 4, 5)    # offset out of range


# ---------------------------------------------------------------------------
# composed chains


def test_compose_hpp_example():
    model = make_model("hpp", horizon=1.0, noise=0.0, rate_init=2.0)
    z, ld = tr.compose_forward(np.array([[0.5, 1.0]]), model.spec, model.params)
    assert np.allclose(z, [[1.0, 2.0]])
    assert np.allclose(ld, np.log(2.0))
    t = tr.compose_inverse(np.array([[1.0, 2.0]]), model.spec, model.params)
    assert np.allclose(t, [[0.5, 1.0]])


def test_identity_tritpp_equals_hpp_map(rng):
    tri = make_model("tritpp", horizon=10.0, noise=0.0, rate_init=2.0)
    hpp = make_model("hpp", horizon=10.0, noise=0.0, rate_init=2.0)
    batch = random_batch(rng, 4, 10.0)
    times, _ = _append_horizon(batch)
    z0, _ = tr.compose_forward(times, hpp.spec, hpp.params)
    z1, _ = tr.compose_forward(times, tri.spec, tri.params)
    assert np.abs(z0 - z1).max() < 1e-12


def conditional_compensator(model, history, u):
    """z at the next position given a fixed event prefix."""
    row = np.concatenate([history, [u]])[None, :]
    z, _ = tr.compose_forward(row, model.spec, model.params, validate=False)
    return float(z[0, -1])


@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
def test_mrp_compensator_matches_quadrature(rng):
    model = make_model("mrp", horizon=5.0, seed=3, noise=0.5, rate_init=1.5)
    events = np.sort(rng.uniform(0.3, 4.5, 6))

    def intensity(u, history):
        h = 1e-7
        left = history[-1] if len(history) else 0.0
        lo = max(u - h, left)
        return (conditional_compensator(model, history, u + h)
                - conditional_compensator(model, history, lo)) / (u + h - lo)

    bounds = np.concatenate([[0.0], events, [5.0]])
    total = 0.0
    for i in range(len(bounds) - 1):
        history = events[:i]
        val, _ = quad(intensity, bounds[i], bounds[i + 1], args=(history,),
                      limit=200, epsabs=1e-10, epsrel=1e-10)
        total += val
    row = np.concatenate([events, [5.0]])[None, :]
    z, _ = tr.compose_forward(row, model.spec, model.params)
    assert z[0, -1] == pytest.approx(total, abs=1e-6)


def test_round_trip_and_monotonicity_random_models(rng):
    for trial in range(60):
        kind = ALL_KINDS[trial % len(ALL_KINDS)]
        model = make_model(kind, horizon=10.0, seed=trial, noise=0.35,
                           rate_init=float(rng.uniform(0.5, 2.0)))
        batch = random_batch(rng, 3, 10.0, min_events=12, max_events=40)
        times, _ = _append_horizon(batch)
        z, _ = tr.compose_forward(times, model.spec, model.params)
        assert np.all(np.diff(z, axis=1) >= -1e-12), kind
        back = tr.compose_inverse(z, model.spec, model.params)
        assert np.abs(back - times).max() < 1e-8, kind


def test_inverse_matches_bisection(rng):
    model = make_model("mrp", horizon=10.0, seed=5, noise=0.5)
    z_row = np.sort(rng.uniform(0.5, 6.0, 5))[None, :]
    t = tr.compose_inverse(z_row, model.spec, model.params)
    # independent per-element bisection on the forward map
    for j in range(5):
        lo, hi = (t[0, j - 1] if j else 0.0), 40.0
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            if conditional_compensator(model, t[0, :j], mid) < z_row[0, j]:
                lo = mid
            else:
                hi = mid
        assert t[0, j] == pytest.approx(0.5 * (lo + hi), abs=1e-8)


def test_padding_invariance_bitwise(rng):
    model = make_model("tritpp", horizon=10.0, seed=2, noise=0.5)
    batch = random_batch(rng, 4, 10.0)
    times, _ = _append_horizon(batch)
    z, ld = tr.compose_forward(times, model.spec, model.params)
    wider = np.concatenate([times, np.full((4, 6), 10.0)], axis=1)
    z2, ld2 = tr.compose_forward(wider, model.spec, model.params)
    assert np.array_equal(z2[:, :times.shape[1]], z)
    assert np.array_equal(ld2[:, :times.shape[1]], ld)
    assert np.array_equal(z2[:, -1], z[:, -1])


def test_jacobian_determinant_small_n(rng):
    for kind in ALL_KINDS:
        model = make_model(kind, horizon=10.0, seed=11, noise=0.4)
        t = np.sort(rng.uniform(0.5, 9.5, (1, 8)), axis=1)
        z, ld = tr.compose_forward(t, model.spec, model.params)
        jac = np.zeros((8, 8))
        for c in range(8):
            e = np.zeros_like(t)
            e[0, c] = 1e-6
            zp, _ = tr.compose_forward(t + e, model.spec, model.params, validate=False)
            zm, _ = tr.compose_forward(t - e, model.spec, model.params, validate=False)
            jac[:, c] = (zp - zm).ravel() / 2e-6
        assert np.abs(np.triu(jac, 1)).max() < 1e-8   # lower triangular
        _, logdet = np.linalg.slogdet(jac)
        assert logdet == pytest.approx(float(ld.sum()), rel=1e-6)


def test_domain_error_names_layer():
    model = make_model("mrp", horizon=10.0, noise=0.0)
    bad = np.array([[3.0, 2.0, 5.0]])   # decreasing -> negative gap
    with pytest.raises(ValueError, match="non-decreasing"):
        tr.compose_forward(bad, model.spec, model.params)
    with pytest.raises(tr.DomainError, match="psi"):
        tr.compose_forward(bad, model.spec, model.params, validate=False)


# ---------------------------------------------------------------------------
# chain vjp


def test_chain_vjp_zero_cotangents(rng):
    model = make_model("tritpp", horizon=10.0, seed=4, noise=0.5)
    batch = random_batch(rng, 2, 10.0)
    times, _ = _append_horizon(batch)
    g, gt = tr.chain_vjp(times, model.spec, model.params,
                         np.zeros_like(times), np.zeros_like(times))
    assert np.array_equal(g, np.zeros_like(g))
    assert np.array_equal(gt, np.zeros_like(gt))


def test_chain_vjp_hpp_score():
    model = make_model("hpp", horizon=10.0, noise=0.0, rate_init=2.0)
    batch = random_batch(np.random.default_rng(1), 3, 10.0)
    times, mask = _append_horizon(batch)
    cot_z = np.zeros_like(times)
    cot_z[:, -1] = -1.0
    g, _ = tr.chain_vjp(times, model.spec, model.params, cot_z, mask)
    # d log p / d log(rate) = N - rate * T summed over rows
    n_total = mask.sum()
    expected = n_total - 2.0 * 10.0 * 3
    assert g[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_chain_vjp_matches_finite_differences(rng, kind):
    model = make_model(kind, horizon=10.0, seed=8, noise=0.4)
    batch = random_batch(rng, 3, 10.0)
    times, _ = _append_horizon(batch)
    cot_z = rng.normal(0, 1, times.shape)
    cot_ld = rng.normal(0, 1, times.shape)
    g, _ = tr.chain_vjp(times, model.spec, model.params, cot_z, cot_ld)

    def objective(values):
        store = tr.ParamStore(model.params.names, model.params.slices, values)
        z, ld = tr.compose_forward(times, model.spec, store)
        return float((cot_z * z).sum() + (cot_ld * ld).sum())

    h = 1e-5
    base = model.params.values
    for i in range(base.size):
        e = np.zeros_like(base)
        e[i] = h
        num = (objective(base + e) - objective(base - e)) / (2 * h)
        denom = max(abs(num), abs(g[i]), 1e-6)
        assert abs(num - g[i]) / denom < 1e-5, f"{kind} param {i}"


def test_chain_vjp_padded_batch_in_spline_tails(rng):
    """Times past the horizon push the first spline into its upper tail and
    padding pins the trailing zero gaps; the kept forward records give the
    same outputs as the plain forward pass and exact gradients."""
    model = make_model("tritpp", horizon=10.0, seed=8, noise=0.4)
    times = np.full((3, 26), 13.0)
    for r, n in enumerate((25, 12, 4)):
        times[r, :n] = np.sort(rng.uniform(0.0, 13.0, n))
    z, ld = tr.compose_forward(times, model.spec, model.params)
    cache = tr.compose_forward_cached(times, model.spec, model.params)
    assert np.array_equal(cache.z, z) and np.array_equal(cache.logdiag, ld)
    assert cache.pins[-1] is not None and cache.pins[-1].sum() >= 21
    first_spline = next(r for layer, r in zip(model.spec.layers, cache.residuals)
                        if isinstance(layer, tr.Spline))
    assert first_spline.hi is not None and first_spline.hi.sum() >= 3

    cot_z = rng.normal(0, 1, times.shape)
    cot_ld = rng.normal(0, 1, times.shape)
    g, g_t = tr.chain_vjp(times, model.spec, model.params, cot_z, cot_ld)

    def objective(values, t=times):
        store = tr.ParamStore(model.params.names, model.params.slices, values)
        z, ld = tr.compose_forward(t, model.spec, store)
        return float((cot_z * z).sum() + (cot_ld * ld).sum())

    def check(num, grad, what):
        assert abs(num - grad) / max(abs(num), abs(grad), 1e-6) < 1e-5, what

    h = 1e-5
    base = model.params.values
    for i in range(base.size):
        e = np.zeros_like(base)
        e[i] = h
        check((objective(base + e) - objective(base - e)) / (2 * h), g[i], f"param {i}")
    assert np.all(g_t[cache.pins[-1]] == 0.0)    # pinned padding passes no cotangent
    # event times only: moving a padded time would unpin its zero gap
    for r, n in enumerate((25, 12, 4)):
        for j in range(n):
            e = np.zeros_like(times)
            e[r, j] = 1e-6
            num = (objective(base, times + e) - objective(base, times - e)) / 2e-6
            check(num, g_t[r, j], f"time {r}, {j}")
