import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import ALL_KINDS, make_model, random_batch
from tppflow import transforms as tr
from tppflow.tpp import _append_horizon, log_prob_grad


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
    # written over their input, both layers give the same bits in both directions
    for layer in (tr.Cumsum(), tr.Diff()):
        for method in ("forward", "inverse"):
            fresh = getattr(layer, method)(x, None)
            own = x.copy()
            in_place = getattr(layer, method)(own, None, out=own)
            if method == "forward":
                fresh, in_place = fresh[0], in_place[0]
            assert in_place is own and np.array_equal(own, fresh), (layer, method)
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


def test_bridge_domain_errors():
    with pytest.raises(tr.DomainError, match="psi"):
        tr.Bridge("psi").forward(np.array([-0.5]), None)
    with pytest.raises(tr.DomainError, match="psi_inv"):
        tr.Bridge("psi_inv").forward(np.array([1.5]), None)
    with pytest.raises(tr.DomainError, match="logit"):
        tr.Bridge("logit").forward(np.array([-0.2]), None)


# ---------------------------------------------------------------------------
# block-diagonal layers


def test_memoised_block_matrices_are_read_only_and_keyed_by_size(rng):
    """The shared matrix refuses writes; equal parameter bytes under another
    block size are not served from the memo (here they do not fit, and raise)."""
    block = tr.BlockDiag("b", 4)
    theta = rng.normal(0.0, 0.3, block.n_params)
    b = block.matrix(theta)
    with pytest.raises(ValueError):
        b[0, 0] = 0.0
    assert tr.BlockDiag("c", 4, offset=2).matrix(theta.copy()) is b
    with pytest.raises(ValueError):
        tr.BlockDiag("b", 2).matrix(theta)
    assert tr.BlockDiag("b", 2).matrix(theta[:3]).shape == (2, 2)


def dense_block_matrix(block: tr.BlockDiag, theta, n: int, b=None) -> np.ndarray:
    """Window of the infinite block-diagonal operator, built independently
    (of ``block.matrix(theta)``, or of the H x H matrix ``b`` when given)."""
    b = block.matrix(theta) if b is None else b
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


@pytest.mark.parametrize("offset", [0, 3])
def test_block_row_blocks_match_dense(rng, monkeypatch, offset):
    # two rows per row block: 7 rows of width 23 span four blocks, the last ragged
    monkeypatch.setattr(tr, "_ROW_BLOCK", 64)
    blk, n = tr.BlockDiag("b", 6, offset), 23
    theta = rng.normal(0, 0.5, blk.n_params)
    x, g, gl, w = rng.normal(0, 1, (4, 7, n))
    dense = dense_block_matrix(blk, theta, n)
    y, ld, _ = blk.forward(x, theta)
    assert np.abs(y - x @ dense.T).max() < 1e-12
    assert np.abs(ld - np.log(np.diag(dense))).max() < 1e-12
    assert np.abs(blk.inverse(y, theta) - np.linalg.solve(dense, y.T).T).max() < 1e-12
    assert np.abs(blk.inv_jac_t(x, theta, w)[0] - np.linalg.solve(dense.T, w.T).T).max() < 1e-12
    g_x, g_p = blk.vjp(x, theta, g, gl)
    assert np.abs(g_x - g @ dense).max() < 1e-12
    # the dense operator is linear in the block's entries: differentiate it exactly
    h = blk.size
    entries = list(zip(range(h), range(h))) + list(zip(*np.tril_indices(h, -1)))
    expected = np.zeros(blk.n_params)
    for k, (i, j) in enumerate(entries):
        unit = np.zeros((h, h))
        unit[i, j] = np.exp(theta[k]) if k < h else 1.0
        d_dense = dense_block_matrix(blk, None, n, b=unit)
        expected[k] = (g.T @ x * d_dense).sum()
        if k < h:
            expected[k] += gl.sum(axis=0) @ (np.diag(d_dense) != 0)
    assert np.abs(g_p - expected).max() < 1e-12


@pytest.mark.parametrize("row_block", [64, tr._ROW_BLOCK])
@pytest.mark.parametrize("offset", [0, 3])
def test_block_rows_bitwise_alone_batched_and_padded(rng, monkeypatch, row_block, offset):
    """A row's outputs do not depend by a bit on the other rows of its batch,
    on the row blocks it falls in, or on appended columns (zero cotangents)."""
    monkeypatch.setattr(tr, "_ROW_BLOCK", row_block)
    blk, n = tr.BlockDiag("b", 6, offset), 23
    theta = rng.normal(0, 0.5, blk.n_params)
    x, g, gl, w = rng.normal(0, 1, (4, 7, n))

    def outputs(x, g, gl, w):
        y, ld, _ = blk.forward(x, theta)
        # written over their input, forward and inverse give the same bits
        own = x.copy()
        assert blk.forward(own, theta, out=own)[0] is own and np.array_equal(own, y)
        own = x.copy()
        assert blk.inverse(own, theta, out=own) is own
        assert np.array_equal(own, blk.inverse(x, theta))
        with pytest.raises(ValueError, match="C-contiguous"):
            blk.forward(x, theta, out=np.empty(x.shape + (2,))[..., 0])
        g_x, g_p = blk.vjp(x, theta, g, gl)
        return (y, ld, g_x, blk.inverse(x, theta), blk.inv_jac_t(x, theta, w)[0]), g_p

    full, g_p = outputs(x, g, gl, w)
    for r in range(7):
        alone, _ = outputs(x[r:r + 1], g[r:r + 1], gl[r:r + 1], w[r:r + 1])
        for a, b in zip(alone, full):
            assert np.array_equal(a[0], b[r])
    for k in (1, 7, 64):
        zeros = np.zeros((7, k))
        wide, g_p_wide = outputs(np.concatenate([x, rng.normal(0, 1, (7, k))], axis=1),
                                 *(np.concatenate([a, zeros], axis=1) for a in (g, gl, w)))
        for a, b in zip(wide, full):
            assert np.array_equal(a[:, :n], b), k
        assert np.abs(g_p_wide - g_p).max() < 1e-12


def test_sequential_inverter_reads_parameters_at_construction():
    """A store changed after construction does not reach the inverter: it
    steps bit for bit like one built on a copy of the old values."""
    model = make_model("tritpp", horizon=10.0, seed=3, noise=0.3, rate_init=2.0)
    z = np.cumsum(np.random.default_rng(1).exponential(1.0, (4, 30)), axis=1)
    reference = tr.SequentialInverter(model.spec, model.params.copy(), 4)
    inverter = tr.SequentialInverter(model.spec, model.params, 4)
    model.params.values += 0.3
    for j in range(z.shape[1]):
        assert np.array_equal(inverter.step(z[:, j]), reference.step(z[:, j]))


@pytest.mark.parametrize("layers", [(tr.Scale("rate"), tr.Diff(), tr.Cumsum()),
                                    (tr.BlockDiag("b", 4), tr.Scale("rate"))],
                         ids=["scale_diff_cumsum", "block_scale"])
def test_sequential_inverter_refuses_a_column_of_the_wrong_length(layers):
    spec = tr.TransformSpec(layers)
    inverter = tr.SequentialInverter(spec, tr.build_param_store(spec), 1)
    with pytest.raises(ValueError, match=r"shape \(7,\).* length 1$"):
        inverter.step(np.ones(7))


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
    times = _append_horizon(batch.times, batch.horizon)
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
        times = _append_horizon(batch.times, batch.horizon)
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
    times = _append_horizon(batch.times, batch.horizon)
    z, ld = tr.compose_forward(times, model.spec, model.params)
    wider = np.concatenate([times, np.full((4, 6), 10.0)], axis=1)
    z2, ld2 = tr.compose_forward(wider, model.spec, model.params)
    assert np.array_equal(z2[:, :times.shape[1]], z)
    assert np.array_equal(ld2[:, :times.shape[1]], ld)
    assert np.array_equal(z2[:, -1], z[:, -1])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_inverse_padding_invariance_bitwise(rng, kind):
    """Inverting the forward output of a wider padded batch gives the
    narrower batch's inverse on the shared columns, bit for bit, and each
    row's padding comes back as one value repeated exactly."""
    model = make_model(kind, horizon=10.0, seed=2, noise=0.4)
    batch = random_batch(rng, 4, 10.0)
    times = _append_horizon(batch.times, batch.horizon)
    wider = np.concatenate([times, np.full((4, 6), 10.0)], axis=1)
    back, back_wide = (tr.compose_inverse(tr.compose_forward(t, model.spec, model.params)[0],
                                          model.spec, model.params) for t in (times, wider))
    assert np.array_equal(back_wide[:, :times.shape[1]], back)
    for row, n_events in zip(back_wide, batch.mask.sum(axis=1).astype(int)):
        assert np.all(row[n_events:] == row[n_events])


def test_spec_pins_one_run_from_diff_to_cumsum():
    """The pinned run is worked out once, from the Diff through the next
    Cumsum; a chain where it would be ill-defined is refused and the layer
    named, while every model kind builds and reloads with its run."""
    for kind in ALL_KINDS:
        spec = make_model(kind, noise=0.0).spec
        run = spec.pinned
        assert tr.TransformSpec.from_dict(spec.to_dict()).pinned == run
        if kind in ("hpp", "ipp"):
            assert len(run) == 0
        else:
            assert isinstance(spec.layers[run[0]], tr.Diff)
            assert isinstance(spec.layers[run[-1]], tr.Cumsum) and run[-1] == len(spec.layers) - 1
    scale, diff, cumsum = tr.Scale("s"), tr.Diff(), tr.Cumsum()
    for layers, index in (((scale, diff), 1),                      # no later Cumsum
                          ((cumsum, diff), 0),                     # no earlier Diff
                          ((diff, scale, cumsum, diff, cumsum), 3),  # a second pair
                          ((diff, diff, cumsum), 1),
                          ((diff, cumsum, cumsum), 2)):
        with pytest.raises(ValueError, match=f"layer {index} "):
            tr.TransformSpec(layers)


def _bench_model_and_batch(rng):
    """The bench chain at the bench shape: 100 rows of ~1400 events."""
    model = make_model("tritpp", horizon=100.0, seed=1, noise=0.05, rate_init=14.0,
                       n_knots=20, block_size=16, n_blocks=4)
    return model, random_batch(rng, 100, 100.0, 1300, 1500)


def test_uncached_passes_peak_at_few_batch_arrays(rng):
    """The uncached passes write every layer's output over one array of their
    own, and the forward makes no batch-sized log-diagonal for an elementwise
    layer: at the bench chain and shape (100 rows of ~1400 events), the traced
    peak of a forward pass stays within 3.5 batch-sized arrays (outputs
    included; measured 2.97) and that of an inverse pass within 3.5."""
    model, batch = _bench_model_and_batch(rng)
    times = _append_horizon(batch.times, batch.horizon)
    z = tr.compose_forward(times, model.spec, model.params)[0]
    for run, x, bound in ((tr.compose_forward, times, 3.5), (tr.compose_inverse, z, 3.5)):
        run(x, model.spec, model.params)
        tracemalloc.start()
        try:
            run(x, model.spec, model.params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * x.nbytes, (run.__name__, peak / x.nbytes)


def test_log_prob_grad_peaks_below_its_cache(rng, no_spare_workspaces):
    """``log_prob_grad`` consumes its cache: every layer's VJP writes its
    input cotangent over the sweep's own array, which starts in ``cache.z``,
    and the sweep hands the cache's workspace on to the next cached pass.  At
    the bench chain and shape the first call, which allocates the workspace
    (13.1 batch-sized arrays), peaks within 20 batch-sized arrays (measured
    18.5); a second call takes that workspace from the spare list and peaks
    within 6 (measured 5.4)."""
    model, batch = _bench_model_and_batch(rng)
    nbytes = _append_horizon(batch.times, batch.horizon).nbytes
    for bound in (20.0, 6.0):
        tracemalloc.start()
        try:
            log_prob_grad(model, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * nbytes, (bound, peak / nbytes)
    assert len(tr._SPARES) == 1


def test_cached_pass_keeps_only_what_the_sweep_reads(rng, no_spare_workspaces):
    """The cached pass keeps a workspace copy of each input a VJP reads
    (Scale, psi, logit, the four blocks, psi_inv) and the records (three
    splines, the sigmoid's output); every other layer's entry is the pass's
    own array, which ends as z.  So the bench chain's 15 layers keep 9
    distinct input arrays, and the cache holds at most 16 batch-sized arrays
    (measured 15.4: a workspace of 13.1, z and logdiag).  The sigmoid's record
    lives in the workspace, apart from z and every input.  A sweep that does
    not consume the cache leaves every entry as it was, and runs in place in
    its own cotangent: its traced peak stays below 3.8 batch-sized arrays
    (measured 3.3)."""
    model, batch = _bench_model_and_batch(rng)
    times = _append_horizon(batch.times, batch.horizon)
    tracemalloc.start()
    try:
        cache = tr.compose_forward_cached(times, model.spec, model.params)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 16.0 * times.nbytes, held / times.nbytes
    assert len({id(x) for x in cache.inputs}) == 9
    layers = model.spec.layers
    i = next(i for i, layer in enumerate(layers) if getattr(layer, "kind", None) == "sigmoid")
    record = cache.residuals[i]
    assert np.shares_memory(record, cache.workspace) and not np.shares_memory(record, cache.z)
    assert not any(np.shares_memory(record, x) for x in cache.inputs)
    before = [x.copy() for x in cache.inputs]
    mask = _append_horizon(batch.mask, 0.0)
    cot_z = rng.normal(0, 1, times.shape)
    tracemalloc.start()
    try:
        tr.chain_vjp_cached(cache, cot_z, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(x, b) for x, b in zip(cache.inputs, before))
    # every layer writes over the sweep's own cotangent: that copy of cot_z,
    # the masked cot_logdiag and the pin mask, not a fresh array per layer
    assert peak <= 3.8 * times.nbytes, peak / times.nbytes


def _cache_bits(cache):
    """The dtype and bytes of everything a cache holds, records field by field."""
    arrays = [cache.z, cache.logdiag, *cache.inputs]
    for res in cache.residuals:
        arrays += list(res) if isinstance(res, tuple) else [res]
    return [None if a is None else (a.dtype, a.tobytes()) for a in arrays]


def _tails_rows(rng):
    """Padded rows with times past the horizon: pins, and spline records with tails."""
    times = np.full((3, 26), 13.0)
    for r, n in enumerate((25, 12, 4)):
        times[r, :n] = np.sort(rng.uniform(0.0, 13.0, n))
    return times


def test_stale_spare_workspace_changes_no_bit(rng, no_spare_workspaces):
    """A spare workspace whose every byte is 0xFF (every float NaN, every
    mask and bin nonzero) gives a cached pass, its consuming sweep and
    ``log_prob_grad`` the bits they give in fresh memory: the pass writes
    every array it carves in full before anything reads it."""
    model = make_model("tritpp", horizon=10.0, seed=8, noise=0.4)
    batch = random_batch(rng, 7, 10.0, 5, 40)
    times = _tails_rows(rng)
    cot_z, cot_ld = rng.normal(0, 1, (2,) + times.shape)

    def poisoned():
        tr._SPARES[:] = [np.full(1 << 16, 0xFF, np.uint8)]

    fresh = tr.compose_forward_cached(times, model.spec, model.params)
    want_bits, want_sweep = _cache_bits(fresh), tr.chain_vjp_cached(fresh, cot_z, cot_ld, consume=True)
    want_lp = log_prob_grad(model, batch)
    poisoned()
    cache = tr.compose_forward_cached(times, model.spec, model.params)
    assert cache.workspace.nbytes == 1 << 16 and _cache_bits(cache) == want_bits
    for got, want in zip(tr.chain_vjp_cached(cache, cot_z, cot_ld, consume=True), want_sweep):
        assert got.tobytes() == want.tobytes()
    poisoned()
    for got, want in zip(log_prob_grad(model, batch), want_lp):
        assert got.tobytes() == want.tobytes()
    assert len(tr._SPARES) == 1 and tr._SPARES[0].nbytes == 1 << 16


def test_results_never_share_a_workspace(rng, no_spare_workspaces):
    """What a caller gets from the cached pass and its consumers (z and
    ``logdiag``, ``grad_times`` and the parameter gradients, ``log_prob_grad``'s
    values and gradient) shares no memory with any workspace and keeps its
    bytes while later cached passes at the same shape reuse the spares, two
    caches at a time as a VI step holds them; the spare list keeps at most 2
    of three consumed workspaces; and a cache that is never consumed keeps
    its own entries' bytes meanwhile."""
    model = make_model("tritpp", horizon=10.0, seed=8, noise=0.4)
    spec, store = model.spec, model.params
    batch = random_batch(rng, 7, 10.0, 5, 40)
    times = _append_horizon(batch.times, batch.horizon)
    drawn = tr.compose_inverse(np.cumsum(rng.exponential(1.0, times.shape), axis=1), spec, store)
    cot_z, cot_ld, w = rng.normal(0, 1, (3,) + times.shape)
    untouched = tr.compose_forward_cached(times, spec, store)
    untouched_bits = _cache_bits(untouched)
    free, swept = (tr.compose_forward_cached(t, spec, store) for t in (drawn, times))
    results = [free.z, free.logdiag, tr.inverse_jac_t_apply(free, w), swept.logdiag,
               *tr.chain_vjp_cached(swept, cot_z, cot_ld, consume=True), *log_prob_grad(model, batch)]
    saved = [a.copy() for a in results]
    for _ in range(3):
        free, swept = (tr.compose_forward_cached(t, spec, store) for t in (drawn, times))
        tr.chain_vjp_cached(swept, -cot_z, cot_ld, consume=True)
        tr.inverse_jac_t_apply(free, -w)
        log_prob_grad(model, batch)
    caches = [tr.compose_forward_cached(times, spec, store) for _ in range(3)]
    for cache in caches:
        tr.chain_vjp_cached(cache, cot_z, cot_ld, consume=True)
    assert len(tr._SPARES) == 2
    for a, b in zip(results, saved):
        assert a.tobytes() == b.tobytes()
        assert not any(np.shares_memory(a, ws) for ws in [untouched.workspace, *tr._SPARES])
    assert _cache_bits(untouched) == untouched_bits
    assert not any(np.shares_memory(untouched.workspace, ws) for ws in tr._SPARES)


def test_threads_take_their_own_workspaces(rng):
    """Three threads (more than this suite's two cores), each making 20
    ``log_prob_grad`` calls on its own batch of one shape with a short switch
    interval, get the bits of serial calls: no two live caches share a
    workspace, and the spare list is taken and given back under a lock."""
    model = make_model("tritpp", horizon=10.0, seed=3, noise=0.3)
    batches = [random_batch(rng, 40, 10.0, 400, 400) for _ in range(3)]
    serial = [log_prob_grad(model, b) for b in batches]
    results = [[] for _ in batches]

    def run(k):
        for _ in range(20):
            results[k].append(log_prob_grad(model, batches[k]))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(serial, results):
        assert len(got) == 20
        for lp, grad in got:
            assert lp.tobytes() == want[0].tobytes() and grad.tobytes() == want[1].tobytes()
    assert len(tr._SPARES) <= 2


def test_in_place_differences_make_no_batch_temporary(rng):
    """``pairwise_diff(x, out=x)`` and its transpose walk ``x`` through a
    small buffer: run in place at the bench shape, as the cached pass and a
    consuming sweep run them, ``Diff.forward``, ``Cumsum.inverse``,
    ``Diff.vjp`` and ``Cumsum.vjp`` peak at a tenth of a batch-sized array
    and give the bits of a fresh output.  So does ``Scale.vjp``, which sums
    g_y * x with no product array."""
    x = np.cumsum(rng.uniform(0.0, 1.0, (100, 1501)), axis=1)
    diff = np.concatenate([x[:, :1], np.diff(x, axis=1)], axis=1)
    diff_t = np.concatenate([x[:, :-1] - x[:, 1:], x[:, -1:]], axis=1)
    zeros = np.zeros_like(x)
    p = np.array([0.3])
    runs = ((tr.Diff().forward, lambda a: tr.Diff().forward(a, None, out=a), diff),
            (tr.Cumsum().inverse, lambda a: tr.Cumsum().inverse(a, None, out=a), diff),
            (tr.Diff().vjp, lambda a: tr.Diff().vjp(a, None, a, zeros, out=a), diff_t),
            (tr.Cumsum().vjp, lambda a: tr.Cumsum().vjp(a, None, a, zeros, out=a),
             np.cumsum(x[:, ::-1], axis=1)[:, ::-1]),
            (tr.Scale.vjp, lambda a: tr.Scale("s").vjp(diff, p, a, zeros, out=a), np.exp(0.3) * x))
    for method, run, expected in runs:
        own = x.copy()
        run(own)
        assert np.array_equal(own, expected), method.__qualname__
        own = x.copy()
        tracemalloc.start()
        try:
            run(own)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * x.nbytes, (method.__qualname__, peak / x.nbytes)


@pytest.mark.parametrize("shape", [(1,), (2,), (1, 1), (3, 1), (2, 3, 4), (5, 8191), (2, 8193),
                                   (7, 20000), (0,), (4, 0), (0, 3)])
def test_diff_transpose_matches_reversed_pairwise_diff_bitwise(shape, rng):
    """``_diff_t`` (the ``Diff`` VJP, the ``Cumsum`` ``inv_jac_t``) walks
    left to right and gives the bits of its definition as ``pairwise_diff``
    of the reversed array: into a fresh array and over its own input, on
    rows shorter and longer than a block, on empty and on strided inputs."""
    flip = (slice(None, None, -1),) * len(shape)
    x = rng.normal(0, 1, shape)
    expected = tr.pairwise_diff(x[flip])[flip]
    assert np.array_equal(tr._diff_t(x), expected)
    own = x.copy()
    assert tr._diff_t(own, out=own) is own and np.array_equal(own, expected)
    assert np.array_equal(tr.Diff().vjp(None, None, x, None)[0], expected)
    strided = rng.normal(0, 1, shape[:-1] + (2 * shape[-1],))[..., ::2]
    assert np.array_equal(tr._diff_t(strided), tr.pairwise_diff(strided[flip])[flip])
    assert np.array_equal(tr.Cumsum().inv_jac_t(None, None, strided)[0],
                          tr.pairwise_diff(strided[flip])[flip])


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
    times = _append_horizon(batch.times, batch.horizon)
    cache = tr.compose_forward_cached(times, model.spec, model.params)
    g, gt = tr.chain_vjp_cached(cache, np.zeros_like(times), np.zeros_like(times))
    assert np.array_equal(g, np.zeros_like(g))
    assert np.array_equal(gt, np.zeros_like(gt))


def test_chain_vjp_hpp_score():
    model = make_model("hpp", horizon=10.0, noise=0.0, rate_init=2.0)
    batch = random_batch(np.random.default_rng(1), 3, 10.0)
    times = _append_horizon(batch.times, batch.horizon)
    mask = _append_horizon(batch.mask, 0.0)
    cot_z = np.zeros_like(times)
    cot_z[:, -1] = -1.0
    g, _ = tr.chain_vjp_cached(tr.compose_forward_cached(times, model.spec, model.params),
                               cot_z, mask)
    # d log p / d log(rate) = N - rate * T summed over rows
    n_total = mask.sum()
    expected = n_total - 2.0 * 10.0 * 3
    assert g[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_chain_vjp_matches_finite_differences(rng, kind):
    model = make_model(kind, horizon=10.0, seed=8, noise=0.4)
    batch = random_batch(rng, 3, 10.0)
    times = _append_horizon(batch.times, batch.horizon)
    cot_z = rng.normal(0, 1, times.shape)
    cot_ld = rng.normal(0, 1, times.shape)
    g, _ = tr.chain_vjp_cached(tr.compose_forward_cached(times, model.spec, model.params),
                               cot_z, cot_ld)

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


def test_forward_without_cache_builds_no_spline_records(rng, monkeypatch):
    """``compose_forward`` keeps nothing, so no spline builds a record; its
    outputs equal the cached pass's bit for bit, tails and padding included."""
    model = make_model("tritpp", horizon=10.0, seed=8, noise=0.4)
    times = _tails_rows(rng)
    cache = tr.compose_forward_cached(times, model.spec, model.params)
    assert cache.pins[-1] is not None
    assert any(res.hi is not None for layer, res in zip(model.spec.layers, cache.residuals)
               if isinstance(layer, tr.Spline))

    def no_records(*args):
        raise AssertionError("compose_forward built a spline record")

    monkeypatch.setattr(tr.sp, "Residuals", no_records)
    z, ld = tr.compose_forward(times, model.spec, model.params)
    assert np.array_equal(z, cache.z) and np.array_equal(ld, cache.logdiag)


def test_chain_vjp_padded_batch_in_spline_tails(rng):
    """Times past the horizon push the first spline into its upper tail and
    padding pins the trailing zero gaps; the kept forward records give the
    same outputs as the plain forward pass and exact gradients."""
    model = make_model("tritpp", horizon=10.0, seed=8, noise=0.4)
    times = _tails_rows(rng)
    z, ld = tr.compose_forward(times, model.spec, model.params)
    cache = tr.compose_forward_cached(times, model.spec, model.params)
    assert np.array_equal(cache.z, z) and np.array_equal(cache.logdiag, ld)
    assert cache.pins[-1] is not None and cache.pins[-1].sum() >= 21
    first_spline = next(r for layer, r in zip(model.spec.layers, cache.residuals)
                        if isinstance(layer, tr.Spline))
    assert first_spline.hi is not None and first_spline.hi.sum() >= 3

    cot_z = rng.normal(0, 1, times.shape)
    cot_ld = rng.normal(0, 1, times.shape)
    g, g_t = tr.chain_vjp_cached(cache, cot_z, cot_ld)

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
