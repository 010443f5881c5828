"""Invariants over seeded random models (``conftest.random_model``)."""
import numpy as np
import pytest

from conftest import RANDOM_CHAINS, random_model
from tppflow import splines as sp
from tppflow import tpp
from tppflow import transforms as tr
from tppflow.seqdata import EventSequence, PaddedBatch, pad_batch
from tppflow.tpp import _append_horizon


def _rows(rng, horizon, n_rows=6, max_events=20):
    """A padded batch with one empty row and one unpadded row."""
    counts = [0, max_events] + [int(c) for c in rng.integers(1, max_events, n_rows - 2)]
    return pad_batch([EventSequence(np.sort(rng.uniform(0.0, horizon, n)), horizon)
                      for n in counts])


def _padded_wider(batch, extra=7):
    pad = ((0, 0), (0, extra))
    return PaddedBatch(np.pad(batch.times, pad, constant_values=batch.horizon),
                       np.pad(batch.mask, pad), batch.horizon)


@pytest.mark.parametrize("seed", range(8))
def test_random_models_are_bitwise_padding_invariant(seed):
    """On random models of every chain, extra padding columns change no bit
    of ``z``, ``logdiag``, the inverse on the shared columns or the row log
    densities; ``z`` repeats Lambda(T) over each row's padding and the
    inverse gives that padding back as one value repeated exactly;
    ``log_prob_grad`` gives the bits of ``log_prob``; and a kept and a
    consumed cache give the same gradients, with a time cotangent of exactly
    0 at the padded positions pinned in the chain."""
    rng = np.random.default_rng(seed)
    for chain in RANDOM_CHAINS:
        model = random_model(rng, chain)
        spec, store = model.spec, model.params
        batch = _rows(rng, model.horizon)
        wide = _padded_wider(batch)
        counts = batch.mask.sum(axis=1).astype(int)
        times = _append_horizon(batch.times, batch.horizon)
        n = times.shape[1]
        z, ld = tr.compose_forward(times, spec, store)
        z_w, ld_w = tr.compose_forward(_append_horizon(wide.times, wide.horizon), spec, store)
        assert np.array_equal(z_w[:, :n], z) and np.array_equal(ld_w[:, :n], ld), chain
        back, back_w = tr.compose_inverse(z, spec, store), tr.compose_inverse(z_w, spec, store)
        assert np.array_equal(back_w[:, :n], back), chain
        for c, row, row_back in zip(counts, z_w, back_w):
            assert np.all(row[c:] == row[c]), chain
            assert np.all(row_back[c:] == row_back[c]), chain
        lp = tpp.log_prob(model, batch)
        assert np.array_equal(tpp.log_prob(model, wide), lp), chain
        assert np.array_equal(tpp.log_prob_grad(model, batch)[0], lp), chain

        cache = tr.compose_forward_cached(times, spec, store)
        pin = cache.pins[-1]
        assert (pin is not None) == (len(spec.pinned) > 0), chain
        # log-diagonal cotangents off the padding, as the row log densities give
        cot_z = rng.normal(0.0, 1.0, times.shape)
        cot_ld = rng.normal(0.0, 1.0, times.shape) * _append_horizon(batch.mask, 0.0)
        grad, g_t = tr.chain_vjp_cached(cache, cot_z, cot_ld)
        grad_c, g_t_c = tr.chain_vjp_cached(cache, cot_z, cot_ld, consume=True)
        assert np.array_equal(grad_c, grad) and np.array_equal(g_t_c, g_t), chain
        if pin is not None:
            assert np.all(g_t[pin] == 0.0), chain


def _layer_by_layer(times, spec, store):
    """The cached pass walked one layer at a time, each through its own
    ``forward(x, p, keep=True)`` into fresh arrays, with the pin rule of the
    ``transforms`` module docstring: the reference of the fused pass."""
    x, run, pin = np.array(times, dtype=np.float64), spec.pinned, None
    logdiag, inputs, records = np.zeros_like(x), [], []
    for i, layer in enumerate(spec.layers):
        y, ld, record = layer.forward(x, store.view(layer.name) if layer.n_params else None, True)
        logdiag = logdiag + ld
        if run and i == run.start:
            pin = tr._zeros_of(y)
            pinned_ld = None if pin is None else logdiag[pin]
        if pin is not None and i == run[-1] - 1:
            y = np.where(pin, 0.0, y)
        if pin is not None and i == run[-1]:
            logdiag[pin] = pinned_ld
        inputs.append(x)
        records.append(record)
        x = y
    pins = [pin if i in run else None for i in range(len(spec.layers))]
    return tr.ChainCache(spec, store, inputs, records, pins, x, logdiag)


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_fused_against_reference(times, spec, store, what):
    """Both forward passes against ``_layer_by_layer``: z and logdiag, every
    input a layer's VJP reads, every record field, and the gradients of
    every sweep over the two caches; all bit for bit."""
    ref, cache = _layer_by_layer(times, spec, store), tr.compose_forward_cached(times, spec, store)
    for z, ld in (tr.compose_forward(times, spec, store), (cache.z, cache.logdiag)):
        assert _same_bits(z, ref.z) and _same_bits(ld, ref.logdiag), what
    for layer, x, x_ref, res, res_ref in zip(spec.layers, cache.inputs, ref.inputs,
                                             cache.residuals, ref.residuals):
        assert not layer.reads_input or _same_bits(x, x_ref), (what, layer)
        fields = zip(res, res_ref) if isinstance(res, sp.Residuals) else [(res, res_ref)]
        assert all(_same_bits(a, b) for a, b in fields), (what, layer)
    cot_z, cot_ld, w = np.random.default_rng(5).normal(0.0, 1.0, (3,) + ref.z.shape)
    for consume in (False, True):
        for got, want in zip(tr.chain_vjp_cached(cache, cot_z, cot_ld, consume=consume),
                             tr.chain_vjp_cached(ref, cot_z, cot_ld, consume=consume)):
            assert _same_bits(got, want), (what, consume)
    if all(pin is None for pin in ref.pins):      # the forward-order sweep wants no pins
        ref, cache = _layer_by_layer(times, spec, store), tr.compose_forward_cached(times, spec, store)
        assert _same_bits(tr.inverse_jac_t_apply(cache, w), tr.inverse_jac_t_apply(ref, w)), what


@pytest.mark.parametrize("seed", range(8))
def test_fused_forward_matches_the_layer_by_layer_pass(seed, monkeypatch):
    """On random models of every chain, both forward passes, which run each
    stretch of elementwise layers block by block (the cached one writing the
    kept inputs and records block by block into its workspace), give the bits
    of the layer-by-layer reference, on a padded batch spread over many
    evaluation blocks and on pin-free rows the model draws itself; and at the
    pinned positions ``logdiag`` holds the bits of the layers before the
    pinned run run alone."""
    monkeypatch.setattr(sp, "_BLOCK", 16)
    rng = np.random.default_rng([seed, 4])
    for chain in RANDOM_CHAINS:
        model = random_model(rng, chain)
        spec, store = model.spec, model.params
        batch = _rows(rng, model.horizon)
        times = _append_horizon(batch.times, batch.horizon)
        assert times.size > 4 * sp._BLOCK, chain
        _check_fused_against_reference(times, spec, store, (chain, "padded"))
        drawn = tr.compose_inverse(np.cumsum(rng.exponential(1.0, (4, 20)), axis=1), spec, store)
        _check_fused_against_reference(drawn, spec, store, (chain, "drawn"))
        if spec.pinned:
            z, ld = tr.compose_forward(times, spec, store)
            pin = tr.compose_forward_cached(times, spec, store).pins[spec.pinned.start]
            assert pin is not None, chain
            before = tr.TransformSpec(spec.layers[:spec.pinned.start])
            ld_before = tr.compose_forward(times, before, store)[1]
            assert ld[pin].tobytes() == ld_before[pin].tobytes(), chain


@pytest.mark.parametrize("seed", range(8))
def test_merged_sweep_matches_dense_implicit_gradient(seed):
    """On random models of every chain, ``inverse_jac_t_apply`` gives the
    dense -(dF/dtheta)^T J^-T w on tiny pin-free rows that the model draws
    itself (unit-rate z through the inverse map, as the sampler does).  Both
    operators are read off ``chain_vjp_cached`` one output element at a
    time: a unit cotangent on z[r, j] gives row (r, j) of dF/dtheta and of
    the row-diagonal time Jacobian J.  (On rows far off the model's scale,
    psi saturates and the dense reference itself loses digits: ROADMAP item 3.)"""
    rng = np.random.default_rng([seed, 1])
    for chain in RANDOM_CHAINS:
        model = random_model(rng, chain)
        z = np.cumsum(rng.exponential(1.0, (2, 6)), axis=1)
        times = tr.compose_inverse(z, model.spec, model.params)
        n_rows, n = times.shape
        cache = tr.compose_forward_cached(times, model.spec, model.params)
        zeros = np.zeros_like(times)
        d_theta = np.zeros((n_rows, n, model.params.size))
        jac = np.zeros((n_rows, n, n))
        for r in range(n_rows):
            for j in range(n):
                unit = zeros.copy()
                unit[r, j] = 1.0
                d_theta[r, j], g_t = tr.chain_vjp_cached(cache, unit, zeros)
                jac[r, j] = g_t[r]
        w = rng.normal(0.0, 1.0, times.shape)
        u = np.stack([np.linalg.solve(jac[r].T, w[r]) for r in range(n_rows)])
        expected = -np.einsum("rj,rjp->p", u, d_theta)
        got = tr.inverse_jac_t_apply(cache, w)
        assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max(), chain
        assert cache.z is None, chain


@pytest.mark.parametrize("seed", range(8))
def test_column_steps_match_the_batch_inverse(seed):
    """On random models of every chain, ``SequentialInverter`` stepped across
    rows of unit-rate z (as the sampler draws them) gives ``compose_inverse``:
    bit for bit on chains without a ``BlockDiag``, and within 1e-13 relative
    on ``tritpp``, whose blocks substitute column by column where the batch
    solves (measured <= 1.3e-15 over 200 seeds)."""
    rng = np.random.default_rng([seed, 2])
    for chain in RANDOM_CHAINS:
        model = random_model(rng, chain)
        z = np.cumsum(rng.exponential(1.0, (3, 40)), axis=1)
        expected = tr.compose_inverse(z, model.spec, model.params)
        inverter = tr.SequentialInverter(model.spec, model.params, 3)
        stepped = np.stack([inverter.step(z[:, j]) for j in range(z.shape[1])], axis=1)
        if chain == "tritpp":
            assert np.abs(stepped - expected).max() <= 1e-13 * np.abs(expected).max()
        else:
            assert np.array_equal(stepped, expected), chain


@pytest.mark.parametrize("seed", range(8))
def test_seeded_draws_are_bitwise_reproducible(seed, monkeypatch):
    """On random models of every chain, ``sample`` called twice with one seed
    gives the same bits, the second time from warm parameter memos; and since
    an extension redraws each row from its start (its first columns come back
    unchanged) and the inverse is prefix-stable, a first draw of 1, 64 or
    4 n0 columns gives the draws of the estimated width n0, bit for bit, on
    one row and on several."""
    rng = np.random.default_rng([seed, 3])
    for chain in RANDOM_CHAINS:
        model = random_model(rng, chain)
        first = tpp.sample(model, 5, seed=seed)
        hits = tpp._pilot_width.cache_info().hits
        again = tpp.sample(model, 5, seed=seed)
        assert tpp._pilot_width.cache_info().hits == hits + 1, chain
        assert np.array_equal(again.extended, first.extended), chain
        n0 = tpp._first_width(model)
        for batch_size in (1, 7):
            ref = tpp.draw_extended(model, batch_size, seed=seed + 11)
            for width in (1, 64, 4 * n0):
                monkeypatch.setattr(tpp, "_first_width", lambda m, w=width: w)
                t_ext, z = tpp.draw_extended(model, batch_size, seed=seed + 11)
                assert np.array_equal(t_ext, ref[0]) and np.array_equal(z, ref[1]), \
                    (chain, batch_size, width)
            monkeypatch.undo()
