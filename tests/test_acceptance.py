"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity next to its tolerance."""
import itertools

import numpy as np
import pytest

from conftest import ALL_KINDS, make_model, random_batch
from tppflow import metrics as mt
from tppflow import mjp, tpp
from tppflow import transforms as tr
from tppflow.cli import BENCH_LENGTHS, run_bench
from tppflow.models import ModelKind, build_model
from tppflow.seqdata import EventSequence, pad_batch, simulate_hpp, split_dataset
from tppflow.tpp import _append_horizon
from tppflow.train import AdamState, TrainConfig, adam_step, fit_mle, grad_check, nll_per_event


def test_acceptance_01_inverse_consistency():
    """1000 random parameterizations/batches over the five kinds: the map
    round-trips to 1e-8 and stays monotone in both directions."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(1000):
        kind = ALL_KINDS[trial % len(ALL_KINDS)]
        model = make_model(kind, horizon=10.0, seed=trial, noise=0.35,
                           rate_init=float(rng.uniform(0.5, 2.0)))
        batch = random_batch(rng, 2, 10.0, min_events=12, max_events=40)
        times = _append_horizon(batch.times, batch.horizon)
        z, _ = tr.compose_forward(times, model.spec, model.params)
        assert np.all(np.diff(z, axis=1) >= -1e-12), kind
        back = tr.compose_inverse(z, model.spec, model.params)
        assert np.all(np.diff(back, axis=1) >= -1e-12), kind
        worst = max(worst, float(np.abs(back - times).max()))
    assert worst < 1e-8
    print(f"\nACCEPTANCE 1 PASS: inverse consistency, max |F^-1(F(t)) - t| = "
          f"{worst:.3e} < 1e-8 and monotone rows over 1000 trials")


def test_acceptance_02_hpp_closed_form():
    """HPP log density equals N log(rate) - rate*T to 1e-10; empty rows give
    -rate*T."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        rate = float(rng.uniform(0.2, 5.0))
        horizon = float(rng.uniform(1.0, 20.0))
        n = int(rng.integers(0, 30))
        seq = EventSequence(np.sort(rng.uniform(0, horizon, n)), horizon)
        model = build_model(ModelKind("hpp", horizon, rate_init=rate))
        lp = float(tpp.log_prob(model, pad_batch([seq]))[0])
        expected = n * np.log(rate) - rate * horizon
        worst = max(worst, abs(lp - expected))
    assert worst < 1e-10
    model = build_model(ModelKind("hpp", 3.0, rate_init=1.7))
    lp_empty = float(tpp.log_prob(model, pad_batch([EventSequence(np.array([]), 3.0)]))[0])
    assert lp_empty == pytest.approx(-1.7 * 3.0, abs=1e-12)
    print(f"\nACCEPTANCE 2 PASS: HPP closed form, worst |error| = {worst:.3e} < 1e-10")


def test_acceptance_03_gradient_suite():
    """Central differences (h = 1e-5) confirm every learnable slice of every
    kind at relative error < 1e-5."""
    rng = np.random.default_rng(17)
    reports = {}
    for kind in ALL_KINDS:
        if kind == "tritpp":
            model = make_model(kind, horizon=10.0, seed=3, noise=0.3,
                               n_knots=10, block_size=8, n_blocks=4)
        else:
            model = make_model(kind, horizon=10.0, seed=3, noise=0.3, n_knots=10)
        batch = random_batch(rng, 3, 10.0, min_events=8, max_events=20)
        report = grad_check(model, batch, h=1e-5, tolerance=1e-5)
        reports[kind] = report
        assert report.passed, f"{kind} gradient check failed:\n{report}"
    worst = max(r.worst_rel for r in reports.values())
    slices = sum(len(r.per_slice) for r in reports.values())
    print(f"\nACCEPTANCE 3 PASS: gradients, {slices} slices across {len(reports)} kinds, "
          f"worst relative error {worst:.3e} < 1e-5")


def test_acceptance_04_time_rescaling():
    """Samples mapped forward by their own model give unit-exponential masked
    gaps (KS at alpha = 0.01, n = 1e4)."""
    stats = {}
    for i, kind in enumerate(ALL_KINDS):
        model = make_model(kind, horizon=100.0, seed=40 + i, noise=0.25, rate_init=2.0)
        sb = tpp.sample(model, 80, seed=400 + i)
        z, _ = tr.compose_forward(sb.clipped, model.spec, model.params, validate=False)
        gaps = np.diff(np.concatenate([np.zeros((80, 1)), z], axis=1), axis=1)
        pooled = gaps[sb.hard_mask.astype(bool)]
        assert pooled.size >= 10_000, kind
        stat, passed = mt.ks_exp1(pooled[:10_000])
        stats[kind] = stat
        assert passed, f"{kind}: KS {stat:.4f}"
    crit = np.sqrt(-0.5 * np.log(0.005)) / 100.0
    print("\nACCEPTANCE 4 PASS: time rescaling, KS stats "
          + ", ".join(f"{k}={v:.4f}" for k, v in stats.items())
          + f" all < {crit:.4f}")


def _entropy_ascent(rate0, gamma, steps, horizon=5.0, seed=0, lr=0.02, n_samples=64):
    model = build_model(ModelKind("hpp", horizon, rate_init=rate0))
    state = AdamState.zeros(1)
    rates = []
    for it in range(steps):
        _, grad = tpp.entropy_estimate(model, n_samples, gamma, seed=seed * 100_003 + it)
        model.params.values, state = adam_step(model.params.values, -grad, state, lr)
        rates.append(float(np.exp(model.params.values[0])))
    return np.array(rates)


def test_acceptance_05_entropy_toy():
    """Relaxed ascent drives the rate into [0.9, 1.1] from 0.3 and 3 for both
    temperatures; the hard estimator's numerical gradient flips sign along a
    rate sweep while the relaxed one does not."""
    finals = {}
    for rate0 in (0.3, 3.0):
        for gamma in (0.1, 0.05):
            rates = _entropy_ascent(rate0, gamma, steps=1200, seed=int(rate0 * 10))
            final = float(rates[-100:].mean())
            finals[(rate0, gamma)] = final
            assert 0.9 <= final <= 1.1, f"start {rate0}, gamma {gamma}: ended at {final}"
            assert len(rates) <= 2000

    draws = np.cumsum(np.random.default_rng(5).exponential(1.0, (4, 64)), axis=1)
    horizon = 5.0
    grid = np.linspace(0.5, 2.0, 301)

    def sweep(relaxed):
        vals = []
        for rate in grid:
            model = build_model(ModelKind("hpp", horizon, rate_init=float(rate)))
            v, _ = tpp.entropy_estimate(model, 4, gamma=0.1, draws=draws, relaxed=relaxed)
            vals.append(v)
        num_grad = np.diff(vals)
        signs = np.sign(num_grad[np.abs(num_grad) > 1e-14])
        return int(np.sum(signs[1:] != signs[:-1]))

    hard_flips = sweep(relaxed=False)
    relaxed_flips = sweep(relaxed=True)
    assert hard_flips >= 10
    assert relaxed_flips <= 3
    print(f"\nACCEPTANCE 5 PASS: entropy ascent finals {finals}; hard-estimator "
          f"gradient sign flips {hard_flips} (>= 10) vs relaxed {relaxed_flips} (<= 3)")


def test_acceptance_06_forward_backward_oracle():
    """Exhaustive path enumeration confirms marginals, pairwise marginals and
    evidence at 1e-10 on 100 random two-state instances."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        params = mjp.MmppParams(
            np.array([0.5, 0.5]) + rng.uniform(-0.3, 0.3) * np.array([1.0, -1.0]),
            rng.uniform(0.05, 0.8, (2, 2)),
            rng.uniform(0.3, 6.0, 2))
        horizon = 5.0
        n_jump = int(rng.integers(0, 6))
        jumps = np.sort(rng.uniform(0.1, horizon - 0.1, n_jump))
        obs = np.sort(rng.uniform(0, horizon, int(rng.integers(0, 10))))
        post, lz = mjp.forward_backward(obs, jumps, params, horizon)

        k, n = 2, n_jump + 1
        bounds = np.concatenate([[0.0], jumps, [horizon]])
        deltas = np.diff(bounds)
        counts = np.bincount(np.searchsorted(jumps, obs, side="right"), minlength=n)
        marg = np.zeros((n, k))
        pair = np.zeros((max(n - 1, 0), k, k))
        total = 0.0
        for path in itertools.product(range(k), repeat=n):
            lp = np.log(params.pi[path[0]])
            for i in range(n - 1):
                lp += np.log(params.A[path[i], path[i + 1]])
            for i in range(n):
                lp += (-deltas[i] * (params.total_rates[path[i]] + params.lam[path[i]])
                       + counts[i] * np.log(params.lam[path[i]]))
            w = np.exp(lp)
            total += w
            for i in range(n):
                marg[i, path[i]] += w
            for i in range(n - 1):
                pair[i, path[i], path[i + 1]] += w
        worst = max(worst, float(np.abs(post.marginals - marg / total).max()),
                    abs(np.exp(lz) - total) / total)
        if n_jump:
            worst = max(worst, float(np.abs(post.pairwise - pair / total).max()))
    assert worst < 1e-10
    print(f"\nACCEPTANCE 6 PASS: forward-backward vs enumeration, worst error "
          f"{worst:.3e} < 1e-10 over 100 instances")


def test_acceptance_07_mle_recovery():
    """(a) fitted HPP rate matches the closed-form MLE to 1e-3; (b) the
    block-triangular model trained on Poisson data reaches held-out NLL within
    0.05 nats/event of the true model."""
    data = simulate_hpp(2.0, 10.0, 400, seed=71)
    split = split_dataset(data, seed=71)
    hpp = build_model(ModelKind("hpp", 10.0, rate_init=1.0))
    result = fit_mle(hpp, split, TrainConfig(lr=0.05, max_epochs=3000))
    events = sum(len(s) for s in split.train)
    mle = events / (len(split.train) * 10.0)
    rate_hat = float(np.exp(result.model.params.view("rate")[0]))
    assert rate_hat == pytest.approx(mle, abs=1e-3)

    tri = build_model(ModelKind("tritpp", 10.0, n_knots=10, block_size=4, n_blocks=2,
                                rate_init=1.0))
    cfg = TrainConfig(lr=0.01, l2=1e-5, max_epochs=1500)
    result_tri = fit_mle(tri, split, cfg)
    train_batch = pad_batch(split.train)
    n_avg = float(train_batch.mask.sum() / train_batch.batch_size)
    test_batch = pad_batch(split.test)
    truth = build_model(ModelKind("hpp", 10.0, rate_init=2.0))
    nll_true = nll_per_event(truth, test_batch, n_avg)
    gap = result_tri.test_nll - nll_true
    assert abs(gap) < 0.05
    print(f"\nACCEPTANCE 7 PASS: rate_hat {rate_hat:.5f} vs MLE {mle:.5f} "
          f"(|diff| {abs(rate_hat - mle):.2e} < 1e-3); held-out NLL gap "
          f"{gap:+.4f} nats/event (|gap| < 0.05)")


def test_acceptance_08_vi_matches_mcmc():
    """Three-state instance (uniform 0.1 transition rates, pi = (.52,.22,.26),
    rates (1, 5, 20)): variational and uniformization-Gibbs occupancy curves
    agree to < 0.15 mean absolute difference on a 200-point grid, and lie
    within 0.06 (VI) and 0.02 (Gibbs) of the exact occupancy there."""
    params = mjp.MmppParams(np.array([0.52, 0.22, 0.26]), np.full((3, 3), 0.1),
                            np.array([1.0, 5.0, 20.0]))
    horizon = 50.0
    _, obs = mjp.simulate_mmpp(params, horizon, seed=101)
    occ_mc = mjp.rao_teh_posterior(obs, params, horizon, n_samples=1000, burn_in=100,
                                   seed=2, n_grid=200)
    cfg = mjp.ViConfig(lr=0.01, iters=400, mc_samples=512, gamma=0.1, seed=3,
                       block_size=4, n_blocks=2)
    res = mjp.fit_vi(obs, params, horizon, "posterior", cfg)
    curves = mjp.posterior_curves(res.q_model, params, obs, n_grid=200,
                                  n_samples=512, seed=11)
    mad = float(np.abs(curves - occ_mc).mean())
    assert mad < 0.15
    exact, _ = mjp.exact_posterior(obs, params, horizon, n_grid=200)
    mad_mc = float(np.abs(occ_mc - exact).mean())
    mad_vi = float(np.abs(curves - exact).mean())
    assert mad_mc < 0.02
    assert mad_vi < 0.06
    print(f"\nACCEPTANCE 8 PASS: VI vs MCMC occupancy, mean abs diff {mad:.4f} < 0.15 "
          f"({obs.size} observations, burn-in 100, 1000 retained samples); against the "
          f"exact occupancy, MCMC {mad_mc:.4f} < 0.02 and VI {mad_vi:.4f} < 0.06")


def test_acceptance_09_elbo_bound():
    """Hard-mask bound estimates never exceed the exact log evidence
    (50 random posterior initializations, one- and two-state toys)."""
    rng = np.random.default_rng(9)
    checked = 0
    worst_gap = -np.inf
    toys = [
        mjp.MmppParams(np.array([1.0]), np.array([[0.6]]), np.array([2.5])),
        mjp.MmppParams(np.array([0.3, 0.7]), np.array([[0.2, 0.4], [0.3, 0.1]]),
                       np.array([1.0, 4.0])),
    ]
    for t_idx, params in enumerate(toys):
        horizon = 8.0
        _, obs = mjp.simulate_mmpp(params, horizon, seed=90 + t_idx)
        _, lz = mjp.exact_posterior(obs, params, horizon)
        for s in range(25):
            q = build_model(ModelKind("tritpp", horizon, n_knots=5, block_size=4,
                                      n_blocks=1, rate_init=float(rng.uniform(0.3, 1.5))))
            q.params.values += rng.normal(0, 0.4, q.params.size)
            for name in q.params.names:
                if name.startswith("b"):
                    q.params.values[q.params.slices[name]] *= 0.4
            est = mjp.elbo_relaxed(q, params, obs, 128, gamma=0.1, seed=1000 + s,
                                   hard=True, want_grads=False)
            gap = est.value - lz
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-6, f"toy {t_idx} init {s}: ELBO exceeds evidence by {gap}"
            checked += 1
    assert checked == 50
    print(f"\nACCEPTANCE 9 PASS: ELBO bound held for 50 initializations, "
          f"worst ELBO - logZ = {worst_gap:.4f} (<= 1e-6)")


def test_acceptance_10_metric_sanity():
    """mmd(X, X) = 0 to 1e-12; mmd separates rate-2 from rate-4 Poisson sets
    in at least 95 of 100 seeded repetitions; Wasserstein-over-lengths is
    exact on hand cases."""
    rng = np.random.default_rng(10)
    xs = [EventSequence(np.sort(rng.uniform(0, 5.0, 8)), 5.0) for _ in range(60)]
    assert abs(mt.mmd(xs, xs)) < 1e-12

    hits = 0
    for s in range(100):
        same_a = simulate_hpp(2.0, 5.0, 500, seed=30_000 + s)
        same_b = simulate_hpp(2.0, 5.0, 500, seed=60_000 + s)
        other = simulate_hpp(4.0, 5.0, 500, seed=90_000 + s)
        hits += mt.mmd(same_a, same_b) < mt.mmd(same_a, other)
    assert hits >= 95

    def lengths(ns):
        return [EventSequence(np.linspace(0.5, 4.5, n), 5.0) for n in ns]

    assert mt.wasserstein_lengths(lengths([3, 1]), lengths([3, 1])) == 0.0
    assert mt.wasserstein_lengths(lengths([0]), lengths([2])) == pytest.approx(2.0)
    assert mt.wasserstein_lengths(lengths([0, 2]), lengths([1, 3])) == pytest.approx(1.0)
    print(f"\nACCEPTANCE 10 PASS: mmd(X,X) = 0, separation in {hits}/100 seeds (>= 95), "
          f"Wasserstein hand cases exact")


def test_acceptance_11_bench_integrity():
    """Parallel and sequential samplers are distribution-identical (two-sample
    KS at alpha = 0.01) and the benchmark covers the whole length grid; the
    6400-length timing comparison is reported, not asserted."""
    model = build_model(ModelKind("tritpp", 100.0, n_knots=10, block_size=8,
                                  n_blocks=2, rate_init=4.0))
    rng = np.random.default_rng(11)
    model.params.values += rng.normal(0, 0.2, model.params.size)
    for name in model.params.names:
        if name.startswith("b"):
            model.params.values[model.params.slices[name]] *= 0.4
    par = tpp.sample(model, 30, seed=1)
    seq = tpp.sequential_sample(model, 30, seed=2)

    def masked_gaps(sb):
        t = np.concatenate([np.zeros((sb.clipped.shape[0], 1)), sb.clipped], axis=1)
        return np.diff(t, axis=1)[sb.hard_mask.astype(bool)]

    a, b = masked_gaps(par), masked_gaps(seq)
    pooled = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(np.sort(a), pooled, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), pooled, side="right") / b.size
    stat = float(np.abs(cdf_a - cdf_b).max())
    crit = np.sqrt(-0.5 * np.log(0.005)) * np.sqrt((a.size + b.size) / (a.size * b.size))
    assert stat < crit, f"two-sample KS {stat:.4f} >= {crit:.4f}"

    rows = run_bench(list(BENCH_LENGTHS), batch=20, runs=3, seed=0)
    lengths_covered = {r[0] for r in rows}
    assert lengths_covered == set(BENCH_LENGTHS)
    combos = {(r[0], r[1], r[2]) for r in rows}
    assert all((n, "sample", "parallel") in combos and (n, "sample", "sequential") in combos
               and (n, "logprob_grad", "tritpp") in combos for n in BENCH_LENGTHS)
    med = {(r[0], r[2]): r[3] for r in rows if r[1] == "sample"}
    ratio = med[(6400, "sequential")] / med[(6400, "parallel")]
    print(f"\nACCEPTANCE 11 PASS: samplers distribution-identical "
          f"(KS {stat:.4f} < {crit:.4f}, n = {a.size}+{b.size}); grid covered "
          f"{sorted(lengths_covered)}; at length 6400 parallel is {ratio:.1f}x "
          f"faster than sequential (reported, not asserted)")
