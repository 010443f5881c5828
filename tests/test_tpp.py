import numpy as np
import pytest

from conftest import make_model, random_batch
from tppflow import tpp
from tppflow import transforms as tr
from tppflow.metrics import ks_exp1
from tppflow.models import ModelKind, build_model
from tppflow.seqdata import EventSequence, PaddedBatch, pad_batch


def test_log_prob_hpp_closed_forms():
    model = make_model("hpp", horizon=1.0, noise=0.0, rate_init=2.0)
    batch = pad_batch([EventSequence(np.array([0.5]), 1.0)])
    assert tpp.log_prob(model, batch)[0] == pytest.approx(np.log(2.0) - 2.0, abs=1e-12)
    model1 = make_model("hpp", horizon=1.0, noise=0.0, rate_init=1.0)
    empty = pad_batch([EventSequence(np.array([]), 1.0)])
    assert tpp.log_prob(model1, empty)[0] == pytest.approx(-1.0, abs=1e-12)


def test_log_prob_horizon_mismatch():
    model = make_model("hpp", horizon=1.0, noise=0.0)
    batch = pad_batch([EventSequence(np.array([0.5]), 2.0)])
    with pytest.raises(ValueError, match="horizon"):
        tpp.log_prob(model, batch)


def test_log_prob_padding_invariance(rng):
    """Appended padding columns move no log density by a single bit, also for
    rows wider than 128 columns (where a pairwise row sum would split at
    width-dependent points)."""
    model = make_model("tritpp", horizon=10.0, seed=1, noise=0.4)
    batch = random_batch(rng, 20, 10.0, min_events=150, max_events=400)
    assert batch.times.shape[1] > 128
    lp = tpp.log_prob(model, batch)
    assert np.array_equal(tpp.log_prob_grad(model, batch)[0], lp)
    for k in (1, 7, 16, 64, 130):
        pad = np.full((20, k), 10.0)
        wider = PaddedBatch(np.concatenate([batch.times, pad], axis=1),
                            np.concatenate([batch.mask, np.zeros_like(pad)], axis=1), 10.0)
        assert np.array_equal(tpp.log_prob(model, wider), lp), k
        assert np.array_equal(tpp.log_prob_grad(model, wider)[0], lp), k


@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
def test_log_prob_matches_quadrature_assembly(rng):
    """Eq-style oracle: log p = sum log intensity(t_i) - compensator(T),
    both reconstructed numerically from the map."""
    from scipy.integrate import quad

    model = make_model("mrp", horizon=5.0, seed=6, noise=0.4, rate_init=1.2)
    events = np.sort(rng.uniform(0.2, 4.7, 7))
    batch = pad_batch([EventSequence(events, 5.0)])
    lp = tpp.log_prob(model, batch)[0]

    def compensator_next(history, u):
        row = np.concatenate([history, [u]])[None, :]
        z, _ = tr.compose_forward(row, model.spec, model.params, validate=False)
        return float(z[0, -1])

    def intensity(u, history):
        # difference quotient that never crosses the previous event
        h = 1e-7
        left = history[-1] if len(history) else 0.0
        lo = max(u - h, left)
        return (compensator_next(history, u + h) - compensator_next(history, lo)) / (u + h - lo)

    log_int = sum(np.log(intensity(t, events[:i])) for i, t in enumerate(events))
    bounds = np.concatenate([[0.0], events, [5.0]])
    comp = sum(quad(intensity, bounds[i], bounds[i + 1], args=(events[:i],),
                    limit=200, epsabs=1e-10)[0] for i in range(len(bounds) - 1))
    assert lp == pytest.approx(log_int - comp, abs=1e-5)


def test_sample_clipping_layout():
    clipped = np.minimum(np.array([0.8, 2.0, 4.5, 5.1]), 3.0)
    assert np.array_equal(clipped, [0.8, 2.0, 3.0, 3.0])
    model = make_model("hpp", horizon=3.0, noise=0.0, rate_init=1.0)
    sb = tpp.sample(model, 8, seed=0, gamma=0.1)
    assert np.array_equal(sb.clipped, np.minimum(sb.extended, 3.0))
    assert np.array_equal(sb.hard_mask, (sb.extended < 3.0).astype(float))
    assert np.all(sb.extended[:, -1] >= 3.0)
    assert np.all(np.diff(sb.hard_mask, axis=1) <= 0)
    np.testing.assert_allclose(sb.soft_mask, 1 / (1 + np.exp(-(3.0 - sb.extended) / 0.1)))
    batch = sb.to_batch()
    assert batch.horizon == 3.0


def test_sample_count_statistics():
    model = make_model("hpp", horizon=10.0, noise=0.0, rate_init=3.0)
    sb = tpp.sample(model, 10_000, seed=5)
    mean = sb.hard_mask.sum(axis=1).mean()
    assert abs(mean - 30.0) < 3.0 * np.sqrt(30.0 / 10_000)


def test_sample_zbar_is_clipped_forward():
    model = make_model("mrp", horizon=10.0, seed=2, noise=0.3)
    sb = tpp.sample(model, 6, seed=1)
    z, _ = tr.compose_forward(sb.clipped, model.spec, model.params, validate=False)
    assert np.array_equal(sb.zbar, z)


def test_sample_validation():
    model = make_model("hpp", horizon=10.0, noise=0.0)
    with pytest.raises(ValueError):
        tpp.sample(model, 0, seed=0)


def test_count_estimate_sizes_one_draw(monkeypatch):
    """The unit-gap count lands near the sampled count, so the first draw
    already reaches the horizon on every row: one batch inversion, no
    doubling rounds.  (The forward map of the empty history saturated at
    -log(CLAMP) ~ 27.6 here.)"""
    model = make_model("tritpp", horizon=100.0, noise=0.05, rate_init=14.0)
    batch_size = 50
    widths = []
    inverse = tr.compose_inverse

    def counted(z, *args, **kwargs):
        if np.shape(z)[0] == batch_size:
            widths.append(np.shape(z)[1])
        return inverse(z, *args, **kwargs)

    monkeypatch.setattr(tr, "compose_inverse", counted)
    t_ext, _ = tpp.draw_extended(model, batch_size, seed=3)
    mean_count = (t_ext < model.horizon).sum(axis=1).mean()
    assert abs(tpp._estimated_count(model) - mean_count) <= 0.1 * mean_count
    assert len(widths) == 1, widths


@pytest.mark.parametrize("kind,rate", [("hpp", 3.0), ("ipp", 0.5), ("rp", 20.0),
                                       ("mrp", 3.0), ("tritpp", 20.0)])
def test_draws_do_not_depend_on_first_width(monkeypatch, kind, rate):
    """Row streams continue where they left off and the inverse is
    prefix-stable, so any first width gives the same draws bit for bit."""
    model = make_model(kind, horizon=10.0, seed=4, noise=0.2, rate_init=rate)
    n0 = tpp._first_width(model)
    for batch_size in (1, 7, 40):
        ref = tpp.draw_extended(model, batch_size, seed=11)
        for width in (1, 64, 4 * n0):
            monkeypatch.setattr(tpp, "_first_width", lambda m, w=width: w)
            t_ext, z = tpp.draw_extended(model, batch_size, seed=11)
            assert np.array_equal(t_ext, ref[0]) and np.array_equal(z, ref[1]), (batch_size, width)
        monkeypatch.undo()


def test_time_rescaling_identity_tritpp():
    """Samples mapped forward by their own model give unit-exponential gaps."""
    model = make_model("tritpp", horizon=100.0, noise=0.0, rate_init=1.0)
    sb = tpp.sample(model, 110, seed=3)
    z, _ = tr.compose_forward(sb.clipped, model.spec, model.params, validate=False)
    gaps = np.diff(np.concatenate([np.zeros((110, 1)), z], axis=1), axis=1)
    pooled = gaps[sb.hard_mask.astype(bool)]
    assert pooled.size >= 10_000
    stat, passed = ks_exp1(pooled[:10_000])
    assert passed, f"KS {stat}"


def test_sequential_sampler_matches_parallel():
    model = make_model("tritpp", horizon=10.0, seed=7, noise=0.3, rate_init=2.0)
    par = tpp.sample(model, 12, seed=21)
    seq = tpp.sequential_sample(model, 12, seed=21)
    n = min(par.extended.shape[1], seq.extended.shape[1])
    assert np.abs(par.extended[:, :n] - seq.extended[:, :n]).max() < 1e-9


def test_relaxed_mask_values():
    assert tpp.relaxed_mask(np.array([3.0]), 3.0, 0.5)[0] == 0.5
    assert tpp.relaxed_mask(np.array([2.0]), 3.0, 0.1)[0] == pytest.approx(
        1 / (1 + np.exp(-10.0)), rel=1e-12)
    assert tpp.relaxed_mask(np.array([4.5]), 3.0, 0.1)[0] == pytest.approx(
        np.exp(-15.0) / (1 + np.exp(-15.0)), rel=1e-9)
    with pytest.raises(ValueError):
        tpp.relaxed_mask(np.array([1.0]), 3.0, 0.0)


def test_soft_mask_dominance(rng):
    """Outside a few temperature widths the relaxed mask pins to the hard one
    (to sigma(5) ~ 6.7e-3 at 5 gamma, to 1e-6 beyond ~14 gamma)."""
    gamma = 0.1
    t = rng.uniform(0, 6, (50, 20))
    horizon = 3.0
    soft = tpp.relaxed_mask(t, horizon, gamma)
    hard = (t < horizon).astype(float)
    sig5 = 1 / (1 + np.exp(5.0))
    early, late = t < horizon - 5 * gamma, t > horizon + 5 * gamma
    assert np.all(soft[early] >= hard[early] - sig5)
    assert np.all(soft[late] <= hard[late] + sig5)
    assert np.all(np.diff(tpp.relaxed_mask(np.sort(t, axis=1), horizon, gamma), axis=1) <= 0)
    far = t > horizon + 14 * gamma
    assert np.all(soft[far] <= 1e-6)


def test_entropy_hard_estimates():
    # rate 1: the log-rate term vanishes, leaving exactly horizon * rate
    model = make_model("hpp", horizon=7.0, noise=0.0, rate_init=1.0)
    value, _ = tpp.entropy_estimate(model, 4, gamma=0.1, seed=0, relaxed=False)
    assert value == pytest.approx(7.0, abs=1e-12)
    # rate 2, T = 1, draws (0.5, 1.5, 2.5): two kept events
    model = make_model("hpp", horizon=1.0, noise=0.0, rate_init=2.0)
    draws = np.array([[0.5, 1.5, 2.5]])
    value, _ = tpp.entropy_estimate(model, 1, gamma=0.1, seed=0, draws=draws, relaxed=False)
    assert value == pytest.approx(2.0 - 2.0 * np.log(2.0), abs=1e-12)


def test_entropy_relaxed_gradient_matches_fd():
    model = make_model("hpp", horizon=1.0, noise=0.0, rate_init=2.0)
    draws = np.cumsum(np.random.default_rng(3).exponential(1.0, (16, 12)), axis=1)
    _, grad = tpp.entropy_estimate(model, 16, gamma=0.1, draws=draws)
    h = 1e-6
    vals = []
    for sign in (1.0, -1.0):
        probe = model.copy()
        probe.params.values[0] += sign * h
        v, _ = tpp.entropy_estimate(probe, 16, gamma=0.1, draws=draws)
        vals.append(v)
    num = (vals[0] - vals[1]) / (2 * h)
    assert grad[0] == pytest.approx(num, rel=1e-4)


def test_entropy_validation():
    model = make_model("hpp", horizon=1.0, noise=0.0)
    with pytest.raises(ValueError):
        tpp.entropy_estimate(model, 0, gamma=0.1)
    with pytest.raises(ValueError):
        tpp.entropy_estimate(model, 1, gamma=-1.0)


# ---------------------------------------------------------------------------
# inversion accuracy: open defects, listed in ROADMAP.md. The chain loses
# precision through logit(sigmoid(x)) once |x| passes ~20. Both tests fail
# until that is fixed; strict xfail then reports them as failures, and the
# marks must be lifted.


def _shifted_model(kind, scale):
    """Identity model with every parameter shifted by scale * N(0, 1) (seed 0)."""
    model = build_model(kind)
    model.params.values += scale * np.random.default_rng(0).normal(size=model.params.size)
    return model


def _roundtrip_error(model, t):
    z, _ = tr.compose_forward(t, model.spec, model.params)
    return float(np.abs(tr.compose_inverse(z, model.spec, model.params) - t).max())


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="round trip of long rows misses 1e-8 (4.4e-6 at 3040 columns)")
def test_roundtrip_long_rows():
    model = _shifted_model(ModelKind("tritpp", 437.0, n_knots=20, block_size=16, n_blocks=4,
                                     rate_init=14.0), 0.2)
    t = tpp.draw_extended(model, 10, seed=0)[0]
    assert _roundtrip_error(model, t) <= 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="saturated logits invert wrongly without an error")
def test_roundtrip_fails_loudly():
    model = _shifted_model(ModelKind("tritpp", 10.0, n_knots=10, block_size=8, n_blocks=2,
                                     rate_init=1.0), 1.0)
    try:
        t = tpp.draw_extended(model, 5, seed=3)[0]
        err = _roundtrip_error(model, t)
    except tr.DomainError:
        return
    assert err <= 1e-8
