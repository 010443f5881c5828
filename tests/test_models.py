import json

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import ALL_KINDS, random_batch
from tppflow import models as md
from tppflow import tpp
from tppflow import transforms as tr
from tppflow.metrics import ks_exp1
from tppflow.models import HawkesExpParams, ModelKind, build_model
from tppflow.seqdata import EventSequence


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_identity_init_equals_hpp(kind, rng):
    batch = random_batch(rng, 6, 10.0)
    model = build_model(ModelKind(kind, 10.0, rate_init=2.0, block_size=4))
    ref = build_model(ModelKind("hpp", 10.0, rate_init=2.0))
    assert np.abs(tpp.log_prob(model, batch) - tpp.log_prob(ref, batch)).max() < 1e-12


def test_build_determinism():
    a = build_model(ModelKind("tritpp", 10.0))
    b = build_model(ModelKind("tritpp", 10.0))
    assert np.array_equal(a.params.values, b.params.values)
    assert a.spec == b.spec


def test_kind_validation():
    with pytest.raises(ValueError):
        ModelKind("rnn", 10.0)
    with pytest.raises(ValueError):
        ModelKind("tritpp", 10.0, block_size=3)
    with pytest.raises(ValueError):
        ModelKind("tritpp", 10.0, n_blocks=0)
    with pytest.raises(ValueError):
        ModelKind("mrp", 10.0, n_knots=1)
    with pytest.raises(ValueError):
        ModelKind("hpp", -1.0)


def test_checkpoint_round_trip(tmp_path, rng):
    kind = ModelKind("tritpp", 10.0, n_knots=6, block_size=4, n_blocks=2, rate_init=1.5)
    model = build_model(kind)
    model.params.values += rng.normal(0, 0.3, model.params.size)
    path = tmp_path / "ckpt.json"
    md.save_checkpoint(path, model, kind, extra={"n_avg": 12.5})
    back, kind2, extra = md.load_checkpoint(path)
    assert kind2 == kind
    assert extra["n_avg"] == 12.5
    assert np.array_equal(back.params.values, model.params.values)
    batch = random_batch(rng, 3, 10.0)
    assert np.array_equal(tpp.log_prob(back, batch), tpp.log_prob(model, batch))


def _spline(name):
    return {"kind": "spline", "name": name, "n_knots": 6}


FORMAT_V1_TRANSFORMS = {
    "hpp": [{"kind": "scale", "name": "rate"}],
    "ipp": [{"kind": "fixed_scale", "value": 0.1}, _spline("g1"),
            {"kind": "scale", "name": "rate"}],
    "rp": [{"kind": "diff"}, {"kind": "scale", "name": "rate"},
           {"kind": "bridge", "bridge": "psi"}, _spline("g2"),
           {"kind": "bridge", "bridge": "psi_inv"}, {"kind": "cumsum"}],
    "mrp": [{"kind": "fixed_scale", "value": 0.1}, _spline("g1"),
            {"kind": "scale", "name": "rate"}, {"kind": "diff"},
            {"kind": "bridge", "bridge": "psi"}, _spline("g2"),
            {"kind": "bridge", "bridge": "psi_inv"}, {"kind": "cumsum"}],
    "tritpp": [{"kind": "fixed_scale", "value": 0.1}, _spline("g1"),
               {"kind": "scale", "name": "rate"}, {"kind": "diff"},
               {"kind": "bridge", "bridge": "psi"}, _spline("g2"),
               {"kind": "bridge", "bridge": "logit"},
               {"kind": "block", "name": "b1", "size": 4, "offset": 0},
               {"kind": "block", "name": "b2", "size": 4, "offset": 2},
               {"kind": "bridge", "bridge": "sigmoid"}, _spline("g3"),
               {"kind": "bridge", "bridge": "psi_inv"}, {"kind": "cumsum"}],
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_transform_spec_format_v1(kind):
    rec = {"layers": FORMAT_V1_TRANSFORMS[kind]}
    spec = tr.TransformSpec.from_dict(rec)
    assert spec.to_dict() == rec
    model = build_model(ModelKind(kind, 10.0, n_knots=6, block_size=4, n_blocks=2))
    assert model.spec == spec
    assert json.dumps(model.spec.to_dict()) == json.dumps(rec)


def test_transform_spec_unknown_layer_kind():
    with pytest.raises(ValueError, match="unknown layer kind"):
        tr.TransformSpec.from_dict({"layers": [{"kind": "rnn"}]})


# ---------------------------------------------------------------------------
# Hawkes baseline


def hawkes_intensity_direct(params, history, t):
    """Independent O(N^2) intensity evaluation."""
    past = history[history < t]
    return params.mu + params.alpha * np.exp(-params.beta * (t - past)).sum()


def test_hawkes_alpha_zero_is_poisson(rng):
    params = HawkesExpParams(2.0, 0.0, 1.0)
    seq = EventSequence(np.sort(rng.uniform(0, 5, 9)), 5.0)
    expected = 9 * np.log(2.0) - 2.0 * 5.0
    assert md.hawkes_log_prob(params, seq) == pytest.approx(expected, abs=1e-12)


def test_hawkes_closed_form_example():
    params = HawkesExpParams(1.0, 1.0, 1.0)
    seq = EventSequence(np.array([1.0]), 2.0)
    assert md.hawkes_log_prob(params, seq) == pytest.approx(-(2.0 + 1.0 - np.exp(-1.0)),
                                                            abs=1e-12)


def test_hawkes_compensator_matches_quadrature(rng):
    params = HawkesExpParams(1.3, 0.7, 1.9)
    times = np.sort(rng.uniform(0, 8, 5))
    seq = EventSequence(times, 8.0)
    comp, _ = quad(lambda u: hawkes_intensity_direct(params, times, u), 0.0, 8.0,
                   points=times.tolist(), limit=300, epsabs=1e-10)
    lp_direct = sum(np.log(hawkes_intensity_direct(params, times, t)) for t in times) - comp
    assert md.hawkes_log_prob(params, seq) == pytest.approx(lp_direct, abs=1e-8)


def test_hawkes_params_validation():
    with pytest.raises(ValueError):
        HawkesExpParams(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        HawkesExpParams(1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        md.hawkes_sample(HawkesExpParams(1.0, 2.0, 1.0), 5.0, seed=0)


def test_hawkes_sample_poisson_limit():
    params = HawkesExpParams(3.0, 0.0, 1.0)
    counts = np.array([len(md.hawkes_sample(params, 10.0, seed=s)) for s in range(3000)])
    se = counts.std() / np.sqrt(counts.size)
    assert abs(counts.mean() - 30.0) < 3 * se + 1e-9


def test_hawkes_sample_mean_count_matches_exact_expectation():
    """E[N(T)] from the ODE for the mean intensity of the exponential kernel."""
    params = HawkesExpParams(1.2, 0.8, 2.0)
    mu, a, b, horizon = params.mu, params.alpha, params.beta, 10.0
    exact = mu * b * horizon / (b - a) - mu * a * (1 - np.exp(-(b - a) * horizon)) / (b - a) ** 2
    counts = np.array([len(md.hawkes_sample(params, horizon, seed=s)) for s in range(4000)])
    se = counts.std() / np.sqrt(counts.size)
    assert abs(counts.mean() - exact) < 3 * se


def test_hawkes_sample_determinism():
    params = HawkesExpParams(1.0, 0.5, 1.5)
    a = md.hawkes_sample(params, 20.0, seed=4)
    b = md.hawkes_sample(params, 20.0, seed=4)
    assert np.array_equal(a.times, b.times)


def test_hawkes_time_rescaling():
    params = HawkesExpParams(1.5, 0.9, 2.0)
    gaps = np.concatenate([md.hawkes_rescaled_gaps(params, md.hawkes_sample(params, 80.0, seed=s))
                           for s in range(90)])
    assert gaps.size >= 10_000
    stat, passed = ks_exp1(gaps[:10_000])
    assert passed, f"KS {stat}"
