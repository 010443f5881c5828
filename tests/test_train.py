import numpy as np
import pytest

from conftest import make_model, random_batch
from tppflow import train as tn
from tppflow.models import ModelKind, build_model
from tppflow.seqdata import DatasetSplit, simulate_hpp, split_dataset
from tppflow.train import AdamState, TrainConfig, adam_step, fit_mle, grad_check


def test_adam_zero_gradient():
    values = np.array([1.0, -2.0])
    state = AdamState.zeros(2)
    new, state = adam_step(values, np.zeros(2), state, lr=0.1)
    assert np.array_equal(new, values)
    assert state.step == 1


def test_adam_first_step_magnitude():
    g = np.array([0.3])
    new, _ = adam_step(np.zeros(1), g, AdamState.zeros(1), lr=0.05)
    # bias-corrected first step is lr * g / (|g| + eps)
    assert new[0] == pytest.approx(-0.05 * 0.3 / (0.3 + tn.ADAM_EPS), rel=1e-12)


def test_adam_lr_scale_consistency():
    g = np.array([2.0, -0.7])
    a, _ = adam_step(np.zeros(2), g, AdamState.zeros(2), lr=0.01)
    b, _ = adam_step(np.zeros(2), g, AdamState.zeros(2), lr=0.02)
    assert np.allclose(b, 2.0 * a, rtol=1e-12)


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.zeros(3), AdamState.zeros(2), lr=0.1)


def _hpp_split(rate, horizon, n, seed):
    return split_dataset(simulate_hpp(rate, horizon, n, seed=seed), seed=seed)


def test_fit_mle_hpp_recovers_closed_form():
    split = _hpp_split(2.0, 10.0, 300, seed=1)
    model = build_model(ModelKind("hpp", 10.0, rate_init=1.0))
    result = fit_mle(model, split, TrainConfig(lr=0.05, max_epochs=2000))
    events = sum(len(s) for s in split.train)
    mle = events / (len(split.train) * 10.0)
    fitted = float(np.exp(result.model.params.view("rate")[0]))
    assert fitted == pytest.approx(mle, abs=1e-3)


def test_fit_mle_first_epoch_is_identity_hpp_loss():
    split = _hpp_split(2.0, 10.0, 60, seed=2)
    tri = build_model(ModelKind("tritpp", 10.0, rate_init=1.0, block_size=4))
    hpp = build_model(ModelKind("hpp", 10.0, rate_init=1.0))
    cfg = TrainConfig(lr=0.01, max_epochs=2)
    h_tri = fit_mle(tri, split, cfg).history
    h_hpp = fit_mle(hpp, split, cfg).history
    assert h_tri[0][1] == pytest.approx(h_hpp[0][1], abs=1e-12)


def test_fit_mle_train_loss_windowed_descent():
    split = _hpp_split(2.0, 10.0, 100, seed=3)
    model = build_model(ModelKind("hpp", 10.0, rate_init=0.5))
    result = fit_mle(model, split, TrainConfig(lr=0.02, max_epochs=900,
                                               early_stop_patience=900))
    losses = np.array([row[1] for row in result.history])
    assert losses.size >= 400
    window = 200
    assert np.all(losses[window:] <= losses[:-window] + 1e-9)


def test_fit_mle_reproducible_bitwise():
    split = _hpp_split(1.5, 10.0, 80, seed=4)
    cfg = TrainConfig(lr=0.02, max_epochs=120)
    a = fit_mle(build_model(ModelKind("mrp", 10.0)), split, cfg)
    b = fit_mle(build_model(ModelKind("mrp", 10.0)), split, cfg)
    assert np.array_equal(a.model.params.values, b.model.params.values)
    assert a.history == b.history


def test_fit_mle_empty_split():
    with pytest.raises(ValueError):
        fit_mle(build_model(ModelKind("hpp", 10.0)), DatasetSplit(), TrainConfig())


def test_grad_check_hpp_closed_form(rng):
    model = make_model("hpp", horizon=10.0, noise=0.0, rate_init=2.0)
    batch = random_batch(rng, 4, 10.0)
    report = grad_check(model, batch, h=1e-5)
    assert report.passed and report.worst_rel < 1e-7
    assert "rate" in report.per_slice


@pytest.mark.parametrize("kind", ["ipp", "rp", "mrp", "tritpp"])
def test_grad_check_all_kinds(kind, rng):
    model = make_model(kind, horizon=10.0, seed=3, noise=0.3)
    batch = random_batch(rng, 3, 10.0)
    report = grad_check(model, batch, h=1e-5, tolerance=1e-5)
    assert report.passed, str(report)


def test_grad_check_reports_exact_zero_coordinates(rng):
    """Parameters whose cotangent path vanishes get an exactly zero gradient.

    With an empty batch the density only involves the single horizon gap, so
    spline knots on the far side of that gap's image are never touched and
    their derivative logits must come back identically zero.
    """
    from tppflow.seqdata import EventSequence, pad_batch
    from tppflow.train import log_prob_grad

    model = make_model("mrp", horizon=10.0, noise=0.0, n_knots=10)
    batch = pad_batch([EventSequence(np.array([]), 10.0)])
    _, grad = log_prob_grad(model, batch)
    g2 = grad[model.params.slices["g2"]]
    deriv_logits = g2[2 * 9:]
    # identity chain maps the single gap through psi -> 1 - exp(-10) ~ 0.99995;
    # interior knots below that are untouched by both value and tail paths
    assert np.count_nonzero(deriv_logits == 0.0) >= 5
