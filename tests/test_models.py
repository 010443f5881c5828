import json

import numpy as np
import pytest

from conftest import ALL_KINDS, random_batch
from tppflow import models as md
from tppflow import tpp
from tppflow import transforms as tr
from tppflow.models import ModelKind, build_model


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

