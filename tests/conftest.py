from dataclasses import dataclass

import numpy as np
import pytest

from tppflow import splines as sp
from tppflow import transforms as tr
from tppflow.models import KINDS, ModelKind, build_model
from tppflow.seqdata import EventSequence, PaddedBatch, pad_batch
from tppflow.tpp import TppModel


def make_model(kind: str, horizon: float = 10.0, seed: int = 0, noise: float = 0.4,
               rate_init: float = 1.0, n_knots: int = 8, block_size: int = 4,
               n_blocks: int = 2):
    """Identity model with Gaussian-perturbed parameters (any vector is valid).

    Block slices are perturbed more gently: they act multiplicatively in
    logit space, where float64 sigmoids run out of precision near +-30, so
    wild random blocks would destroy invertibility that trained models keep.
    """
    model = build_model(ModelKind(kind, horizon, n_knots=n_knots, block_size=block_size,
                                  n_blocks=n_blocks, rate_init=rate_init))
    if noise:
        rng = np.random.default_rng(seed)
        model.params.values += rng.normal(0.0, noise, model.params.size)
        for name in model.params.names:
            if name.startswith("b"):
                sl = model.params.slices[name]
                model.params.values[sl] *= 0.4
    return model


def random_batch(rng, batch_size: int, horizon: float = 10.0, min_events: int = 5,
                 max_events: int = 25) -> PaddedBatch:
    """Padded batch with per-row uniform event counts."""
    seqs = []
    for _ in range(batch_size):
        n = int(rng.integers(min_events, max_events + 1))
        seqs.append(EventSequence(np.sort(rng.uniform(0, horizon, n)), horizon))
    return pad_batch(seqs)


# the five model kinds and the shortest pinned run, where its two ends meet
RANDOM_CHAINS = KINDS + ("scale_diff_cumsum",)


def random_model(rng, chain: str, max_scale: float = 0.2) -> TppModel:
    """A random model of one of ``RANDOM_CHAINS``, drawn from ``rng``.

    Horizon, rate, knot counts, block sizes, block offsets and the number of
    blocks are random; every parameter is moved off the identity by Gaussian
    noise at a random scale up to ``max_scale``.  Scales up to 0.2 keep even
    4 blocks of 16 in the regime where the chain inverts within its stated
    round-trip limit (ROADMAP item 3).
    """
    horizon, rate = float(rng.uniform(1.0, 20.0)), float(rng.uniform(0.5, 3.0))
    if chain == "scale_diff_cumsum":
        spec = tr.TransformSpec((tr.Scale("rate"), tr.Diff(), tr.Cumsum()))
        store = tr.build_param_store(spec)
        store.view("rate")[0] = np.log(rate)
    else:
        model = build_model(ModelKind(chain, horizon, n_knots=int(rng.integers(2, 13)),
                                      block_size=2 * int(rng.integers(1, 9)),
                                      n_blocks=int(rng.integers(1, 5)), rate_init=rate))
        spec = tr.TransformSpec(tuple(
            tr.BlockDiag(layer.name, layer.size, int(rng.integers(layer.size)))
            if isinstance(layer, tr.BlockDiag) else layer for layer in model.spec.layers))
        store = model.params
    store.values += rng.normal(0.0, rng.uniform(0.02, max_scale), store.size)
    return TppModel(spec, store, horizon)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def no_spare_workspaces():
    """An empty spare list of cached-pass workspaces, so that the next cached
    pass allocates its own, whatever ran before (traced-memory readings)."""
    tr._SPARES.clear()


ALL_KINDS = KINDS


@dataclass(frozen=True)
class LayerCase:
    """A row of ``LAYER_CASES``: a layer and where ``tests/test_layers.py`` probes it.

    Parameters are drawn from N(0, ``scale``) and inputs from [``lo``, ``hi``],
    where the layer is smooth; ``probes(p)`` (knots, say, where the derivative
    may jump) are written over the first inputs and ``limits`` (where the
    forward clamps or saturates, so no round trip) over the last.  A
    ``linear`` layer's Jacobian is built exactly from unit vectors, another's
    by differences.  ``shape`` crosses evaluation blocks, or row blocks at
    ``transforms._ROW_BLOCK = 64``.  ``column_rel`` bounds ``column_inverse``
    against ``inverse``, 0 for bit for bit."""

    layer: object
    lo: float = -2.0
    hi: float = 2.0
    scale: float = 0.5
    linear: bool = False
    probes: object = lambda p: np.empty(0)
    limits: tuple = ()
    shape: tuple = (3, sp._BLOCK + 5)
    column_rel: float = 0.0


def _spline_case(n_knots, scale=1.0):
    layer = tr.Spline("g", n_knots)
    return LayerCase(layer, -0.3, 1.3, scale,
                     probes=lambda p: np.r_[sp.make_knots(layer.rqs, p).x, -2.0, 40.0])


def _block_case(size, offset=0):
    return LayerCase(tr.BlockDiag("b", size, offset), linear=True, shape=(7, 23), column_rel=1e-14)


_UNIT_LIMITS = (0.0, tr.CLAMP / 2, 1.0 - tr.CLAMP / 2, 1.0)
# Scale 3 pushes knot derivatives far from the bins' slopes.  With 10 or 20
# knots there, differences in p do not resolve the gradient: the
# log-derivative at x = 1 reads the last knot, which moves with p by rounding
# through a derivative in xi of order 1e3.  So scale 3 has 3 knots only.
LAYER_CASES = {
    "spline2": _spline_case(2), "spline3": _spline_case(3), "spline": _spline_case(10),
    "spline20": _spline_case(20), "spline3_scale3": _spline_case(3, 3.0),
    "block0": _block_case(6), "block3": _block_case(6, 3), "block2": _block_case(2),
    "scale": LayerCase(tr.Scale("rate"), linear=True),
    "fixed_scale": LayerCase(tr.FixedScale(0.1), linear=True),
    "cumsum": LayerCase(tr.Cumsum(), linear=True), "diff": LayerCase(tr.Diff(), linear=True),
    "psi": LayerCase(tr.Bridge("psi"), 0.1, 5.0, limits=(0.0, 1e-300, 1e-12, 40.0, 800.0)),
    "psi_inv": LayerCase(tr.Bridge("psi_inv"), 0.01, 0.99, limits=_UNIT_LIMITS),
    "sigmoid": LayerCase(tr.Bridge("sigmoid"), -5.0, 5.0, limits=(-800.0, -40.0, 40.0, 800.0)),
    "logit": LayerCase(tr.Bridge("logit"), 0.01, 0.99, limits=_UNIT_LIMITS),
}
