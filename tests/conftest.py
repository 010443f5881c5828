import numpy as np
import pytest

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


ALL_KINDS = KINDS
