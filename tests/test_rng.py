"""The stream contract: ``row_streams(seed, n, *key)[r]`` is ``stream(seed, *key, r)``.

``row_streams`` mirrors NumPy's ``SeedSequence`` hash to derive every row's
Philox key at once, so these tests also fail if a NumPy release changes that
hash.  They need no fixtures (CI runs them with ``--noconftest`` on the latest
NumPy).
"""
import numpy as np
import pytest

from tppflow.rng import row_streams, stream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 20240917 * 1_000_003 + 7]
KEYS = [(), (1,), (2,), (2, 7), (2**33,)]


def _key(gen):
    return gen.bit_generator.state["state"]["key"]


@pytest.mark.parametrize("n_rows", [0, 1, 513])
@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("seed", SEEDS)
def test_row_streams_equal_stream(seed, key, n_rows):
    rows = row_streams(seed, n_rows, *key)
    assert isinstance(rows, list) and len(rows) == n_rows
    for r, gen in enumerate(rows):
        ref = stream(seed, *key, r)
        assert np.array_equal(_key(gen), _key(ref)), r
        assert np.array_equal(gen.bit_generator.state["state"]["counter"],
                              ref.bit_generator.state["state"]["counter"]), r
        assert np.array_equal(gen.exponential(1.0, size=200), ref.exponential(1.0, size=200)), r


def test_row_stream_extends_without_a_seam():
    # draw_extended and sequential_sample draw a row's gaps in pieces
    split = [np.concatenate([g.exponential(1.0, size=64), g.exponential(1.0, size=64)])
             for g in row_streams(3, 5, 2)]
    whole = [g.exponential(1.0, size=128) for g in row_streams(3, 5, 2)]
    assert all(np.array_equal(a, b) for a, b in zip(split, whole))


def test_negative_seed_or_key_raises():
    with pytest.raises(ValueError):
        row_streams(-1, 3, 2)
    with pytest.raises(ValueError):
        row_streams(1, 3, -2)
    with pytest.raises(ValueError):
        row_streams(1, 3, 2, -7)


def test_precomputed_key_serves_only_a_philox_key():
    seq = row_streams(1, 1, 2)[0].bit_generator.seed_seq
    assert np.array_equal(seq.generate_state(2, np.uint64), _key(stream(1, 2, 0)))
    with pytest.raises(ValueError):
        seq.generate_state(4, np.uint32)
    with pytest.raises(ValueError):
        seq.generate_state(4, np.uint64)
