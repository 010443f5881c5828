"""The stream contract: ``row_streams(seed, n, *key)[r]`` is ``stream(seed, *key, r)``,
and row r of ``row_exponentials(seed, n, m, *key)`` is that stream's first m
unit exponentials.

Both mirror NumPy's ``SeedSequence`` hash to derive every row's Philox key at
once, and ``row_exponentials`` writes Philox's ``state`` dict, so these tests
also fail if a NumPy release changes that hash or that layout.  They need no
fixtures (CI runs them with ``--noconftest`` on the latest NumPy).
"""
import numpy as np
import pytest

from tppflow.rng import row_exponentials, row_streams, stream

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


@pytest.mark.parametrize("n_rows", [0, 1, 513])
@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("seed", SEEDS)
def test_row_exponentials_equal_stream(seed, key, n_rows):
    for n_cols in (0, 1, 200):
        draws = row_exponentials(seed, n_rows, n_cols, *key)
        assert draws.shape == (n_rows, n_cols) and draws.dtype == np.float64
        for r, row in enumerate(draws):
            assert np.array_equal(row, stream(seed, *key, r).exponential(1.0, size=n_cols)), (n_cols, r)


@pytest.mark.parametrize("n_cols", [0, 1, 100])
def test_row_exponentials_wider_draw_extends_the_narrower(n_cols):
    # draw_extended redraws every row from its start when it doubles the width
    wide = row_exponentials(3, 40, 2 * n_cols, 2)
    assert np.array_equal(wide[:, :n_cols], row_exponentials(3, 40, n_cols, 2))


def test_row_stream_extends_without_a_seam():
    # sequential_sample draws a row's gaps in pieces
    split = [np.concatenate([g.exponential(1.0, size=64), g.exponential(1.0, size=64)])
             for g in row_streams(3, 5, 2)]
    whole = [g.exponential(1.0, size=128) for g in row_streams(3, 5, 2)]
    assert all(np.array_equal(a, b) for a, b in zip(split, whole))


def test_negative_seed_or_key_raises():
    for draw in (row_streams, lambda seed, n, *key: row_exponentials(seed, n, 4, *key)):
        with pytest.raises(ValueError):
            draw(-1, 3, 2)
        with pytest.raises(ValueError):
            draw(1, 3, -2)
        with pytest.raises(ValueError):
            draw(1, 3, 2, -7)


def test_precomputed_key_serves_only_a_philox_key():
    seq = row_streams(1, 1, 2)[0].bit_generator.seed_seq
    assert np.array_equal(seq.generate_state(2, np.uint64), _key(stream(1, 2, 0)))
    with pytest.raises(ValueError):
        seq.generate_state(4, np.uint32)
    with pytest.raises(ValueError):
        seq.generate_state(4, np.uint64)
