"""Counter-based random streams.

All stochastic code in this package draws from Philox generators keyed by
(seed, stream indices) through ``numpy.random.SeedSequence``.  Streams are
statistically independent, so results never depend on evaluation order or
thread scheduling, and a per-row stream can be extended (more draws) without
touching any other row.

``stream`` is the reference definition.  ``row_streams(seed, n, *key)[r]``
is the same generator as ``stream(seed, *key, r)``, but it derives every
row's Philox key in one pass: NumPy's ``SeedSequence`` hash, run in uint32
arithmetic with one lane per row.  The hash constants advance with the number
of words hashed, which is the same for every row, so each lane is exact.
Each key reaches ``np.random.Philox`` through an ``ISeedSequence`` that hands
it back, so Philox and the samplers stay NumPy's own.

``row_exponentials(seed, n, m, *key)[r]`` is
``stream(seed, *key, r).exponential(1.0, size=m)`` without a generator per
row.  Philox is counter-based: one bit generator set to a row's key, a zero
counter and an empty buffer is that row's fresh stream, so a call re-keys one
generator row by row.  Each call builds its own, so calls stay thread-safe.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["stream", "row_streams", "row_exponentials"]

# numpy.random.SeedSequence's hash (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seed=ss))


def row_streams(seed: int, n_rows: int, *key: int) -> list[np.random.Generator]:
    """One independent generator per batch row; row r's is ``stream(seed, *key, r)``."""
    return [np.random.Generator(np.random.Philox(seed=_PhiloxKey(k)))
            for k in _philox_keys(seed, int(n_rows), key)]


def row_exponentials(seed: int, n_rows: int, n_cols: int, *key: int) -> np.ndarray:
    """(n_rows, n_cols) unit exponentials; row r is the first n_cols draws of
    ``stream(seed, *key, r)``, so a wider draw extends a narrower one."""
    keys = _philox_keys(seed, int(n_rows), key)
    out = np.empty((len(keys), int(n_cols)))
    gen = np.random.Generator(np.random.Philox(key=0))
    fresh = gen.bit_generator.state          # zero counter, empty buffer
    for k, row in zip(keys, out):
        fresh["state"]["key"] = k
        gen.bit_generator.state = fresh
        gen.standard_exponential(out=row)
    return out


class _PhiloxKey(ISeedSequence):
    """A Philox key worked out in advance, given back as the 128-bit state."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds one Philox key (2 uint64 words), "
                             f"not {n_words} of {np.dtype(dtype)}")
        return self.key


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer, [0] for 0."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix; its multiplier advances once per word hashed."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> _XSHIFT)
    return hashmix


def _mix(x, y):
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _XSHIFT)


def _philox_keys(seed: int, n_rows: int, key: tuple) -> np.ndarray:
    """(n_rows, 2) uint64; row r is
    ``SeedSequence(seed, spawn_key=key + (r,)).generate_state(2, np.uint64)``."""
    run = _words(seed)
    run += [0] * (_POOL - len(run))          # a spawn key pads the entropy to the pool
    head = run + [w for k in key for w in _words(k)]
    entropy = np.empty((len(head) + 1, max(n_rows, 0)), dtype=np.uint32)
    entropy[:-1] = np.array(head, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(entropy.shape[1])   # row r < 2**32 is one word

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(w))

    out = _hasher(_INIT_B, _MULT_B)
    state = [out(w).astype(np.uint64) for w in pool]    # 4 words: 2 uint64, little-endian
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)
