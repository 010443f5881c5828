"""Event-sequence data model: validation, file I/O, splitting, batch padding
and a homogeneous-Poisson simulator used as ground truth in tests."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .rng import row_streams, stream

__all__ = [
    "EventSequence",
    "PaddedBatch",
    "DatasetSplit",
    "read_dataset",
    "write_dataset",
    "split_dataset",
    "pad_batch",
    "unpad_batch",
    "simulate_hpp",
]


@dataclass(frozen=True)
class EventSequence:
    """One realization of a point process on (0, T].

    ``times`` must be strictly increasing with 0 < t_1 < ... < t_N <= T.
    The empty sequence (N = 0) is allowed.
    """

    times: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "horizon", float(self.horizon))
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError(f"horizon must be a positive finite number, got {self.horizon}")
        if t.size == 0:
            return
        if not np.all(np.isfinite(t)):
            raise ValueError("event times must be finite")
        if t[0] <= 0.0:
            raise ValueError("event time at index 0 must be > 0")
        bad = np.nonzero(np.diff(t) <= 0.0)[0]
        if bad.size:
            i = int(bad[0]) + 1
            raise ValueError(f"event times must be strictly increasing: violation at index {i}")
        if t[-1] > self.horizon:
            raise ValueError(f"event time {t[-1]} exceeds horizon {self.horizon}")

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class PaddedBatch:
    """Rectangular batch of sequences padded with the horizon T.

    ``times`` is (B, N') with events first, then T entries; ``mask`` is 1.0 on
    events and 0.0 on padding, non-increasing left to right within a row.
    Real events (mask > 0) are held to ``EventSequence``'s rules: each after
    time 0, and no two at the same time.  The chain pins every zero gap as
    padding; a ``BlockDiag`` would hand a pinned gap between real events the
    cotangent of later positions, which the ``logit`` bridge's VJP scales by
    ~1e12 (``grad_times`` read +-4.1e10 at two equal times of a ``tritpp`` row).
    """

    times: np.ndarray
    mask: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.atleast_2d(np.asarray(self.times, dtype=np.float64))
        m = np.atleast_2d(np.asarray(self.mask, dtype=np.float64))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "mask", m)
        object.__setattr__(self, "horizon", float(self.horizon))
        if t.shape != m.shape:
            raise ValueError(f"times {t.shape} and mask {m.shape} must have the same shape")
        if t.ndim != 2 or t.shape[1] < 1:
            raise ValueError("padded batch must be (B, N') with N' >= 1")
        gaps = np.diff(t, axis=1)
        if np.any(gaps < 0):
            raise ValueError("padded rows must be non-decreasing")
        if np.any((m < 0) | (m > 1)):
            raise ValueError("mask entries must lie in [0, 1]")
        if np.any(np.diff(m, axis=1) > 0):
            raise ValueError("mask must be non-increasing within each row")
        real = m > 0.0
        bad = np.argwhere(real & (t <= 0.0))
        if bad.size:
            r, i = bad[0]
            raise ValueError(f"row {r}: event time at index {i} must be > 0")
        bad = np.argwhere(real[:, 1:] & (gaps == 0.0))
        if bad.size:
            r, i = bad[0]
            raise ValueError(f"row {r}: event times must be strictly increasing: "
                             f"violation at index {i + 1}")

    @property
    def batch_size(self) -> int:
        return self.times.shape[0]


@dataclass
class DatasetSplit:
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)


def write_dataset(path, dataset: list[EventSequence]) -> None:
    """Write one JSON record {"t": [...], "T": horizon} per line.

    ``json`` serializes doubles with repr so the round trip is bit exact.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for seq in dataset:
            fh.write(json.dumps({"t": seq.times.tolist(), "T": seq.horizon}))
            fh.write("\n")


def read_dataset(path) -> list[EventSequence]:
    """Read a line-delimited dataset written by :func:`write_dataset`."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                times, horizon = rec["t"], rec["T"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: parse error on line {lineno}: {exc}") from exc
            try:
                out.append(EventSequence(np.asarray(times, dtype=np.float64), horizon))
            except ValueError as exc:
                raise ValueError(f"{path}: invalid record on line {lineno}: {exc}") from exc
    return out


def split_dataset(dataset: list[EventSequence], seed: int) -> DatasetSplit:
    """Deterministic shuffled 60/20/20 split."""
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    perm = stream(seed, 0).permutation(n)
    n_train = int(0.6 * n)
    n_val = int(0.2 * n)
    parts = np.split(perm, [n_train, n_train + n_val])
    return DatasetSplit(*([dataset[i] for i in idx] for idx in parts))


def pad_batch(sequences: list[EventSequence]) -> PaddedBatch:
    """Stack sequences into a rectangular batch padded with T."""
    if len(sequences) == 0:
        raise ValueError("cannot pad an empty batch")
    horizons = {s.horizon for s in sequences}
    if len(horizons) != 1:
        raise ValueError(f"all sequences must share one horizon, got {sorted(horizons)}")
    horizon = horizons.pop()
    width = max(1, max(len(s) for s in sequences))
    times = np.full((len(sequences), width), horizon, dtype=np.float64)
    mask = np.zeros((len(sequences), width), dtype=np.float64)
    for r, s in enumerate(sequences):
        times[r, :len(s)] = s.times
        mask[r, :len(s)] = 1.0
    return PaddedBatch(times, mask, horizon)


def unpad_batch(batch: PaddedBatch) -> list[EventSequence]:
    """Recover the original sequences from a hard-masked batch."""
    out = []
    for r in range(batch.batch_size):
        n = int(round(batch.mask[r].sum()))
        out.append(EventSequence(batch.times[r, :n].copy(), batch.horizon))
    return out


def simulate_hpp(rate: float, horizon: float, count: int, seed: int) -> list[EventSequence]:
    """Simulate ``count`` homogeneous-Poisson sequences on (0, T].

    Each sequence is drawn from its own (seed, row) stream: inter-event gaps
    are iid Exponential(rate), truncated at the horizon.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    chunk = max(16, int(2 * rate * horizon))
    out = []
    for rng in row_streams(seed, count, 1):
        gaps = rng.exponential(scale=1.0 / rate, size=chunk)
        t = np.cumsum(gaps)
        while t[-1] <= horizon:
            more = rng.exponential(scale=1.0 / rate, size=chunk)
            t = np.concatenate([t, t[-1] + np.cumsum(more)])
        out.append(EventSequence(t[t <= horizon], horizon))
    return out
