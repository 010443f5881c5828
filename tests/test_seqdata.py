import numpy as np
import pytest

from tppflow import seqdata as sd
from tppflow.metrics import ks_exp1


def test_event_sequence_validation():
    sd.EventSequence(np.array([1.0, 2.0]), 5.0)
    sd.EventSequence(np.array([]), 5.0)
    sd.EventSequence(np.array([5.0]), 5.0)   # event exactly at the horizon
    with pytest.raises(ValueError, match="index 1"):
        sd.EventSequence(np.array([2.0, 1.0]), 5.0)
    with pytest.raises(ValueError, match="index 1"):
        sd.EventSequence(np.array([1.0, 1.0]), 5.0)   # duplicates rejected
    with pytest.raises(ValueError):
        sd.EventSequence(np.array([0.0, 1.0]), 5.0)
    with pytest.raises(ValueError):
        sd.EventSequence(np.array([1.0, 6.0]), 5.0)
    with pytest.raises(ValueError):
        sd.EventSequence(np.array([1.0]), -1.0)


def test_io_round_trip_is_bit_exact(tmp_path, rng):
    path = tmp_path / "ds.jsonl"
    data = [sd.EventSequence(np.sort(rng.uniform(0, 5.0, rng.integers(0, 20))), 5.0)
            for _ in range(50)]
    sd.write_dataset(path, data)
    back = sd.read_dataset(path)
    assert len(back) == len(data)
    for a, b in zip(data, back):
        assert a.horizon == b.horizon
        assert np.array_equal(a.times, b.times)   # bit-level


def test_io_simple_example(tmp_path):
    path = tmp_path / "one.jsonl"
    sd.write_dataset(path, [sd.EventSequence(np.array([1.0, 2.0]), 5.0)])
    [seq] = sd.read_dataset(path)
    assert seq.horizon == 5.0 and np.array_equal(seq.times, [1.0, 2.0])


def test_io_errors(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t": [2.0, 1.0], "T": 5.0}\n')
    with pytest.raises(ValueError, match="line 1.*index 1"):
        sd.read_dataset(bad)
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text('{"t": [1.0], "T": 5.0}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        sd.read_dataset(garbled)


def test_io_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert sd.read_dataset(path) == []


def test_split_proportions_and_determinism():
    data = [sd.EventSequence(np.array([1.0]), 5.0) for _ in range(10)]
    split = sd.split_dataset(data, seed=3)
    assert (len(split.train), len(split.val), len(split.test)) == (6, 2, 2)
    data = [sd.EventSequence(np.array([1.0]), 5.0) for _ in range(1000)]
    split = sd.split_dataset(data, seed=3)
    assert (len(split.train), len(split.val), len(split.test)) == (600, 200, 200)
    again = sd.split_dataset(data, seed=3)
    assert all(a is b for a, b in zip(split.train, again.train))
    with pytest.raises(ValueError):
        sd.split_dataset([], seed=0)


def test_split_partitions_dataset(rng):
    data = [sd.EventSequence(np.sort(rng.uniform(0, 5, 3)), 5.0) for _ in range(37)]
    split = sd.split_dataset(data, seed=1)
    ids = [id(s) for s in split.train + split.val + split.test]
    assert sorted(ids) == sorted(id(s) for s in data)


def test_pad_batch_matches_padding_convention():
    seqs = [sd.EventSequence(np.array([1.0, 2.5, 4.0]), 5.0)]
    batch = sd.pad_batch(seqs)
    assert batch.times.shape == (1, 3)
    assert np.array_equal(batch.times[0], [1.0, 2.5, 4.0])
    assert np.array_equal(batch.mask[0], [1.0, 1.0, 1.0])
    # adding an empty sequence pads the batch with the horizon
    batch = sd.pad_batch(seqs + [sd.EventSequence(np.array([]), 5.0)])
    assert np.array_equal(batch.times, [[1.0, 2.5, 4.0], [5.0, 5.0, 5.0]])
    assert np.array_equal(batch.mask, [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])


def test_pad_batch_errors():
    with pytest.raises(ValueError):
        sd.pad_batch([])
    with pytest.raises(ValueError, match="horizon"):
        sd.pad_batch([sd.EventSequence(np.array([1.0]), 5.0),
                      sd.EventSequence(np.array([1.0]), 6.0)])


def test_pad_unpad_round_trip(rng):
    seqs = [sd.EventSequence(np.sort(rng.uniform(0, 5.0, rng.integers(0, 15))), 5.0)
            for _ in range(20)]
    back = sd.unpad_batch(sd.pad_batch(seqs))
    for a, b in zip(seqs, back):
        assert np.array_equal(a.times, b.times) and a.horizon == b.horizon


def test_padded_batch_invariants():
    with pytest.raises(ValueError, match="non-decreasing"):
        sd.PaddedBatch(np.array([[2.0, 1.0]]), np.array([[1.0, 1.0]]), 5.0)
    with pytest.raises(ValueError, match="non-increasing"):
        sd.PaddedBatch(np.array([[1.0, 2.0]]), np.array([[0.0, 1.0]]), 5.0)


def test_padded_batch_refuses_events_at_zero_and_ties():
    """A real event (mask > 0, soft masks included) at t <= 0, or two real
    events at one time, would make a zero gap that the chain pins like
    padding; it is refused as ``EventSequence`` refuses it, naming the row
    and the index.  Padding may repeat the last event time."""
    times = np.array([[1.0, 2.0, 5.0], [0.5, 3.0, 5.0]])
    with pytest.raises(ValueError, match=r"row 1: event time at index 0 must be > 0"):
        sd.PaddedBatch(np.where([[False] * 3, [True, False, False]], 0.0, times),
                       np.ones((2, 3)), 5.0)
    with pytest.raises(ValueError, match=r"row 0: event time at index 0 must be > 0"):
        sd.PaddedBatch(np.array([[-1.0, 2.0]]), np.array([[0.3, 0.0]]), 5.0)
    with pytest.raises(ValueError, match=r"row 1: .*strictly increasing: violation at index 2"):
        sd.PaddedBatch(np.array([[1.0, 2.0, 5.0], [0.5, 3.0, 3.0]]),
                       np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.2]]), 5.0)
    with pytest.raises(ValueError, match=r"row 0: .*strictly increasing: violation at index 1"):
        sd.PaddedBatch(np.array([[2.0, 2.0]]), np.array([[1.0, 1.0]]), 5.0)
    for t, m in ((times, np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])),
                 (np.array([[2.0, 2.0, 2.0]]), np.array([[1.0, 0.0, 0.0]]))):
        assert sd.PaddedBatch(t, m, 5.0).batch_size == t.shape[0]


def test_simulate_hpp_count_statistics():
    data = sd.simulate_hpp(3.0, 10.0, 10_000, seed=7)
    counts = np.array([len(s) for s in data])
    assert abs(counts.mean() - 30.0) < 3.0 * np.sqrt(30.0 / 10_000)


def test_simulate_hpp_validation_and_determinism():
    with pytest.raises(ValueError):
        sd.simulate_hpp(-1.0, 10.0, 5, seed=0)
    with pytest.raises(ValueError):
        sd.simulate_hpp(1.0, 0.0, 5, seed=0)
    a = sd.simulate_hpp(2.0, 10.0, 5, seed=9)
    b = sd.simulate_hpp(2.0, 10.0, 5, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x.times, y.times)


def test_simulate_hpp_gaps_are_exponential():
    # large per-sequence budget keeps the censoring bias of pooling complete
    # gaps far below the KS resolution at n = 1e4
    data = sd.simulate_hpp(2.0, 100.0, 55, seed=11)
    gaps = np.concatenate([np.diff(np.concatenate([[0.0], s.times])) for s in data])
    assert gaps.size > 10_000
    stat, passed = ks_exp1(gaps[:10_000] * 2.0)   # rescale by the rate
    assert passed, f"KS statistic {stat}"
