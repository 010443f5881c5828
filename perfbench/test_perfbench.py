"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root (it is not part of the library's test suite):

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402
from tppflow import mjp, tpp  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_tiny(name, trace=0):
    line, _ = run.run_workload(name, seed=3, seconds=0.2, trace=trace, size=workloads.TINY)
    return line


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_emitted_metrics_match_spec(name, trace):
    line = run_tiny(name, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) and np.isfinite(v["value"])
               for v in line["metrics"].values())
    json.dumps(line, allow_nan=False)


def test_spec_workloads_are_the_runners():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES


def test_tracer_restores_the_library():
    before = (tpp.sample, mjp.elbo_relaxed, workloads.tr.Spline.forward, workloads.tr.Bridge.vjp)
    run_tiny("vi-mmpp", trace=1)
    assert (tpp.sample, mjp.elbo_relaxed, workloads.tr.Spline.forward,
            workloads.tr.Bridge.vjp) == before


def test_traced_spans_reconcile():
    line = run_tiny("density-train", trace=1)
    assert line["metrics"]["trace.residual_frac"]["value"] < 0.05
    assert line["metrics"]["splines.calls"]["value"] > 0


def _planted(monkeypatch, owner, attr, corrupt):
    orig = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *a, **k: corrupt(orig(*a, **k)))


def _non_monotone(sb):
    sb.clipped[0, [0, 1]] = sb.clipped[0, [1, 0]] + np.array([0.0, 1.0])
    return sb


@pytest.mark.parametrize("name, owner, attr, corrupt", [
    ("sample-gen", tpp, "sample", _non_monotone),
    ("density-train", tpp, "log_prob_grad", lambda out: (out[0], 1.1 * out[1])),
    ("vi-mmpp", mjp, "posterior_curves", lambda c: 0.9 * c),
])
def test_planted_fault_is_counted(monkeypatch, name, owner, attr, corrupt):
    _planted(monkeypatch, owner, attr, corrupt)
    line = run_tiny(name)
    assert not line["correct"] and line["failed"] > 0


def test_exits_nonzero_without_the_library():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sample-gen",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

