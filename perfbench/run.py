#!/usr/bin/env python3
"""tppflow benchmark: three closed-loop workloads, output checks, traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload density-train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
runs every round twice, untraced and traced, and reports the per-layer
metrics, the tracing overhead (traced minus untraced median per end-to-end
metric) and the reconciliation of span self times.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record (and,
when traced, the spans) is written under ``perfbench/out/``.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5       # setup_s is the median of this many set-ups
MIN_ROUNDS = 3          # every run times each op at least this often
TAIL_SAMPLES = 10       # a p90 needs this many samples beyond it
OPS = ("step", "aux", "ref")
GENERIC_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "step_ms": "ms", "aux_ms": "ms",
                 "ref_ms": "ms", "items_per_s": "1/s"}


def cap_threads():
    """Cap BLAS/OpenMP pools at the cores this process may use (before NumPy loads)."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc, {var: os.environ[var] for var in THREAD_VARS}


def import_library():
    """Import tppflow from ``<root>/src`` only, never from an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tppflow
    if not Path(tppflow.__file__).resolve().is_relative_to(src):
        raise ImportError(f"tppflow was found at {tppflow.__file__}, not under {src}")
    return tppflow


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def tail(values, q=0.9):
    """The q-quantile, or None when fewer than TAIL_SAMPLES samples lie beyond it."""
    if len(values) * (1.0 - q) < TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[int(round(q * 100)) - 1]


def run_op(wl, st, op, tracer=None):
    """Time one operation, then check its output outside the timed region.

    Returns (seconds, output, items, check passed), or None when the op
    raised.  With a tracer the wrappers are installed around the timed call
    only, so checks run untraced.
    """
    wl.stats.attempted += 1
    try:
        with tracer.installed() if tracer else nullcontext():
            t0 = time.perf_counter()
            with tracer.op(op) if tracer else nullcontext():
                out = getattr(wl, op)(st)
            dt = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
        wl.stats.fail(op, exc)
        return None
    try:
        return dt, out, getattr(wl, "check_" + op)(st, out), True
    except Exception as exc:  # noqa: BLE001 - a failed check is counted, the run goes on
        wl.stats.fail(op, exc)
        return dt, out, None, False


def setup(wl):
    """Model build, input generation and one warm-up call of each operation."""
    t0 = time.perf_counter()
    st = wl.setup()
    for op in OPS:
        run_op(wl, st, op)
    return st, time.perf_counter() - t0


def measure(wl, st, seconds, calibrate, tracer=None):
    """Closed loop of rounds for ``seconds``.

    Returns, keyed by whether the op was traced: the timed samples per op (ms,
    divided by the op's unit count, plus "cal": the calibration kernel once
    per round), the raw wall times (s), the items done by the step op and
    the samples scaled by their round's calibration (see ``Calibration``).
    With a tracer every round runs twice, untraced and then traced, so that
    drift during the run affects both alike.
    """
    modes = (False, True) if tracer else (False,)
    out = {m: ({op: [] for op in OPS + ("cal",)}, {op: [] for op in OPS}, [0.0],
               {op: [] for op in OPS})
           for m in modes}
    deadline = time.perf_counter() + seconds
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        for traced in modes:
            samples, walls, items, scaled = out[traced]
            cal = calibrate()
            samples["cal"].append(cal)
            for op in OPS:
                res = run_op(wl, st, op, tracer if traced else None)
                if res is None:
                    continue
                dt, result, n, ok = res
                walls[op].append(dt)      # every traced op, for the reconciliation
                if not ok:
                    continue
                ms = 1e3 * dt / wl.op_divisor(op, result)
                samples[op].append(ms)
                scaled[op].append(ms * Calibration.REFERENCE_MS / cal)
                if op == "step":
                    items[0] += n
        r += 1
    return {m: (samples, walls, items[0], scaled)
            for m, (samples, walls, items, scaled) in out.items()}


class Calibration:
    """A fixed kernel that does not touch tppflow, timed once per round.

    A shared virtual machine can change speed by 20-40% for seconds to
    minutes at a time (neighbours on shared cores; measured on a 2-vCPU VM),
    which moves every op of a round alike.  Each timed sample is therefore scaled by ``REFERENCE_MS / the
    kernel's time in the same round``: milliseconds at the speed where the
    kernel takes REFERENCE_MS.  Half the kernel is vectorised NumPy on a
    batch-sized array, half is interpreter-bound (small NumPy calls and plain
    Python), like the ops it stands beside.  Raw medians and the median scale
    factor are printed and recorded as well.
    """

    REFERENCE_MS = 30.0

    def __init__(self):
        import numpy as np
        self.np = np
        self.a = np.random.default_rng(0).random((100, 1500))
        self.knots = np.linspace(0.0, 1.0, 20)

    def __call__(self):
        np, a = self.np, self.a
        t0 = time.perf_counter()
        for _ in range(2):
            np.cumsum(np.exp(-a) * np.log1p(a), axis=1) + np.searchsorted(self.knots, a)
        for _ in range(2):
            v = a[:, 0].copy()
            for i in range(a.shape[1]):
                v = (v + a[:, i]) * 0.5
        acc = 0.0
        for i in range(60_000):
            acc += (i * 0.5) % 7.0
        return 1e3 * (time.perf_counter() - t0)


def median(values):
    """Median, or None when every call of an op failed (the run is then not correct)."""
    return statistics.median(values) if values else None


def end_to_end(samples, scaled, items, setup_times):
    """The metrics (timings at the reference speed) and the raw medians."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run_scale = Calibration.REFERENCE_MS / median(samples["cal"])
    raw = {"setup_s": median(setup_times), "step_ms": median(samples["step"]),
           "aux_ms": median(samples["aux"]), "ref_ms": median(samples["ref"])}
    values = {"setup_s": raw["setup_s"] * run_scale, "peak_rss_mb": peak_kib * 1024 / 1e6,
              "step_ms": median(scaled["step"]), "aux_ms": median(scaled["aux"]),
              "ref_ms": median(scaled["ref"])}
    per_step = items / len(samples["step"]) if samples["step"] else 0.0
    raw["items_per_s"] = per_step / (1e-3 * raw["step_ms"]) if raw["step_ms"] else None
    values["items_per_s"] = per_step / (1e-3 * values["step_ms"]) if values["step_ms"] else None
    metrics = {k: {"value": values[k], "unit": GENERIC_UNITS[k]} for k in GENERIC_UNITS}
    return metrics, {"raw": raw, "speed_scale": run_scale}


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.startswith("quality."):
        return "time_units"
    return "count"


def run_workload(name, seed, seconds, trace, size=None):
    """Run one workload in this process; returns (result line, run record)."""
    from tracing import Tracer
    from workloads import FULL, WORKLOADS

    wl = WORKLOADS[name](size or FULL, seed)
    st, setup_times = None, []
    for _ in range(SETUP_REPEATS):
        st, dt = setup(wl)
        setup_times.append(dt)

    record = {"counts": {}}
    calibrate = Calibration()
    if not trace:
        samples, _, items, scaled = measure(wl, st, seconds, calibrate)[False]
        metrics, record["unscaled"] = end_to_end(samples, scaled, items, setup_times)
    else:
        tracer = Tracer()
        runs = measure(wl, st, seconds, calibrate, tracer)
        (base, _, base_items, _), (samples, walls, items, _) = runs[False], runs[True]
        values = tracer.layer_metrics()
        for op in OPS:
            values[f"trace.overhead.{op}_ms"] = median(samples[op]) - median(base[op])
        values["trace.overhead.items_per_s"] = (
            items / len(samples["step"]) / (1e-3 * median(samples["step"]))
            - base_items / len(base["step"]) / (1e-3 * median(base["step"])))
        recon = tracer.reconcile(walls)
        values["trace.residual_frac"] = max(abs(r["residual"]) / r["wall"] for r in recon.values())
        record["reconciliation_ms_per_op"] = recon
        record["counts"]["untraced"] = {op: len(v) for op, v in base.items()}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{name}-seed{seed}-spans.jsonl")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}

    for label, check in wl.final_checks(st):
        wl.stats.attempted += 1
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - counted as a failed check
            wl.stats.fail(label, exc)
    q = wl.stats.quality
    if trace:
        metrics["quality.roundtrip_max_abs"] = {"value": q.get("roundtrip_max_abs", 0.0),
                                                "unit": "time_units"}
    record["counts"]["timed"] = {op: len(v) for op, v in samples.items()}
    record["counts"]["setups"] = len(setup_times)
    record.update({
        "workload": name, "why": wl.why, "aliases": wl.aliases, "seed": seed,
        "seconds": seconds, "trace": bool(trace), "setup_s_each": setup_times,
        "samples_ms": samples, "quality": q, "failures": wl.stats.failures,
        "p90_ms": {op: tail(v) for op, v in samples.items()},
    })
    line = {"correct": wl.stats.failed == 0, "attempted": wl.stats.attempted,
            "failed": wl.stats.failed, "metrics": metrics}
    return line, record


def environment(nproc, caps):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "thread_caps": caps,
            "git_commit": git_commit(), "machine": platform.machine()}


def report(line, record, env):
    """Human-readable lines printed before the JSON result line."""
    print(f"tppflow benchmark  workload={record['workload']}  seed={record['seed']}  "
          f"seconds={record['seconds']}  trace={int(record['trace'])}")
    print(f"  why: {record['why']}")
    print(f"  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  commit {env['git_commit']}")
    print("  thread caps: " + " ".join(f"{k}={v}" for k, v in env["thread_caps"].items()))
    counts = record["counts"]["timed"]
    unscaled = record.get("unscaled")
    if unscaled:
        print(f"  timings are at the reference speed (calibration kernel "
              f"{Calibration.REFERENCE_MS} ms; this run's median scale "
              f"{unscaled['speed_scale']:.4f}); raw medians in brackets")
    for name, m in line["metrics"].items():
        op = name[:-3] if name in ("step_ms", "aux_ms", "ref_ms") else None
        note = record["aliases"].get(name, "")
        if unscaled and name in unscaled["raw"]:
            note = f"[{unscaled['raw'][name]:.6g}]  " + note
        if op:
            note += f"  n={counts[op]}"
            p90 = record["p90_ms"][op]
            note += (f"  p90={p90:.4f} ms" if p90 is not None
                     else f"  p90 not reported (n < {int(TAIL_SAMPLES / 0.1)})")
        elif name == "setup_s":
            note += f"median of {record['counts']['setups']} set-ups"
        elif name == "items_per_s":
            note += f"  over n={counts['step']} steps"
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:10s} {note}")
    attempted, failed = line["attempted"], line["failed"]
    print(f"  failed_frac {failed / attempted:.4g} ({failed} of {attempted} operations)")
    for msg in record["failures"]:
        print("  FAILED " + msg.strip().replace("\n", "\n    "))
    quality = {k: v for k, v in record["quality"].items() if not isinstance(v, list)}
    if quality:
        print("  quality: " + "  ".join(f"{k}={v:.3e}" for k, v in quality.items()))
    for op, row in record.get("reconciliation_ms_per_op", {}).items():
        print(f"  reconcile {op} (ms/op): " + "  ".join(f"{k}={v:.4f}" for k, v in row.items()))


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(total))
    return 0


WORKLOAD_NAMES = ("density-train", "sample-gen", "vi-mmpp")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)

    nproc, caps = cap_threads()
    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import tppflow from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    env = environment(nproc, caps)
    line, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    record["environment"] = env
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": line, **record}, indent=1) + "\n")
    report(line, record, env)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
