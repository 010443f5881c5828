"""Command-line toolkit: train / sample / eval / vi / bench.

Configuration is a flat set of dotted keys.  Precedence: ``--set key=value``
flags beat the ``--config`` file, which beats the built-in defaults.  Each
command reads the keys ``key_table()`` lists for it; every one is parsed
before the command starts, and a key it does not read is an error.  Every
command takes --config, --seed, --out and --threads; all outputs are CSV or
JSON files under --out.  Heavy imports, the key table's among them, happen
after --threads is applied so the thread caps reach the numeric libraries.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import time

__all__ = ["main", "parse_args", "RunConfig", "key_table", "run_bench", "BENCH_LENGTHS"]

BENCH_LENGTHS = (100, 200, 400, 800, 1600, 3200, 6400, 12800)


def _parser(expected, convert, ok=lambda value: True):
    """A key's parse function: ``convert`` the raw string and refuse a value
    ``ok`` rejects; its error says what was ``expected``."""
    def parse(raw):
        try:
            value = convert(raw)
            if ok(value):
                return value
        except (KeyError, ValueError):
            pass
        raise ValueError(expected)
    return parse


_TYPED = {"int": _parser("an integer", int), "float": _parser("a number", float)}
_COUNT = _parser("a positive integer", int, lambda v: v >= 1)
_SWITCHES = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}
_SWITCH = _parser("1/true/yes/on or 0/false/no/off", lambda raw: _SWITCHES[raw.lower()])
_FLOATS = _parser("comma-separated numbers",
                  lambda raw: tuple(float(v) for v in raw.split(",") if v.strip()))


def _fields(cls, prefix, **names):
    """Keys ``prefix.name`` that set ``cls``'s field ``names[name]``, with its type and default."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    return {f"{prefix}.{name}": (_TYPED[fields[field].type], fields[field].default, cls, field)
            for name, field in names.items()}


def key_table():
    """Each command's keys: key -> (parse, default), or (parse, default, class,
    field) for a key that sets a field of a config class.  Built on call, as
    the config classes import NumPy."""
    from .mjp import ViConfig
    from .models import KINDS, ModelKind
    from .train import TrainConfig

    path = (str, None)
    lengths = _parser("comma-separated positive integers",
                      lambda raw: tuple(int(v) for v in raw.split(",")), lambda v: min(v) >= 1)
    return {
        "train": {"data": path,
                  "model.kind": (_parser(f"one of {', '.join(KINDS)}", str, KINDS.__contains__),
                                 "tritpp"),
                  **_fields(ModelKind, "model", knots="n_knots", block_size="block_size",
                            blocks="n_blocks", rate_init="rate_init"),
                  **_fields(TrainConfig, "train", lr="lr", l2="l2", epochs="max_epochs",
                            plateau="plateau_patience", early_stop="early_stop_patience")},
        "sample": {"checkpoint": path, "n": (_COUNT, 100)},
        "eval": {"checkpoint": path, "data": path, "split": (_SWITCH, True)},
        "vi": {"data": path, "mjp.k": (_COUNT, 1), "mjp.pi": (_FLOATS, None),
               "mjp.a": (_FLOATS, (0.1,)), "mjp.lam": (_FLOATS, None),
               "vi.mode": (_parser("posterior or learn", str, ("posterior", "learn").__contains__),
                           "posterior"),
               **_fields(ViConfig, "vi", iters="iters", mc="mc_samples", gamma="gamma",
                         lr="lr", knots="n_knots", blocks="n_blocks", block_size="block_size"),
               "grid": (_COUNT, 200), "mcmc": (_SWITCH, False), "mcmc.samples": (_COUNT, 1000),
               "mcmc.burn_in": (_parser("an integer >= 0", int, lambda v: v >= 0), 100)},
        "bench": {"lengths": (lengths, BENCH_LENGTHS), "batch": (_COUNT, 100),
                  "runs": (_COUNT, 100)},
    }


class RunConfig:
    """Flat dotted-key configuration, read through a command's key table."""

    def __init__(self, values: dict[str, str]):
        self.values = dict(values)

    @classmethod
    def load(cls, path: str | None, overrides: list[str]) -> "RunConfig":
        values: dict[str, str] = {}
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                    key, val = line.split("=", 1)
                    values[key.strip()] = val.strip()
        for item in overrides:
            if "=" not in item:
                raise ValueError(f"--set expects key=value, got {item!r}")
            key, val = item.split("=", 1)
            values[key.strip()] = val.strip()
        return cls(values)

    def read(self, command: str) -> dict:
        """Every key of ``command``, parsed or defaulted; the keys that set a
        config class's fields are gathered under the class as keyword
        arguments.  A value that does not parse, and a key the command does
        not read, are errors that name the key."""
        table = key_table()[command]
        unknown = [key for key in self.values if key not in table]
        if unknown:
            raise ValueError(f"{command} reads no config key {', '.join(map(repr, unknown))}; "
                             f"its keys are {', '.join(table)}")
        opts = {}
        for key, (parse, default, *field) in table.items():
            raw = self.values.get(key)
            try:
                value = default if raw is None else parse(raw)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: expected {exc}, got {raw!r}") from None
            if field:
                opts.setdefault(field[0], {})[field[1]] = value
            else:
                opts[key] = value
        return opts


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])


def _require_file(path, what):
    if not path:
        raise ValueError(f"no {what} given (use --data / --checkpoint or --set)")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path!r}")
    return path


def cmd_train(opts: dict, seed: int, out: str) -> int:
    import numpy as np

    from . import seqdata
    from .models import ModelKind, build_model, save_checkpoint
    from .train import TrainConfig, fit_mle

    tc = TrainConfig(**opts[TrainConfig])
    data_path = _require_file(opts["data"], "dataset")
    dataset = seqdata.read_dataset(data_path)
    split = seqdata.split_dataset(dataset, seed)
    kind = ModelKind(opts["model.kind"], dataset[0].horizon, **opts[ModelKind])
    result = fit_mle(build_model(kind), split, tc)

    os.makedirs(out, exist_ok=True)
    save_checkpoint(os.path.join(out, "checkpoint.json"), result.model, kind,
                    extra={"n_avg": result.n_avg, "seed": seed, "data": data_path})
    _write_csv(os.path.join(out, "loss.csv"), ["epoch", "train_nll", "val_nll", "lr"],
               result.history)
    summary = [("epochs_run", float(len(result.history))),
               ("final_train_nll", result.history[-1][1]),
               ("final_val_nll", result.history[-1][2]),
               ("test_nll", float("nan") if result.test_nll is None else result.test_nll)]
    if kind.kind == "hpp":
        summary.append(("rate_hat", float(np.exp(result.model.params.view("rate")[0]))))
    _write_csv(os.path.join(out, "summary.csv"), ["key", "value"], summary)
    print(f"trained {kind.kind} on {len(split.train)} sequences; "
          f"test NLL/event = {result.test_nll}")
    return 0


def cmd_sample(opts: dict, seed: int, out: str) -> int:
    from . import seqdata
    from .models import load_checkpoint
    from .tpp import sample

    ckpt = _require_file(opts["checkpoint"], "checkpoint")
    n = opts["n"]
    model, _, _ = load_checkpoint(ckpt)
    sequences = sample(model, n, seed).to_sequences()
    os.makedirs(out, exist_ok=True)
    seqdata.write_dataset(os.path.join(out, "samples.jsonl"), sequences)
    _write_csv(os.path.join(out, "lengths.csv"), ["row", "length"],
               [(r, len(s)) for r, s in enumerate(sequences)])
    mean_len = sum(len(s) for s in sequences) / n
    print(f"sampled {n} sequences, mean length {mean_len:.3f}")
    return 0


def cmd_eval(opts: dict, seed: int, out: str) -> int:
    from . import seqdata
    from .metrics import MmdConfig, mmd, wasserstein_lengths
    from .models import load_checkpoint
    from .tpp import sample
    from .train import nll_per_event

    ckpt = _require_file(opts["checkpoint"], "checkpoint")
    data_path = _require_file(opts["data"], "dataset")
    model, kind, extra = load_checkpoint(ckpt)
    dataset = seqdata.read_dataset(data_path)
    test_set = seqdata.split_dataset(dataset, seed).test if opts["split"] else dataset
    if not test_set:
        raise ValueError("evaluation set is empty")
    test_batch = seqdata.pad_batch(test_set)
    n_avg = float(extra.get("n_avg") or max(test_batch.mask.sum() / len(test_set), 1.0))

    nll = nll_per_event(model, test_batch, n_avg)
    generated = sample(model, len(test_set), seed).to_sequences()
    mmd_val = mmd(generated, test_set, MmdConfig())
    wd = wasserstein_lengths(generated, test_set)

    os.makedirs(out, exist_ok=True)
    name = kind.kind if kind else "model"
    rows = [(name, os.path.basename(data_path), "nll_per_event", nll),
            (name, os.path.basename(data_path), "mmd", mmd_val),
            (name, os.path.basename(data_path), "wasserstein_lengths", wd)]
    _write_csv(os.path.join(out, "metrics.csv"),
               ["model", "dataset", "metric", "value"], rows)
    print(f"nll/event {nll:.6f}  mmd {mmd_val:.6f}  wasserstein_lengths {wd:.6f}")
    return 0


def _mmpp_params(opts: dict):
    """``MmppParams`` from the mjp.* keys; a list that does not fit ``mjp.k``
    is an error that names its key."""
    import numpy as np

    from .mjp import MmppParams

    k = opts["mjp.k"]
    for key, sizes in (("mjp.pi", {k}), ("mjp.a", {1, k * k}), ("mjp.lam", {k})):
        if opts[key] is not None and len(opts[key]) not in sizes:
            raise ValueError(f"config key {key!r}: expected {' or '.join(map(str, sorted(sizes)))} "
                             f"values for mjp.k = {k}, got {len(opts[key])}")
    pi, a, lam = opts["mjp.pi"], np.asarray(opts["mjp.a"]), opts["mjp.lam"]
    return MmppParams(np.full(k, 1.0 / k) if pi is None else np.asarray(pi),
                      np.full((k, k), a[0]) if a.size == 1 else a.reshape(k, k),
                      np.ones(k) if lam is None else np.asarray(lam))


def cmd_vi(opts: dict, seed: int, out: str) -> int:
    import json

    import numpy as np

    from . import seqdata
    from .mjp import ViConfig, fit_vi, grid_times, posterior_curves, rao_teh_posterior

    params = _mmpp_params(opts)
    vc = ViConfig(seed=seed, **opts[ViConfig])
    mode, n_grid = opts["vi.mode"], opts["grid"]
    data_path = _require_file(opts["data"], "observation file")
    dataset = seqdata.read_dataset(data_path)
    if not dataset:
        raise ValueError(f"{data_path}: no observation record")
    obs, horizon = dataset[0].times, dataset[0].horizon
    result = fit_vi(obs, params, horizon, mode, vc)
    curves = posterior_curves(result.q_model, result.params, obs, n_grid=n_grid,
                              n_samples=vc.mc_samples, seed=seed + 1)
    grid = grid_times(horizon, n_grid)
    rows = [(float(grid[i]), k, float(curves[i, k]), "vi")
            for i in range(n_grid) for k in range(params.n_states)]
    if opts["mcmc"]:
        occ = rao_teh_posterior(obs, result.params, horizon, n_samples=opts["mcmc.samples"],
                                burn_in=opts["mcmc.burn_in"], seed=seed + 2, n_grid=n_grid)
        rows += [(float(grid[i]), k, float(occ[i, k]), "mcmc")
                 for i in range(n_grid) for k in range(params.n_states)]
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "posterior.csv"),
               ["time", "state", "probability", "method"], rows)
    _write_csv(os.path.join(out, "elbo.csv"), ["iteration", "elbo"],
               list(enumerate(result.elbo_history)))
    if mode == "learn":
        with open(os.path.join(out, "theta.json"), "w", encoding="utf-8") as fh:
            json.dump({"pi": result.params.pi.tolist(), "A": result.params.A.tolist(),
                       "lam": result.params.lam.tolist()}, fh)
            fh.write("\n")
    print(f"vi done: final ELBO {np.mean(result.elbo_history[-10:]):.4f}")
    return 0


def run_bench(lengths, batch: int, runs: int, seed: int):
    """Wall-clock rows for (length, operation, method) triples.

    Operations: masked log-density + parameter gradient of the
    block-triangular model, parallel inversion sampling, and the sequential
    one-event-at-a-time sampler over the same density.
    """
    import numpy as np

    from .models import ModelKind, build_model
    from .rng import stream
    from .seqdata import PaddedBatch
    from .tpp import sample, sequential_sample
    from .train import log_prob_grad

    horizon = 100.0
    rows = []
    for length in lengths:
        model = build_model(ModelKind("tritpp", horizon, n_knots=20, block_size=16, n_blocks=4,
                                      rate_init=length / horizon))
        rng = stream(seed, 6, length)
        times = np.sort(rng.uniform(0, horizon, size=(batch, length)), axis=1)
        pb = PaddedBatch(times, np.ones_like(times), horizon)
        calls = (("logprob_grad", "tritpp", lambda r: log_prob_grad(model, pb)),
                 ("sample", "parallel", lambda r: sample(model, batch, seed + r)),
                 ("sample", "sequential", lambda r: sequential_sample(model, batch, seed + r)))
        for operation, method, call in calls:
            seconds = []
            for r in range(runs):
                t0 = time.perf_counter()
                call(r)
                seconds.append(time.perf_counter() - t0)
            rows.append((length, operation, method, float(np.median(seconds)), runs))
    return rows


def cmd_bench(opts: dict, seed: int, out: str) -> int:
    rows = run_bench(opts["lengths"], opts["batch"], opts["runs"], seed)
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "bench.csv"),
               ["length", "operation", "method", "median_seconds", "runs"], rows)
    for row in rows:
        print(f"length {row[0]:>6d}  {row[1]:>13s}/{row[2]:<10s} {row[3]*1e3:10.3f} ms")
    return 0


COMMANDS = {"train": cmd_train, "sample": cmd_sample, "eval": cmd_eval, "vi": cmd_vi,
            "bench": cmd_bench}


def parse_args(argv=None) -> argparse.Namespace:
    """The command line; --data and --checkpoint become the last --set values,
    so a shortcut beats ``--set`` as the last value of a key wins."""
    parser = argparse.ArgumentParser(
        prog="tppflow",
        description="Temporal point processes as increasing triangular maps.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--data", default=None, help="shortcut for --set data=PATH")
    parser.add_argument("--checkpoint", default=None, help="shortcut for --set checkpoint=PATH")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    args.overrides = args.overrides + [f"{key}={getattr(args, key)}"
                                       for key in ("data", "checkpoint") if getattr(args, key)]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        opts = RunConfig.load(args.config, args.overrides).read(args.command)
        return COMMANDS[args.command](opts, args.seed, args.out)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
