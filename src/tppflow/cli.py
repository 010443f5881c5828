"""Command-line toolkit: train / sample / eval / vi / bench.

Configuration is a flat set of dotted keys.  Precedence: ``--set key=value``
flags beat the ``--config`` file, which beats the built-in defaults.  Every
command takes --config, --seed, --out and --threads; all outputs are CSV or
JSON files under --out.  Heavy imports happen after --threads is applied so
the thread caps actually reach the numeric libraries.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
import time

__all__ = ["main", "RunConfig", "run_bench", "BENCH_LENGTHS"]

BENCH_LENGTHS = (100, 200, 400, 800, 1600, 3200, 6400, 12800)


class RunConfig:
    """Flat dotted-key configuration with typed getters."""

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

    def get(self, key, default=None):
        return self.values.get(key, default)

    def _parsed(self, key, default, parse, expected):
        """``parse`` of the key's value; a value it refuses is an error that names the key."""
        raw = self.values.get(key, default)
        try:
            return parse(raw)
        except (TypeError, ValueError):
            raise ValueError(f"config key {key!r}: expected {expected}, got {raw!r}") from None

    def get_float(self, key, default):
        return self._parsed(key, default, float, "a number")

    def get_int(self, key, default):
        return self._parsed(key, default, int, "an integer")

    def get_bool(self, key, default):
        return self._parsed(key, default, _switch, "1/true/yes/on or 0/false/no/off")

    def get_floats(self, key, default=None):
        return self._parsed(key, default, _floats, "comma-separated numbers")


def _switch(raw) -> bool:
    v = str(raw).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(v)


def _floats(raw):
    if raw is None:
        return None
    if isinstance(raw, str):
        return [float(v) for v in raw.split(",") if v.strip()]
    return list(raw)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])


def _model_kind_from(cfg: "RunConfig", horizon: float):
    from .models import ModelKind

    return ModelKind(
        kind=cfg.get("model.kind", "tritpp"),
        horizon=horizon,
        n_knots=cfg.get_int("model.knots", 10),
        block_size=cfg.get_int("model.block_size", 8),
        n_blocks=cfg.get_int("model.blocks", 2),
        rate_init=cfg.get_float("model.rate_init", 1.0),
    )


def _require_file(path, what):
    if not path:
        raise ValueError(f"no {what} given (use --data / --checkpoint or --set)")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path!r}")
    return path


def cmd_train(cfg: RunConfig, seed: int, out: str) -> int:
    import numpy as np

    from . import seqdata
    from .models import build_model, save_checkpoint
    from .train import TrainConfig, fit_mle

    data_path = _require_file(cfg.get("data"), "dataset")
    dataset = seqdata.read_dataset(data_path)
    split = seqdata.split_dataset(dataset, seed)
    horizon = dataset[0].horizon
    kind = _model_kind_from(cfg, horizon)
    model = build_model(kind)
    tc = TrainConfig(
        lr=cfg.get_float("train.lr", 1e-2),
        l2=cfg.get_float("train.l2", 0.0),
        max_epochs=cfg.get_int("train.epochs", 5000),
        plateau_patience=cfg.get_int("train.plateau", 100),
        early_stop_patience=cfg.get_int("train.early_stop", 300),
    )
    result = fit_mle(model, split, tc)

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


def cmd_sample(cfg: RunConfig, seed: int, out: str) -> int:
    from . import seqdata
    from .models import load_checkpoint
    from .tpp import sample

    ckpt = _require_file(cfg.get("checkpoint"), "checkpoint")
    n = cfg.get_int("n", 100)
    if n < 1:
        raise ValueError(f"need a positive number of sequences, got {n}")
    model, _, _ = load_checkpoint(ckpt)
    batch = sample(model, n, seed)
    sequences = batch.to_sequences()
    os.makedirs(out, exist_ok=True)
    seqdata.write_dataset(os.path.join(out, "samples.jsonl"), sequences)
    _write_csv(os.path.join(out, "lengths.csv"), ["row", "length"],
               [(r, len(s)) for r, s in enumerate(sequences)])
    mean_len = sum(len(s) for s in sequences) / n
    print(f"sampled {n} sequences, mean length {mean_len:.3f}")
    return 0


def cmd_eval(cfg: RunConfig, seed: int, out: str) -> int:
    from . import seqdata
    from .metrics import MmdConfig, mmd, wasserstein_lengths
    from .models import load_checkpoint
    from .tpp import sample
    from .train import nll_per_event

    ckpt = _require_file(cfg.get("checkpoint"), "checkpoint")
    data_path = _require_file(cfg.get("data"), "dataset")
    model, kind, extra = load_checkpoint(ckpt)
    dataset = seqdata.read_dataset(data_path)
    if cfg.get_bool("split", True):
        test_set = seqdata.split_dataset(dataset, seed).test
    else:
        test_set = dataset
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


def _mmpp_params_from(cfg: RunConfig):
    import numpy as np

    from .mjp import MmppParams

    k = cfg.get_int("mjp.k", 1)
    pi = cfg.get_floats("mjp.pi")
    pi = np.full(k, 1.0 / k) if pi is None else np.asarray(pi)
    a = cfg.get_floats("mjp.a", "0.1")
    a = np.full((k, k), a[0]) if len(a) == 1 else np.asarray(a).reshape(k, k)
    lam = cfg.get_floats("mjp.lam")
    lam = np.ones(k) if lam is None else np.asarray(lam)
    return MmppParams(pi, a, lam)


def cmd_vi(cfg: RunConfig, seed: int, out: str) -> int:
    import json

    import numpy as np

    from . import seqdata
    from .mjp import ViConfig, fit_vi, grid_times, posterior_curves, rao_teh_posterior

    data_path = _require_file(cfg.get("data"), "observation file")
    dataset = seqdata.read_dataset(data_path)
    if not dataset:
        raise ValueError(f"{data_path}: no observation record")
    obs, horizon = dataset[0].times, dataset[0].horizon
    params = _mmpp_params_from(cfg)
    vc = ViConfig(
        lr=cfg.get_float("vi.lr", 0.01),
        iters=cfg.get_int("vi.iters", 300),
        mc_samples=cfg.get_int("vi.mc", 512),
        gamma=cfg.get_float("vi.gamma", 0.1),
        seed=seed,
        n_knots=cfg.get_int("vi.knots", 10),
        block_size=cfg.get_int("vi.block_size", 4),
        n_blocks=cfg.get_int("vi.blocks", 2),
    )
    mode = cfg.get("vi.mode", "posterior")
    n_grid = cfg.get_int("grid", 200)
    result = fit_vi(obs, params, horizon, mode, vc)
    curves = posterior_curves(result.q_model, result.params, obs, n_grid=n_grid,
                              n_samples=vc.mc_samples, seed=seed + 1)
    grid = grid_times(horizon, n_grid)
    rows = [(float(grid[i]), k, float(curves[i, k]), "vi")
            for i in range(n_grid) for k in range(params.n_states)]
    if cfg.get_bool("mcmc", False):
        occ = rao_teh_posterior(obs, result.params, horizon,
                                n_samples=cfg.get_int("mcmc.samples", 1000),
                                burn_in=cfg.get_int("mcmc.burn_in", 100),
                                seed=seed + 2, n_grid=n_grid)
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
        kind = ModelKind("tritpp", horizon, n_knots=20, block_size=16, n_blocks=4,
                         rate_init=length / horizon)
        model = build_model(kind)
        rng = stream(seed, 6, length)
        times = np.sort(rng.uniform(0, horizon, size=(batch, length)), axis=1)
        pb = PaddedBatch(times, np.ones_like(times), horizon)

        t_lp = []
        for _ in range(runs):
            t0 = time.perf_counter()
            log_prob_grad(model, pb)
            t_lp.append(time.perf_counter() - t0)
        rows.append((length, "logprob_grad", "tritpp", float(np.median(t_lp)), runs))

        t_par = []
        for r in range(runs):
            t0 = time.perf_counter()
            sample(model, batch, seed + r)
            t_par.append(time.perf_counter() - t0)
        rows.append((length, "sample", "parallel", float(np.median(t_par)), runs))

        t_seq = []
        for r in range(runs):
            t0 = time.perf_counter()
            sequential_sample(model, batch, seed + r)
            t_seq.append(time.perf_counter() - t0)
        rows.append((length, "sample", "sequential", float(np.median(t_seq)), runs))
    return rows


def cmd_bench(cfg: RunConfig, seed: int, out: str) -> int:
    lengths = cfg.get_floats("lengths")
    lengths = [int(v) for v in lengths] if lengths else list(BENCH_LENGTHS)
    batch = cfg.get_int("batch", 100)
    runs = cfg.get_int("runs", 100)
    rows = run_bench(lengths, batch, runs, seed)
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "bench.csv"),
               ["length", "operation", "method", "median_seconds", "runs"], rows)
    for row in rows:
        print(f"length {row[0]:>6d}  {row[1]:>13s}/{row[2]:<10s} {row[3]*1e3:10.3f} ms")
    return 0


COMMANDS = {
    "train": cmd_train,
    "sample": cmd_sample,
    "eval": cmd_eval,
    "vi": cmd_vi,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
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

    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        cfg = RunConfig.load(args.config, args.overrides)
        if args.data:
            cfg.values["data"] = args.data
        if args.checkpoint:
            cfg.values["checkpoint"] = args.checkpoint
        return COMMANDS[args.command](cfg, args.seed, args.out)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
