import csv
import json

import numpy as np
import pytest

from tppflow import cli, mjp, seqdata
from tppflow.cli import main
from tppflow.mjp import MmppParams, simulate_mmpp
from tppflow.models import load_checkpoint
from tppflow.train import TrainConfig


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def hpp_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "hpp2.jsonl"
    seqdata.write_dataset(path, seqdata.simulate_hpp(2.0, 10.0, 200, seed=1))
    return str(path)


def test_train_recovers_hpp_rate(tmp_path, hpp_dataset):
    out = tmp_path / "run"
    rc = main(["train", "--seed", "5", "--out", str(out), "--data", hpp_dataset,
               "--set", "model.kind=hpp", "--set", "train.epochs=1500"])
    assert rc == 0
    summary = {r["key"]: float(r["value"]) for r in read_csv(out / "summary.csv")}
    data = seqdata.read_dataset(hpp_dataset)
    train = seqdata.split_dataset(data, seed=5).train
    mle = sum(len(s) for s in train) / (len(train) * 10.0)
    assert summary["rate_hat"] == pytest.approx(mle, abs=1e-3)
    # the checkpoint keeps the n_avg that fit_mle trained with
    _, _, extra = load_checkpoint(str(out / "checkpoint.json"))
    assert extra["n_avg"] == max(sum(len(s) for s in train) / len(train), 1.0)
    rows = read_csv(out / "loss.csv")
    assert set(rows[0]) == {"epoch", "train_nll", "val_nll", "lr"}


def test_train_determinism(tmp_path, hpp_dataset):
    args = ["train", "--seed", "9", "--data", hpp_dataset,
            "--set", "model.kind=mrp", "--set", "train.epochs=40"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "checkpoint.json").read_bytes()
    b = (tmp_path / "b" / "checkpoint.json").read_bytes()
    assert a == b


def test_train_missing_dataset_no_partial_outputs(tmp_path, capsys):
    out = tmp_path / "never"
    rc = main(["train", "--seed", "1", "--out", str(out), "--data",
               str(tmp_path / "missing.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_sample_outputs(tmp_path, hpp_dataset):
    out = tmp_path / "run"
    main(["train", "--seed", "5", "--out", str(out), "--data", hpp_dataset,
          "--set", "model.kind=hpp", "--set", "train.epochs=300"])
    rc = main(["sample", "--seed", "6", "--out", str(tmp_path / "s"),
               "--checkpoint", str(out / "checkpoint.json"), "--set", "n=400"])
    assert rc == 0
    samples = seqdata.read_dataset(tmp_path / "s" / "samples.jsonl")
    assert len(samples) == 400
    lengths = read_csv(tmp_path / "s" / "lengths.csv")
    assert len(lengths) == 400
    assert int(lengths[3]["length"]) == len(samples[3])
    mean_count = np.mean([len(s) for s in samples])
    assert abs(mean_count - 20.0) < 3 * np.sqrt(20.0 / 400) + 1.0

    rc = main(["sample", "--seed", "6", "--out", str(tmp_path / "s0"),
               "--checkpoint", str(out / "checkpoint.json"), "--set", "n=0"])
    assert rc == 1


def test_sample_determinism(tmp_path, hpp_dataset):
    out = tmp_path / "run"
    main(["train", "--seed", "5", "--out", str(out), "--data", hpp_dataset,
          "--set", "model.kind=hpp", "--set", "train.epochs=100"])
    for tag in ("x", "y"):
        main(["sample", "--seed", "11", "--out", str(tmp_path / tag),
              "--checkpoint", str(out / "checkpoint.json"), "--set", "n=50"])
    assert (tmp_path / "x" / "samples.jsonl").read_bytes() \
        == (tmp_path / "y" / "samples.jsonl").read_bytes()


def test_eval_matches_training_test_nll(tmp_path, hpp_dataset):
    out = tmp_path / "run"
    main(["train", "--seed", "5", "--out", str(out), "--data", hpp_dataset,
          "--set", "model.kind=hpp", "--set", "train.epochs=300"])
    summary = {r["key"]: float(r["value"]) for r in read_csv(out / "summary.csv")}
    rc = main(["eval", "--seed", "5", "--out", str(tmp_path / "e"),
               "--checkpoint", str(out / "checkpoint.json"), "--data", hpp_dataset])
    assert rc == 0
    rows = read_csv(tmp_path / "e" / "metrics.csv")
    metrics = {r["metric"]: float(r["value"]) for r in rows}
    assert metrics["nll_per_event"] == pytest.approx(summary["test_nll"], abs=1e-12)
    assert {"nll_per_event", "mmd", "wasserstein_lengths"} <= set(metrics)
    assert rows[0]["model"] == "hpp"


def test_eval_model_close_to_own_samples(tmp_path, hpp_dataset):
    """MMD against own samples is smaller than against a different rate."""
    out = tmp_path / "run"
    main(["train", "--seed", "5", "--out", str(out), "--data", hpp_dataset,
          "--set", "model.kind=hpp", "--set", "train.epochs=400"])
    main(["eval", "--seed", "5", "--out", str(tmp_path / "good"),
          "--checkpoint", str(out / "checkpoint.json"), "--data", hpp_dataset])
    other = tmp_path / "hpp6.jsonl"
    seqdata.write_dataset(other, seqdata.simulate_hpp(6.0, 10.0, 200, seed=2))
    main(["eval", "--seed", "5", "--out", str(tmp_path / "badd"),
          "--checkpoint", str(out / "checkpoint.json"), "--data", str(other)])
    good = {r["metric"]: float(r["value"]) for r in read_csv(tmp_path / "good" / "metrics.csv")}
    bad = {r["metric"]: float(r["value"]) for r in read_csv(tmp_path / "badd" / "metrics.csv")}
    assert good["mmd"] < bad["mmd"]


def test_eval_empty_test_set(tmp_path, hpp_dataset):
    out = tmp_path / "run"
    main(["train", "--seed", "5", "--out", str(out), "--data", hpp_dataset,
          "--set", "model.kind=hpp", "--set", "train.epochs=50"])
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["eval", "--seed", "5", "--out", str(tmp_path / "e2"),
               "--checkpoint", str(out / "checkpoint.json"), "--data", str(empty)])
    assert rc == 1


def test_vi_command_k1_and_mcmc_toggle(tmp_path):
    p1 = MmppParams(np.array([1.0]), np.array([[0.5]]), np.array([3.0]))
    _, obs = simulate_mmpp(p1, 5.0, seed=3)
    path = tmp_path / "obs.jsonl"
    seqdata.write_dataset(path, [seqdata.EventSequence(obs, 5.0)])
    rc = main(["vi", "--seed", "2", "--out", str(tmp_path / "v"), "--data", str(path),
               "--set", "mjp.k=1", "--set", "mjp.a=0.5", "--set", "mjp.lam=3",
               "--set", "vi.iters=10", "--set", "vi.mc=64", "--set", "grid=40"])
    assert rc == 0
    rows = read_csv(tmp_path / "v" / "posterior.csv")
    assert {r["method"] for r in rows} == {"vi"}
    assert all(float(r["probability"]) == pytest.approx(1.0) for r in rows)
    assert len(rows) == 40
    rc = main(["vi", "--seed", "2", "--out", str(tmp_path / "v2"), "--data", str(path),
               "--set", "mjp.k=1", "--set", "mjp.a=0.5", "--set", "mjp.lam=3",
               "--set", "vi.iters=5", "--set", "vi.mc=32", "--set", "grid=20",
               "--set", "mcmc=yes", "--set", "mcmc.samples=20", "--set", "mcmc.burn_in=5"])
    assert rc == 0
    rows = read_csv(tmp_path / "v2" / "posterior.csv")
    assert {r["method"] for r in rows} == {"vi", "mcmc"}


def test_vi_learn_mode_writes_theta(tmp_path):
    p1 = MmppParams(np.array([1.0]), np.array([[0.5]]), np.array([3.0]))
    _, obs = simulate_mmpp(p1, 5.0, seed=4)
    path = tmp_path / "obs.jsonl"
    seqdata.write_dataset(path, [seqdata.EventSequence(obs, 5.0)])
    rc = main(["vi", "--seed", "2", "--out", str(tmp_path / "v"), "--data", str(path),
               "--set", "mjp.k=1", "--set", "mjp.a=0.5", "--set", "mjp.lam=2",
               "--set", "vi.mode=learn", "--set", "vi.iters=8", "--set", "vi.mc=32"])
    assert rc == 0
    theta = json.loads((tmp_path / "v" / "theta.json").read_text())
    assert theta["lam"][0] > 0


def test_bench_schema(tmp_path):
    rc = main(["bench", "--seed", "0", "--out", str(tmp_path / "b"),
               "--set", "lengths=100,200", "--set", "runs=2", "--set", "batch=5"])
    assert rc == 0
    rows = read_csv(tmp_path / "b" / "bench.csv")
    combos = {(int(r["length"]), r["operation"], r["method"]) for r in rows}
    assert combos == {(100, "logprob_grad", "tritpp"), (100, "sample", "parallel"),
                      (100, "sample", "sequential"), (200, "logprob_grad", "tritpp"),
                      (200, "sample", "parallel"), (200, "sample", "sequential")}
    assert all(float(r["median_seconds"]) > 0 for r in rows)


def test_config_file_and_precedence(tmp_path, hpp_dataset):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model.kind = mrp   # comment\ntrain.epochs = 30\n")
    out = tmp_path / "run"
    rc = main(["train", "--seed", "3", "--out", str(out), "--data", hpp_dataset,
               "--config", str(cfgfile), "--set", "model.kind=hpp"])
    assert rc == 0
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert ckpt["model_kind"]["kind"] == "hpp"   # --set beats the file
    assert len(read_csv(out / "loss.csv")) == 30


def test_config_parse_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        cli.RunConfig.load(str(bad), [])
    with pytest.raises(ValueError):
        cli.RunConfig.load(None, ["keyonly"])

    def read(command, *settings):
        return cli.RunConfig.load(None, list(settings)).read(command)

    # a value that does not parse fails and names its key; a switch never reads a typo as off
    for command, setting in (("vi", "mcmc=ture"), ("eval", "split=nope"), ("sample", "n=1.5"),
                             ("vi", "vi.lr=fast"), ("vi", "mjp.lam=1,x")):
        with pytest.raises(ValueError, match=f"config key '{setting.split('=')[0]}'"):
            read(command, setting)
    assert read("vi", "mcmc=On")["mcmc"] is True
    assert read("eval", "split=OFF")["split"] is False and read("eval", "split= no ")["split"] is False
    # an absent key takes its default, which a config class owns where the key sets its field
    assert read("eval")["split"] is True and read("vi")["mcmc"] is False
    assert read("train")[TrainConfig] == vars(TrainConfig())


@pytest.fixture(scope="module")
def obs_2state(tmp_path_factory):
    p2 = MmppParams(np.array([0.5, 0.5]), np.full((2, 2), 0.3), np.array([1.0, 4.0]))
    _, obs = simulate_mmpp(p2, 5.0, seed=3)
    path = tmp_path_factory.mktemp("obs") / "obs.jsonl"
    seqdata.write_dataset(path, [seqdata.EventSequence(obs, 5.0)])
    return str(path)


@pytest.mark.parametrize("command, setting, message", [
    ("vi", "vi.iter=5", "vi reads no config key 'vi.iter'"),
    ("vi", "mcmc.sample=10", "vi reads no config key 'mcmc.sample'"),
    ("eval", "train.epochs=3", "eval reads no config key 'train.epochs'"),
    ("vi", "grid=0", "config key 'grid'"),
    ("vi", "mcmc=ture", "config key 'mcmc'"),
    ("vi", "mcmc.samples=0", "config key 'mcmc.samples'"),
    ("vi", "mcmc.burn_in=-1", "config key 'mcmc.burn_in'"),
    ("vi", "mjp.pi=0.5", "config key 'mjp.pi'"),
    ("vi", "mjp.a=0.1,0.2,0.3", "config key 'mjp.a'"),
    ("vi", "mjp.lam=1,2,3", "config key 'mjp.lam'"),
    ("vi", "vi.iters=0", "iters must be >= 1"),
    ("vi", "vi.lr=-1", "lr must be > 0"),
    ("vi", "vi.mc=0", "mc_samples must be >= 1"),
    ("vi", "vi.gamma=0", "gamma must be > 0"),
    ("bench", "runs=0", "config key 'runs'"),
    ("bench", "batch=0", "config key 'batch'"),
    ("bench", "lengths=100.7", "config key 'lengths'"),
    ("bench", "lengths=100,-5", "config key 'lengths'"),
])
def test_bad_keys_fail_before_any_work(tmp_path, capsys, monkeypatch, obs_2state,
                                       command, setting, message):
    def reached(*args, **kwargs):
        pytest.fail("the command ran past its key check")

    monkeypatch.setattr(mjp, "fit_vi", reached)
    monkeypatch.setattr(cli, "run_bench", reached)
    base = {"vi": ["--data", obs_2state, "--set", "mjp.k=2"], "eval": [],
            "bench": ["--set", "lengths=100", "--set", "batch=2", "--set", "runs=1"]}[command]
    out = tmp_path / "never"
    rc = main([command, "--seed", "1", "--out", str(out), *base, "--set", setting])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
