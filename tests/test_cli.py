"""End-to-end command-line behavior, exit codes, and output determinism."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pfedmb import federation, metrics
from pfedmb.cli import main
from pfedmb.errors import NumericError


@pytest.fixture
def smoke_config(tmp_path):
    raw = {
        "method": "pfedmb",
        "clients": 2,
        "participation": 1.0,
        "rounds": 2,
        "branches": 2,
        "lr_alpha": 0.5,
        "lr_w": 0.1,
        "shared_alpha": False,
        "hidden_dims": [8],
        "data": {"synthetic": {"num_classes": 3, "input_dim": 4,
                               "noise_std": 0.5, "samples_per_class": 30}},
        "partition": {"scheme": "dirichlet", "beta": 1.0},
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path, raw


def test_run_smoke_and_outputs(smoke_config, tmp_path, capsys):
    import time

    path, raw = smoke_config
    started = time.perf_counter()
    assert main(["run", "--config", str(path)]) == 0
    assert time.perf_counter() - started < 10.0
    out = capsys.readouterr().out
    assert "final_mean_test_acc" in out
    outdir = tmp_path / "out"
    for name in ("rounds.csv", "final.json", "alpha_trajectory.csv"):
        assert (outdir / name).exists()
    doc = json.loads((outdir / "final.json").read_text())
    assert doc["method"] == "pfedmb"
    assert doc["config"]["branches"] == 2


def test_run_twice_is_byte_identical(smoke_config, tmp_path):
    path, _ = smoke_config
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "b"),
                 "--threads", "3"]) == 0
    for name in ("rounds.csv", "final.json", "alpha_trajectory.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_flag_override_is_echoed_in_final_json(smoke_config, tmp_path):
    path, _ = smoke_config
    assert main(["run", "--config", str(path), "--branches", "3",
                 "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "final.json").read_text())
    assert doc["config"]["branches"] == 3


def test_fedavg_with_extra_branches_is_rejected(smoke_config, capsys):
    path, _ = smoke_config
    rc = main(["run", "--config", str(path), "--method", "fedavg"])
    assert rc == 2
    assert "fedavg" in capsys.readouterr().err


def test_invalid_config_lists_violations(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["run", "--config", str(empty)]) == 2
    err = capsys.readouterr().err
    assert "method" in err and "data" in err


SYNTHETIC = {"num_classes": 3, "input_dim": 4, "noise_std": 0.5, "samples_per_class": 30}


@pytest.mark.parametrize(
    "key, patch",
    [
        ("partition.beta", {"partition": {"scheme": "dirichlet", "beta": "x"}}),
        ("partition.k", {"partition": {"scheme": "random_k_classes", "k": 2.5}}),
        ("partition.u_min",
         {"partition": {"scheme": "size_heterogeneous", "k": 2, "u_min": "a"}}),
        ("partition.seed", {"partition": {"scheme": "dirichlet", "beta": 1.0, "seed": True}}),
        ("data.synthetic.class_mean_scale",
         {"data": {"synthetic": dict(SYNTHETIC, class_mean_scale=float("nan"))}}),
        ("data.synthetic.num_classes",
         {"data": {"synthetic": dict(SYNTHETIC, num_classes="4")}}),
        ("lr_w", {"lr_w": float("nan")}),
    ],
)
def test_mistyped_config_value_is_a_located_config_error(
    smoke_config, tmp_path, capsys, key, patch
):
    _, raw = smoke_config
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(raw, **patch)))  # NaN is written as JSON NaN
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_gradcheck_default_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_gradcheck_fault_injection_fails(capsys):
    assert main(["gradcheck", "--inject-fault"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_single_branch_skips_mixing_group(capsys):
    assert main(["gradcheck", "--branches", "1"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def test_gradcheck_rejects_a_negative_seed(capsys):
    """Without --config the seed is held to the config rule, not left to numpy."""
    assert main(["gradcheck", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: seed: must be >= 0, got -1\n"


def test_gradcheck_uses_config_network_shape(smoke_config, capsys):
    path, _ = smoke_config
    assert main(["gradcheck", "--config", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_compare_single_method_matches_run(smoke_config, tmp_path, capsys):
    path, _ = smoke_config
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(path), "--methods", "pfedmb",
                 "--out", str(out)]) == 0
    table = (out / "compare.csv").read_text().splitlines()
    assert table[0] == "pfedmb"
    assert (out / "pfedmb" / "final.json").exists()

    assert main(["run", "--config", str(path), "--out", str(tmp_path / "solo")]) == 0
    solo = json.loads((tmp_path / "solo" / "final.json").read_text())
    assert float(table[1]) == pytest.approx(solo["final_mean_test_accuracy"], abs=1e-9)


def test_compare_all_methods_and_determinism(smoke_config, tmp_path):
    path, _ = smoke_config
    a, b = tmp_path / "ca", tmp_path / "cb"
    argv = ["compare", "--config", str(path),
            "--methods", "local,fedavg,pfedmb_plain_agg,pfedmb"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b), "--threads", "2"]) == 0
    assert (a / "compare.csv").read_bytes() == (b / "compare.csv").read_bytes()
    header, row = (a / "compare.csv").read_text().splitlines()
    assert header.split(",") == ["local", "fedavg", "pfedmb_plain_agg", "pfedmb"]
    assert len(row.split(",")) == 4


def test_compare_rejects_a_repeated_method(smoke_config, tmp_path, capsys):
    path, _ = smoke_config
    out = tmp_path / "dup"
    assert main(["compare", "--config", str(path), "--methods", "pfedmb,fedavg,pfedmb",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: methods: " in err and "pfedmb" in err
    assert not out.exists()


def test_failed_rerun_leaves_the_earlier_result_whole(smoke_config, tmp_path, monkeypatch,
                                                      capsys):
    path, _ = smoke_config
    out = tmp_path / "out"
    assert main(["run", "--config", str(path)]) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    write, calls = metrics.write_atomic, []

    def disk_full_on_the_second_file(target, text):
        calls.append(target)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        write(target, text)

    monkeypatch.setattr(metrics, "write_atomic", disk_full_on_the_second_file)
    assert main(["run", "--config", str(path), "--rounds", "3"]) == 2
    assert capsys.readouterr().err.startswith("io error: ")
    # the new rounds.csv is taken back: final.json still sits beside its own result
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


def test_failed_compare_leaves_no_earlier_table(smoke_config, tmp_path, monkeypatch, capsys):
    path, _ = smoke_config
    out = tmp_path / "cmp"
    argv = ["compare", "--config", str(path), "--methods", "pfedmb,fedavg", "--out", str(out)]
    assert main(argv) == 0
    run = federation.run_experiment

    def fedavg_diverges(config):
        if config.method == "fedavg":
            raise NumericError("client 0, round 0: non-finite loss")
        return run(config)

    monkeypatch.setattr(federation, "run_experiment", fedavg_diverges)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: client 0")
    assert (out / "pfedmb" / "final.json").exists()
    assert not (out / "compare.csv").exists()


def test_a_config_too_large_to_allocate_exits_2_with_one_error(smoke_config, tmp_path, capsys):
    _, raw = smoke_config
    path = tmp_path / "huge.json"
    # weights of shape (2, 10**16, 4) need 568 PiB, more than any address space
    # holds, so numpy refuses them before allocating anything
    path.write_text(json.dumps(dict(raw, hidden_dims=[10**16])))
    assert main(["run", "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: "), lines
    assert "shape (2, 10000000000000000, 4)" in lines[0]
    assert not (tmp_path / "out" / "final.json").exists()


def test_partition_stats_histograms(smoke_config, tmp_path):
    path, raw = smoke_config
    out = tmp_path / "stats"
    assert main(["partition-stats", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "partition_stats.csv").read_text().splitlines()
    assert lines[0] == "client,split,class,count"
    # Dirichlet assigns every sample: totals match the dataset size
    total = sum(int(line.split(",")[3]) for line in lines[1:])
    assert total == 3 * 30


def run_in_subprocess(config_path, threads):
    """`pfedmb run` in a fresh interpreter; stderr is what a user sees.

    Nothing between the program and the terminal records or filters warnings.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "pfedmb.cli", "run", "--config", str(config_path),
         "--threads", str(threads)],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("lr_w", [1e30, 1e300])
def test_overflow_prints_only_the_located_error(smoke_config, tmp_path, lr_w, threads):
    """A diverging run exits 2 with one located error line, no numpy warning."""
    _, raw = smoke_config
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(dict(raw, lr_w=lr_w)))
    done = run_in_subprocess(path, threads)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: client "), done.stderr
    assert "non-finite activations" in lines[0]
    assert not (tmp_path / "out" / "final.json").exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_train_loss_overflow_names_client_and_round(smoke_config, tmp_path, threads):
    """With one step per phase the weight phase ends on the diverging step.

    The branches it returns are first evaluated by the round's train loss on
    the full shard, so that is where the overflow surfaces; the error must
    still name the client and the round.
    """
    _, raw = smoke_config
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(dict(
        raw, clients=4, lr_w=1e300, local_epochs=1, batch_size=1000,
        data={"synthetic": {"num_classes": 4, "input_dim": 4,
                            "noise_std": 0.5, "samples_per_class": 30}},
        partition={"scheme": "paired_clusters", "num_pairs": 2, "classes_per_pair": 2},
    )))
    done = run_in_subprocess(path, threads)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0] == "error: client 0, round 0, train loss: non-finite activations in layer 1"
    assert not (tmp_path / "out" / "final.json").exists()


def test_output_dir_env_default(smoke_config, tmp_path, monkeypatch):
    path, raw = smoke_config
    cfg = {k: v for k, v in raw.items() if k != "output_dir"}
    p = tmp_path / "noout.json"
    p.write_text(json.dumps(cfg))
    monkeypatch.setenv("PFEDMB_OUT", str(tmp_path / "fromenv"))
    assert main(["run", "--config", str(p)]) == 0
    assert (tmp_path / "fromenv" / "final.json").exists()
