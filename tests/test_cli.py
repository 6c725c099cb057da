"""End-to-end command-line behavior, exit codes, and output determinism."""

import argparse
import contextlib
import errno
import io
import json
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfedmb import federation, metrics, nn
from pfedmb.cli import _overrides, build_parser, main
from pfedmb.config import parse_config
from pfedmb.errors import NumericError

from conftest import blas_env, child_minor_faults, corrupt_kernel, subprocess_env


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
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
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
        # finite, but the class means are drawn from a range twice as wide
        ("data.synthetic.class_mean_scale",
         {"data": {"synthetic": dict(SYNTHETIC, class_mean_scale=1e308)}}),
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


def test_gradcheck_default_passes(smoke_config, capsys):
    path, _ = smoke_config
    assert main(["gradcheck", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_gradcheck_fault_injection_fails(smoke_config, monkeypatch, capsys):
    """gradcheck checks the kernel training runs: a wrong one in either group fails."""
    path, _ = smoke_config
    for group, name in (("w", "weight"), ("alpha", "mixing")):
        with monkeypatch.context() as patch:
            corrupt_kernel(patch, group)
            assert main(["gradcheck", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        errors = {line.split()[0]: float(line.split()[-1])
                  for line in out.splitlines() if "max rel err" in line}
        assert errors.pop(name) >= 0.1
        assert errors.popitem()[1] < 1e-4  # the other group is untouched
        assert out.endswith("result:            FAIL\n")


def test_gradcheck_says_where_its_losses_are_only_float64(smoke_config, monkeypatch, capsys):
    """The losses it differences are longdouble; where that is float64 a precision line says
    so, and the lines it printed before stay as they were."""
    path, _ = smoke_config
    narrow = np.finfo(np.longdouble).eps == np.finfo(np.float64).eps
    assert main(["gradcheck", "--config", str(path)]) == 0
    wide_out = capsys.readouterr().out
    assert ("precision:" in wide_out) == narrow
    finfo = np.finfo
    monkeypatch.setattr(np, "finfo", lambda dtype: finfo(np.float64))
    main(["gradcheck", "--config", str(path)])
    out = capsys.readouterr().out
    line = "precision:         float64 losses; a gradient near 0 may read as FAIL\n"
    assert line in out and out.replace(line, "") == wide_out.replace(line, "")


def test_gradcheck_single_branch_skips_mixing_group(smoke_config, capsys):
    path, _ = smoke_config
    assert main(["gradcheck", "--config", str(path), "--branches", "1"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def test_gradcheck_rejects_a_negative_seed(smoke_config, capsys):
    """The --seed and --branches overrides are held to the config rules."""
    path, _ = smoke_config
    for flags, err in (
        (["--seed", "-1"], "config error: seed: must be >= 0, got -1\n"),
        (["--branches", "0"], "config error: branches: must be >= 1, got 0\n"),
    ):
        assert main(["gradcheck", "--config", str(path), *flags]) == 2
        assert capsys.readouterr().err == err


def test_gradcheck_without_a_config_names_the_missing_fields():
    """The network comes only from a config, so none means the fields are missing."""
    done = subprocess.run(
        [sys.executable, "-m", "pfedmb.cli", "gradcheck"],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert "config error: branches: required field is missing" in lines
    assert "config error: seed: required field is missing" in lines
    assert all(line.startswith("config error: ") for line in lines)
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("flag, config_value, shared", [
    ("--shared-alpha", None, True),
    ("--no-shared-alpha", None, False),
    (None, True, True),
    (None, False, False),
])
def test_gradcheck_checks_the_alpha_layout_asked_for(
    smoke_config, monkeypatch, capsys, flag, config_value, shared
):
    seen = []

    def spy(net, alpha, *args, **kwargs):
        seen.append((alpha.shared, alpha.logits.shape[0]))
        return check(net, alpha, *args, **kwargs)

    check = nn.gradient_check
    monkeypatch.setattr(nn, "gradient_check", spy)
    path, raw = smoke_config
    if config_value is not None:
        path.write_text(json.dumps(dict(raw, shared_alpha=config_value)))
    argv = ["gradcheck", "--config", str(path)] + ([] if flag is None else [flag])
    assert main(argv) == 0
    assert "PASS" in capsys.readouterr().out
    # the smoke config's network has two layers
    assert seen == [(shared, 1 if shared else 2)]


def test_gradcheck_uses_config_network_shape(smoke_config, monkeypatch, capsys):
    seen = []

    def spy(net, *args, **kwargs):
        seen.append(net)
        return check(net, *args, **kwargs)

    check = nn.gradient_check
    monkeypatch.setattr(nn, "gradient_check", spy)
    path, raw = smoke_config
    path.write_text(json.dumps(dict(raw, hidden_dims=[6, 5], branches=3)))
    assert main(["gradcheck", "--config", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out
    config = parse_config(path)
    synthetic = raw["data"]["synthetic"]
    (net,) = seen
    assert [net.in_dim] + [layer.out_dim for layer in net.layers] == config.layer_dims(
        synthetic["input_dim"], synthetic["num_classes"])
    assert net.num_branches == config.branches == 3


def test_gradcheck_takes_a_config_without_an_output_directory(
    smoke_config, tmp_path, monkeypatch, capsys
):
    """gradcheck writes nothing; the commands that write still ask where to."""
    path, raw = smoke_config
    assert main(["gradcheck", "--config", str(path)]) == 0
    expected = capsys.readouterr().out
    noout = tmp_path / "noout.json"
    noout.write_text(json.dumps({k: v for k, v in raw.items() if k != "output_dir"}))
    monkeypatch.delenv("PFEDMB_OUT", raising=False)
    assert main(["gradcheck", "--config", str(noout)]) == 0
    assert capsys.readouterr().out == expected
    for command in ("run", "compare", "partition-stats"):
        assert main([command, "--config", str(noout)]) == 2
        assert capsys.readouterr().err == (
            "config error: output_dir: set it in the config, pass --out, "
            "or export PFEDMB_OUT\n"
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "noout.json"]


def subcommand_parsers() -> dict:
    """The parser of each subcommand, by name."""
    (commands,) = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def test_readme_command_line_names_exactly_the_flags_the_parser_takes():
    """README's "Command line" section names every subcommand flag, and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    taken = {flag for parser in subcommand_parsers().values()
             for action in parser._actions for flag in action.option_strings}
    assert documented == taken - {"-h", "--help", "--no-shared-alpha"}


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--rounds", "3", "--lr-w", "9"],
    ["partition-stats", "--config", "c", "--branches", "7", "--lr-w", "9"],
    # --method is no prefix of --methods either: compare would run pfedmb
    ["compare", "--method", "local", "--methods", "pfedmb"],
    # gradcheck checks the kernel training runs; it takes no fault-injection flag
    ["gradcheck", "--config", "c", "--inject-fault"],
    # clients train one after another: no thread count moves a result
    ["run", "--config", "c", "--threads", "2"],
    ["compare", "--config", "c", "--threads", "2"],
])
def test_subcommands_refuse_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pfedmb") and "error: unrecognized arguments: " in err


# a value for each override flag of run and compare, each unlike smoke_config's
# own; None marks the --shared-alpha switch, one option with its --no- form
FLAG_VALUES = {
    "--method": "pfedmb_plain_agg",
    "--branches": "3",
    "--rounds": "3",
    "--clients": "3",
    "--participation": "0.5",
    "--lr-alpha": "0.25",
    "--lr-w": "0.2",
    "--epochs": "2",
    "--batch-size": "8",
    "--seed": "2",
    "--shared-alpha": None,
}


def test_every_override_flag_of_run_and_compare_changes_the_config(smoke_config):
    """A flag that moves no result is a no-op, and run and compare take none.

    Every flag they take but --config, --out, --methods and --help must be in
    FLAG_VALUES, and passing its value must change the config's semantic_dict.
    """
    path, _ = smoke_config

    def semantic(command, *flags):
        args = build_parser().parse_args([command, "--config", str(path), *flags])
        return parse_config(path, _overrides(args)).semantic_dict()

    parsers = subcommand_parsers()
    taken = {command: {action.option_strings[0] for action in parsers[command]._actions
                       if action.option_strings}
             - {"-h", "--config", "--out", "--methods"}
             for command in ("run", "compare")}
    unlisted = set().union(*taken.values()) ^ FLAG_VALUES.keys()
    assert not unlisted, f"taken but not in FLAG_VALUES, or the reverse: {sorted(unlisted)}"
    for command, flags in taken.items():
        base = semantic(command)
        for flag in sorted(flags):
            value = FLAG_VALUES[flag]
            changed = semantic(command, flag, *([] if value is None else [value]))
            assert changed != base, f"{command} {flag} changes no result"


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
    assert main(argv + ["--out", str(b)]) == 0
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


def test_run_names_a_config_file_that_is_not_utf8(smoke_config, tmp_path, capsys):
    _, raw = smoke_config
    path = tmp_path / "latin1.json"
    # a Latin-1 editor saves "résultats" with the single byte 0xe9
    text = json.dumps(dict(raw, output_dir=str(tmp_path / "résultats")), ensure_ascii=False)
    path.write_bytes(text.encode("latin-1"))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 1: not UTF-8 text"), err
    assert not (tmp_path / "résultats").exists()


@pytest.mark.parametrize("text", [None, "[" * 200_000, '{"clients": ' + "9" * 5000 + "}"],
                         ids=["missing", "nested_200000_deep", "int_of_5000_digits"])
def test_an_unreadable_config_is_one_located_error(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), lines
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def byte_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_bytes")
    return root / "cfg.json", root / "out"


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@example(data=b"[" * 200_000)
@example(data=b'{"clients": ' + b"9" * 5000 + b"}")
@example(data=b"[1, 2]")
@example(data='{"output_dir": "é"}'.encode("latin-1"))
@example(data=b"")
@example(data=b'{"a\\nb": 1}')
@example(data=b'{"seed": 0, "data": {"synthetic": {"a\\nb": 1}}}')
@example(data=b'{"a\\u2028b": 1}')  # str.splitlines splits at U+2028 too
@given(data=st.binary(max_size=200))
def test_any_config_bytes_exit_2_with_only_error_lines(byte_paths, data):
    path, out = byte_paths
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    lines = err.getvalue().splitlines()
    assert lines and all(line.startswith(("config error: ", "error: ")) for line in lines), lines
    assert not out.exists()


def test_run_names_a_csv_file_that_is_not_utf8(smoke_config, tmp_path, capsys):
    _, raw = smoke_config
    csv = tmp_path / "latin1.csv"
    csv.write_bytes("label,f1\n0,1.0\n1,2.0 # é\n".encode("latin-1"))
    path = tmp_path / "cfg_csv.json"
    path.write_text(json.dumps(dict(raw, data={"csv": str(csv)})))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv}: line 3: not UTF-8 text"), err
    assert not (tmp_path / "out").exists()


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
    """`pfedmb run` in a fresh interpreter with `threads` BLAS threads.

    stderr is what a user sees: nothing between the program and the terminal
    records or filters warnings.
    """
    return subprocess.run(
        [sys.executable, "-m", "pfedmb.cli", "run", "--config", str(config_path)],
        env=blas_env(threads), capture_output=True, text=True, timeout=120,
    )


# the overflow is found and located the same however BLAS splits the matmuls
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


def test_an_overflowing_mixing_step_prints_only_the_located_error(smoke_config, tmp_path):
    """Class means up to 1e100 at lr_alpha 1e300: the first mixing step overflows
    lr * gradient, and the next forward pass reports it; numpy warns of neither."""
    _, raw = smoke_config
    path = tmp_path / "diverge.json"
    data = {"synthetic": dict(raw["data"]["synthetic"], class_mean_scale=1e100)}
    path.write_text(json.dumps(dict(raw, lr_alpha=1e300, data=data)))
    done = run_in_subprocess(path, 1)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "error: client 0, round 0, mixing phase, epoch 1: non-finite activations in layer 0"]


def test_an_overflowing_weight_step_prints_only_the_located_error(smoke_config, tmp_path):
    """Class means up to 1e100 at lr_w 1e300, one step per phase: the weight step
    overflows lr * gradient, and the train loss reports it; numpy warns of neither."""
    _, raw = smoke_config
    path = tmp_path / "diverge.json"
    data = {"synthetic": dict(raw["data"]["synthetic"], class_mean_scale=1e100)}
    path.write_text(json.dumps(dict(raw, method="fedavg", branches=1, lr_w=1e300,
                                    local_epochs=1, batch_size=1000, data=data)))
    done = run_in_subprocess(path, 1)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "error: client 0, round 0, train loss: non-finite activations in layer 0"]


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


def test_an_empty_output_dir_env_counts_as_unset(smoke_config, tmp_path, monkeypatch, capsys):
    _, raw = smoke_config
    path = tmp_path / "noout.json"
    path.write_text(json.dumps({k: v for k, v in raw.items() if k != "output_dir"}))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("PFEDMB_OUT", "")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: output_dir: set it in the config, pass --out, or export PFEDMB_OUT\n"
    )
    assert list(cwd.iterdir()) == []


# the paired_paper benchmark: ten equal 40-row shards of paired classes, B=5
PAIRED_PAPER = {
    "method": "pfedmb", "clients": 10, "participation": 1.0, "rounds": 50,
    "local_epochs": 5, "batch_size": 64, "branches": 5, "lr_alpha": 1.0, "lr_w": 0.05,
    "shared_alpha": True, "hidden_dims": [32], "seed": 3,
    "data": {"synthetic": {"num_classes": 10, "input_dim": 20, "noise_std": 0.7,
                           "samples_per_class": 60}},
    "partition": {"scheme": "paired_clusters", "num_pairs": 5, "classes_per_pair": 2},
}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_a_run_keeps_its_freed_heap_instead_of_faulting_it_in_every_step(tmp_path):
    """Forty-nine more rounds of paired_paper, 490 more stacked kernel calls, take fewer
    than 2,000 more minor page faults: freed memory stays in the heap for the next step.
    Where glibc trims the heap top as steps free it, they take ten thousand or more."""
    path = tmp_path / "paired.json"
    path.write_text(json.dumps(PAIRED_PAPER))
    faults = {rounds: child_minor_faults(["-m", "pfedmb.cli", "run", "--config", str(path),
                                          "--rounds", str(rounds),
                                          "--out", str(tmp_path / f"out{rounds}")])
              for rounds in (1, 50)}
    assert faults[50] - faults[1] < 2000, faults
