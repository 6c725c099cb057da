"""Accuracy evaluation, mixing-weight similarity, and result-file emission."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from pfedmb import nn
from pfedmb.data import LabeledDataset
from pfedmb.errors import ConfigurationError, UsageError
from pfedmb.metrics import (
    ExperimentResult,
    alpha_similarity,
    config_fingerprint,
    emit_results,
    evaluate_client,
    mean_accuracy,
)


def constant_net(classes, winner):
    bias = np.zeros((1, classes))
    bias[0, winner] = 10.0
    return nn.Network([nn.MultiBranchDense(np.zeros((1, classes, 2)), bias)])


def test_constant_predictor_scores_one_over_c():
    shard = LabeledDataset(
        np.zeros((12, 2)), np.repeat(np.arange(4), 3), num_classes=4
    )
    acc = evaluate_client(constant_net(4, 0), nn.uniform_alpha(1, 1), shard)
    assert acc == pytest.approx(0.25, abs=0)


def test_perfect_model_scores_one():
    x = np.array([[-1.0, 0.0], [1.0, 0.0]] * 5)
    y = np.array([0, 1] * 5)
    w = np.array([[[-5.0, 0.0], [5.0, 0.0]]])  # sign of x0 decides the class
    net = nn.Network([nn.MultiBranchDense(w, np.zeros((1, 2)))])
    assert evaluate_client(net, nn.uniform_alpha(1, 1), LabeledDataset(x, y, 2)) == 1.0


def test_accuracy_matches_per_sample_hand_count():
    rng = np.random.default_rng(3)
    net = nn.init_network([4, 6, 3], 2, seed=1)
    alpha = nn.AlphaParams(rng.normal(size=(2, 2)), 2)
    shard = LabeledDataset(
        rng.normal(size=(30, 4)), rng.integers(0, 3, size=30), 3
    )
    got = evaluate_client(net, alpha, shard)

    correct = 0
    for i in range(30):
        logits = nn.forward(net, alpha, shard.features[i : i + 1])
        correct += int(np.argmax(logits[0]) == shard.labels[i])
    assert got == pytest.approx(correct / 30, abs=1e-12)


def test_evaluate_rejects_empty_shard():
    """evaluate_client takes a LabeledDataset, and an empty one cannot be built."""
    with pytest.raises(ConfigurationError, match="nonempty"):
        LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 3)


def test_evaluate_rejects_a_shard_with_another_class_count():
    shard = LabeledDataset(np.zeros((2, 2)), [7, 7], num_classes=8)
    with pytest.raises(ConfigurationError, match="8 classes, network outputs 3"):
        evaluate_client(constant_net(3, 0), nn.uniform_alpha(1, 1), shard)


def test_mean_accuracy():
    assert mean_accuracy([1.0, 0.0]) == 0.5
    assert mean_accuracy([0.7, 0.7, 0.7]) == pytest.approx(0.7, abs=1e-15)
    assert mean_accuracy([0.8724, 0.9143, 0.8991]) == pytest.approx(0.8953, abs=1e-4)
    with pytest.raises(UsageError):
        mean_accuracy([])


def test_alpha_similarity_identical_and_vertices():
    same = [np.array([[0.5, 0.5]])] * 3
    dist, _ = alpha_similarity(same)
    np.testing.assert_array_equal(dist, np.zeros((3, 3)))

    opposite = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
    dist, _ = alpha_similarity(opposite)
    assert dist[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert dist[1, 0] == dist[0, 1]
    assert dist[0, 0] == 0.0

    # concatenation over layers: sqrt(2) per opposing layer
    two_layer = [np.array([[1.0, 0.0], [1.0, 0.0]]),
                 np.array([[0.0, 1.0], [0.0, 1.0]])]
    dist, _ = alpha_similarity(two_layer)
    assert dist[0, 1] == pytest.approx(2.0, abs=1e-15)


def test_alpha_similarity_group_summary():
    alphas = [
        np.array([[0.9, 0.1]]), np.array([[0.88, 0.12]]),
        np.array([[0.1, 0.9]]), np.array([[0.12, 0.88]]),
    ]
    dist, summary = alpha_similarity(alphas, group_labels=[0, 0, 1, 1])
    assert summary["within_mean"] < summary["across_mean"]
    np.testing.assert_allclose(dist, dist.T)


def test_alpha_similarity_validation():
    with pytest.raises(UsageError):
        alpha_similarity([np.ones((1, 2))])
    with pytest.raises(UsageError):
        alpha_similarity([np.ones((1, 2)), np.ones((1, 3))])
    with pytest.raises(UsageError):
        alpha_similarity([np.ones((1, 2)), np.ones((1, 2))], group_labels=[0])


def sample_result(rounds=2):
    traj = [np.full((2, 1, 2), 0.5) for _ in range(rounds)]
    return ExperimentResult(
        method="pfedmb",
        per_round_mean_test_accuracy=[0.5 + 0.1 * t for t in range(rounds)],
        per_round_mean_train_loss=[1.0 / (t + 1) for t in range(rounds)],
        final_client_accuracies=[0.625, 0.875],
        final_alpha=[np.array([[0.25, 0.75]]), np.array([[0.5, 0.5]])],
        alpha_trajectory=traj,
        config_fingerprint="abc123",
        config={"seed": 0},
    )


def test_emit_zero_round_run_writes_headers_only(tmp_path):
    result = sample_result(rounds=0)
    emit_results(result, tmp_path)
    assert (tmp_path / "rounds.csv").read_text() == (
        "round,method,mean_test_acc,mean_train_loss\n"
    )
    assert (tmp_path / "alpha_trajectory.csv").read_text() == (
        "round,client,layer,branch,alpha\n"
    )
    doc = json.loads((tmp_path / "final.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["method"] == "pfedmb"


def test_reemission_is_byte_identical(tmp_path):
    result = sample_result()
    a, b = tmp_path / "a", tmp_path / "b"
    emit_results(result, a)
    emit_results(result, b)
    for name in ("rounds.csv", "final.json", "alpha_trajectory.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_rounds_csv_parses_back_to_the_trajectory(tmp_path):
    result = sample_result(rounds=5)
    emit_results(result, tmp_path)
    lines = (tmp_path / "rounds.csv").read_text().splitlines()
    assert lines[0] == "round,method,mean_test_acc,mean_train_loss"
    for t, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == t
        assert fields[1] == "pfedmb"
        assert abs(float(fields[2]) - result.per_round_mean_test_accuracy[t]) < 1e-9
        assert abs(float(fields[3]) - result.per_round_mean_train_loss[t]) < 1e-9


def test_alpha_trajectory_rows(tmp_path):
    result = sample_result(rounds=1)
    emit_results(result, tmp_path)
    lines = (tmp_path / "alpha_trajectory.csv").read_text().splitlines()
    # 1 round x 2 clients x 1 layer x 2 branches
    assert len(lines) == 1 + 4
    assert lines[1] == "0,0,0,0,0.5"


def test_final_json_reports_means_consistently(tmp_path):
    result = sample_result()
    emit_results(result, tmp_path)
    doc = json.loads((tmp_path / "final.json").read_text())
    assert doc["final_mean_test_accuracy"] == pytest.approx(0.75, abs=1e-12)
    assert doc["final_per_client_test_accuracy"] == [0.625, 0.875]
    assert doc["config_fingerprint"] == "abc123"
    assert doc["mean_convention"] == "unweighted over clients"


def test_failed_emission_keeps_the_earlier_final_json(tmp_path, monkeypatch):
    emit_results(sample_result(rounds=1), tmp_path)
    earlier = (tmp_path / "final.json").read_bytes()
    replace = os.replace

    def fail_on_final(src, dst):
        if os.path.basename(dst) == "final.json":
            raise OSError("disk full")
        replace(src, dst)

    with monkeypatch.context() as patch, pytest.raises(OSError, match="disk full"):
        patch.setattr(os, "replace", fail_on_final)
        emit_results(sample_result(rounds=3), tmp_path)
    assert (tmp_path / "final.json").read_bytes() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "alpha_trajectory.csv", "final.json", "rounds.csv"
    ]


RESULT_FILES = ("rounds.csv", "final.json", "alpha_trajectory.csv")
KILLED = 9


def emit_then_die(result, out, kill_at):
    """emit_results, with the process killed right after its kill_at-th os.replace."""
    replace, calls = os.replace, []

    def replace_then_die(src, dst):
        replace(src, dst)
        calls.append(dst)
        if len(calls) == kill_at:
            os._exit(KILLED)

    os.replace = replace_then_die
    emit_results(result, out)


def emit_killed_at(result, out, kill_at):
    """Run emit_then_die in a child process; returns whether the kill happened."""
    proc = multiprocessing.get_context("spawn").Process(
        target=emit_then_die, args=(result, out, kill_at))
    proc.start()
    proc.join(timeout=60)
    assert proc.exitcode in (0, KILLED)
    return proc.exitcode == KILLED


def files_of(directory):
    """The bytes of each result file, None for one that is missing."""
    paths = {name: directory / name for name in RESULT_FILES}
    return {name: p.read_bytes() if p.exists() else None for name, p in paths.items()}


def test_a_kill_at_any_rename_leaves_no_final_json_beside_another_result(tmp_path):
    earlier, later = sample_result(rounds=1), sample_result(rounds=3)
    emit_results(earlier, tmp_path / "earlier")
    emit_results(later, tmp_path / "later")
    results = [files_of(tmp_path / "earlier"), files_of(tmp_path / "later")]
    out = tmp_path / "out"
    kills = 0
    while True:
        emit_results(earlier, out)
        if not emit_killed_at(later, out, kills + 1):
            break
        kills += 1
        if (out / "final.json").exists():
            assert files_of(out) in results, f"killed after rename {kills}"
    assert kills >= 6   # three files kept aside, three written
    assert files_of(out) == results[1]


def test_the_next_emission_deletes_the_files_a_killed_one_kept(tmp_path):
    emit_results(sample_result(rounds=1), tmp_path)
    assert emit_killed_at(sample_result(rounds=2), tmp_path, kill_at=2)
    assert list(tmp_path.glob(".*.kept"))
    emit_results(sample_result(rounds=3), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(RESULT_FILES)


def test_emitted_files_get_the_permissions_of_a_plain_write(tmp_path):
    (tmp_path / "plain.txt").write_text("x")
    emit_results(sample_result(rounds=1), tmp_path)
    modes = {p.name: p.stat().st_mode for p in tmp_path.iterdir()}
    assert set(modes.values()) == {modes["plain.txt"]}


def test_fingerprint_depends_on_content_not_key_order():
    a = config_fingerprint({"x": 1, "y": [1, 2]})
    b = config_fingerprint({"y": [1, 2], "x": 1})
    c = config_fingerprint({"x": 2, "y": [1, 2]})
    assert a == b and a != c
