"""Tests of the benchmark itself: tracing changes no result and leaves nothing behind.

Run from the repository root:  python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import pfedmb  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "why": "test only",
    "stresses": "nothing",
    "config": {
        "method": "pfedmb", "clients": 4, "participation": 1.0, "rounds": 2,
        "local_epochs": 2, "batch_size": 16, "branches": 2, "lr_alpha": 1.0,
        "lr_w": 0.05, "shared_alpha": False, "hidden_dims": [8], "threads": 1,
        "data": {"synthetic": {"num_classes": 4, "input_dim": 5, "noise_std": 0.7,
                               "samples_per_class": 30}},
        "partition": {"scheme": "paired_clusters", "num_pairs": 2, "classes_per_pair": 2},
    },
}


def bindings():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "pfedmb" or name.startswith("pfedmb.")
            for attr, value in vars(module).items() if callable(value)}


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    return run.Bench("tiny", 3, tmp_path)


def test_traced_run_keeps_result_hash_and_restores_every_function(bench):
    before = bindings()
    plain = bench.run(run.ROUND_PROBE)
    traced = bench.run(tracer.TRACED)
    assert bench.failed == 0, bench.problems      # Bench.run compares each sha256 to the first
    assert plain is not None and traced is not None and bench.sha is not None
    names = {span[0] for span in traced.spans}
    assert names == set(tracer.TRACED)
    assert bindings() == before
    assert tracer.unrestored() == []


def test_tracer_restores_when_a_traced_call_raises():
    before = bindings()
    net = pfedmb.init_network([3, 2], 2, seed=0)
    alpha = pfedmb.uniform_alpha(1, 2)
    with pytest.raises(pfedmb.ConfigurationError, match="4 features"):
        with tracer.Tracer() as trace:
            assert pfedmb.nn.forward is not before[("pfedmb.nn", "forward")]
            pfedmb.nn.forward(net, alpha, [[0.0] * 4])
    assert [span[0] for span in trace.spans] == ["nn.forward"]
    assert bindings() == before


def test_counts_repeat_and_match_predicted_samples(bench):
    runs = [bench.run(tracer.TRACED) for _ in range(2)]
    assert bench.failed == 0, bench.problems
    first, second = (tracer.layer_metrics(r.spans)[1] for r in runs)
    assert first == second
    assert first["samples"][0] == bench.predicted_samples()
    assert first["federation.client_local_learning.calls"][0] == 2 * 4 + 4


def test_output_check_rejects_a_truncated_result(bench):
    assert bench.run(run.ROUND_PROBE) is not None
    rounds = bench.out / "rounds.csv"
    rounds.write_text("\n".join(rounds.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(run.CheckFailed):
        run.check_outputs(bench.out, bench.config)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w["why"] for name, w in run.WORKLOADS.items()}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "paired_paper", "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paired_paper", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
