"""pfedmb benchmark: one workload, end-to-end metrics or, traced, per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload paired_paper --seed 0 --seconds 30 --trace 0

A run is what a user does: ``pfedmb.cli.main(["run", "--config", ...])`` on a
config built from bench/workloads.json plus ``--seed``, in this process, one
experiment at a time (closed loop, ``threads: 1``), repeated for ``--seconds``.
BLAS threads are pinned to 1 in this process's own environment before numpy
loads.  Every run's result files are checked, and their sha256 must repeat
across the runs of a workload.

Timings.  Other tenants of a shared host slow it by up to ~60% for seconds to
minutes at a time, far more than most changes to the program move it.  So a
fixed numpy kernel shaped like the simulator's small-matrix steps (HostGauge)
is timed between runs, and every time measured in a run is scaled by
REFERENCE_KERNEL_S over the kernel's mean time just before and after it: the
seconds the run would take on a host where the kernel takes 19 ms, about its
time on a lightly loaded 2-vCPU Xeon.  The raw median run time and the kernel
time are printed beside the metrics.  run_s and setup_s are medians over the
window; round_ms_p50 and round_ms_p90 are percentiles over every round of every
run in the window (50 rounds a run for paired_paper, 5 for the others).

With ``--trace 1`` untraced and traced runs alternate.  The traced ones wrap
the public functions of config, data, nn, federation and metrics from outside
the program (bench/tracer.py); their result hash must equal the untraced one
and their counts must repeat exactly.  Per-layer timings are medians over the
traced runs, scaled like the end-to-end ones.

Human-readable lines go first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text())

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
RESULT_FILES = ("rounds.csv", "final.json", "alpha_trajectory.csv")
SETUP_REPS = 3      # parse_config + setup_experiment timed after every experiment
MIN_RUNS = 3        # good experiments per name set, however short --seconds
ROUND_PROBE = ("federation.run_round",)   # the only function timed in an untraced run
REFERENCE_KERNEL_S = 0.019


class Run(NamedTuple):
    """One good experiment and what was measured of it."""

    wall: float         # seconds of cli.main
    rounds: list        # seconds of each run_round call
    spans: list
    accuracy: float     # final mean test accuracy it reported
    result_bytes: int
    scale: float = 1.0  # REFERENCE_KERNEL_S / the host kernel's time around the run


class HostGauge:
    """Times a fixed kernel of small numpy steps, shaped like one local-learning
    step of the simulator, to tell how fast the host runs at this moment."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.normal(size=(40, 20))
        self.alpha = np.full(5, 0.2)
        self.w1, self.b1 = rng.normal(size=(5, 32, 20)), rng.normal(size=(5, 32))
        self.w2 = rng.normal(size=(5, 10, 32))

    def seconds(self):
        np, a = self.np, self.alpha
        start = time.perf_counter()
        for _ in range(600):
            h = np.maximum(self.x @ np.einsum("b,boi->oi", a, self.w1).T + a @ self.b1, 0.0)
            z = h @ np.einsum("b,boi->oi", a, self.w2).T
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            float((p.T @ h).sum())
        return time.perf_counter() - start


class CheckFailed(Exception):
    """A run's result files are missing, malformed, or differ from the first run's."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(np):
    """What the figures depend on besides the code: recorded with every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "pfedmb").glob("*.py"))),
    }


def check_outputs(out, config):
    """Validate one run's result files; returns (sha256, final mean accuracy, bytes)."""
    paths = [out / name for name in RESULT_FILES]
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        raise CheckFailed(f"missing result files {missing}")
    blobs = [p.read_bytes() for p in paths]
    rounds, clients = config["rounds"], config["clients"]
    num_layers = len(config["hidden_dims"]) + 1
    num_classes = config["data"]["synthetic"]["num_classes"]

    rows = blobs[0].decode().splitlines()
    if rows[0] != "round,method,mean_test_acc,mean_train_loss" or len(rows) != rounds + 1:
        raise CheckFailed(f"rounds.csv has {len(rows) - 1} rounds, expected {rounds}")
    for t, row in enumerate(rows[1:]):
        if not row.startswith(f"{t},{config['method']},"):
            raise CheckFailed(f"rounds.csv row {t}: {row!r}")

    final = json.loads(blobs[1])
    acc = final["final_mean_test_accuracy"]
    per_client = final["final_per_client_test_accuracy"]
    if final["method"] != config["method"] or len(per_client) != clients:
        raise CheckFailed("final.json does not describe the configured experiment")
    if not 1.0 / num_classes < acc <= 1.0 or abs(statistics.fmean(per_client) - acc) > 1e-8:
        raise CheckFailed(f"final mean accuracy {acc} is not the mean of "
                          f"per-client accuracies above chance")
    for alpha in final["final_alpha"]:
        if len(alpha) != num_layers or any(abs(sum(row) - 1.0) > 1e-8 for row in alpha):
            raise CheckFailed("final mixing weights are not simplex rows, one per layer")

    lines = blobs[2].count(b"\n")
    expected = 1 + rounds * clients * num_layers * config["branches"]
    if lines != expected:
        raise CheckFailed(f"alpha_trajectory.csv has {lines} lines, expected {expected}")
    sha = hashlib.sha256(b"".join(blobs)).hexdigest()
    return sha, acc, sum(len(b) for b in blobs)


class Bench:
    """One workload at one seed: its generated config, work directory and runs."""

    def __init__(self, workload, seed, work):
        import pfedmb.cli
        import tracer

        self.cli, self.tracer = pfedmb.cli, tracer
        self.config = dict(WORKLOADS[workload]["config"], seed=seed, output_dir=str(work / "out"))
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n")
        self.out = work / "out"
        self.attempted = self.failed = 0
        self.problems = []
        self.sha = None
        self.gauge = HostGauge()
        self.kernel_s = []
        self.walls = []

    def predicted_samples(self):
        """Local-learning samples of one experiment: 2*E*n_i per trained client and round,
        plus one two-phase fine-tuning pass of every client."""
        from pfedmb import federation, parse_config

        config = parse_config(self.config_path)
        _, clients = federation.setup_experiment(config)
        n = [c.num_samples for c in clients]
        trained = sum(
            n[i]
            for t in range(config.rounds)
            for i in federation.sample_clients(config.seed, config.clients, config.sample_size, t)
        )
        return 2 * config.local_epochs * (trained + sum(n))

    def setup_time(self):
        """Wall seconds of one parse_config plus setup_experiment, as a run starts."""
        from pfedmb import federation, parse_config

        gc.collect()
        start = time.perf_counter()
        federation.setup_experiment(parse_config(self.config_path))
        return time.perf_counter() - start

    def run(self, names, *flags, check=True):
        """One ``pfedmb run``; returns a Run, or None if it failed.

        ``names`` are the functions traced during the run.  A failed run or check
        counts toward ``failed`` and is reported, never dropped.
        """
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        argv = ["run", "--config", str(self.config_path), "--out", str(self.out), *flags]
        try:
            with self.tracer.Tracer(names) as trace, contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = self.cli.main(argv)
                end = time.perf_counter()
            if code != 0:
                raise CheckFailed(f"cli.main returned {code}")
            if not check:
                return None
            sha, acc, nbytes = check_outputs(self.out, self.config)
            if self.sha is None:
                self.sha = sha
            elif sha != self.sha:
                raise CheckFailed(f"result sha256 {sha[:12]} differs from {self.sha[:12]}")
            rounds = [e - b for name, b, e, _, _ in trace.spans if name == "federation.run_round"]
            self.walls.append(end - start)
            return Run(end - start, rounds, trace.spans, acc, nbytes)
        except Exception as exc:  # any failure of the program under test is a failed run
            self.fail(f"run {self.attempted}: {type(exc).__name__}: {exc}")
            return None
        finally:
            leftover = self.tracer.unrestored()
            if leftover:
                self.fail(f"tracing wrappers left installed: {leftover}")

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)
        print(f"FAILED {problem}", file=sys.stderr)

    def kernel(self):
        self.kernel_s.append(self.gauge.seconds())
        return self.kernel_s[-1]

    def repeat(self, seconds, *name_sets):
        """Run each name set in turn until ``seconds`` pass and every set has
        MIN_RUNS good runs (or one run failed).  The host kernel is timed after
        every run, and SETUP_REPS set-ups follow each turn.

        Returns (good runs per name set, scaled set-up seconds).
        """
        results, setups = [[] for _ in name_sets], []
        self.run(ROUND_PROBE, "--rounds", "1", check=False)   # warm-up
        before = self.kernel()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or (
                min(map(len, results)) < MIN_RUNS and not self.failed):
            for names, good in zip(name_sets, results):
                result = self.run(names)
                after = self.kernel()
                if result is not None:
                    good.append(result._replace(scale=2 * REFERENCE_KERNEL_S / (before + after)))
                before = after
            setups.extend(self.setup_time() * REFERENCE_KERNEL_S / before
                          for _ in range(SETUP_REPS))
        return results, setups


def run_seconds(runs):
    """Median run time, scaled to the reference host speed."""
    return statistics.median(r.wall * r.scale for r in runs)


def round_ms(runs, q):
    """q-th percentile of the scaled times of every round of every run."""
    rounds = [1e3 * r.scale * d for r in runs for d in r.rounds]
    return statistics.quantiles(rounds, n=100, method="inclusive")[q - 1]


def measure(bench, seconds):
    samples = bench.predicted_samples()
    (runs,), setups = bench.repeat(seconds, ROUND_PROBE)
    if not runs:
        return {}
    run_s = run_seconds(runs)
    return {
        "run_s": (run_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "round_ms_p50": (round_ms(runs, 50), "ms"),
        "round_ms_p90": (round_ms(runs, 90), "ms"),
        "samples_per_s": (samples / run_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "final_mean_test_acc": (runs[0].accuracy, "fraction"),
        "success_rate": ((bench.attempted - bench.failed) / bench.attempted, "fraction"),
    }


def measure_traced(bench, seconds):
    samples = bench.predicted_samples()
    (plain, traced), _ = bench.repeat(seconds, ROUND_PROBE, bench.tracer.TRACED)
    if not plain or not traced:
        return {}
    per_run = []
    for run in traced:
        timings, counts = bench.tracer.layer_metrics(run.spans)
        counts["metrics.emit_results.bytes"] = (run.result_bytes, "B")
        per_run.append((timings, counts))
    timings, counts = per_run[0]
    if any(other != counts for _, other in per_run[1:]):
        bench.fail("count metrics differ between traced runs")
    traced_samples = counts.pop("samples")[0]
    if traced_samples != samples:
        bench.fail(f"traced runs train on {traced_samples} samples, predicted {samples}")

    metrics = dict(counts)
    for name, (_, unit) in timings.items():
        metrics[name] = (statistics.median(
            t[name][0] * run.scale for (t, _), run in zip(per_run, traced)), unit)
    untraced_s, traced_s = run_seconds(plain), run_seconds(traced)
    metrics["trace.untraced_run_s"] = (untraced_s, "s")
    metrics["trace.traced_run_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:      # before numpy loads: BLAS reads them once
        os.environ[var] = BLAS_THREADS
    if not (SRC / "pfedmb" / "__init__.py").is_file():
        print(f"bench: no pfedmb sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import pfedmb

    if Path(pfedmb.__file__).resolve().parent != (SRC / "pfedmb").resolve():
        print(f"bench: imported pfedmb from {pfedmb.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        bench = Bench(args.workload, args.seed, work)
        metrics = (measure_traced if args.trace else measure)(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} result_sha256 {bench.sha}")
    if bench.walls:
        print(f"{args.workload} raw median run {statistics.median(bench.walls):.4g} s, "
              f"host kernel {1e3 * statistics.median(bench.kernel_s):.4g} ms "
              f"(reference {1e3 * REFERENCE_KERNEL_S:g} ms)")
    print("env " + json.dumps(environment(np), sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
