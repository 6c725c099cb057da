"""Acceptance suite: every exit criterion, one printed pass/fail line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
the heavyweight paired-clusters experiment (criteria 5 and 6) runs once and is
shared.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pfedmb import federation as fed
from pfedmb import nn
from pfedmb.config import ExperimentConfig
from pfedmb.data import (
    Dirichlet,
    PairedClusters,
    PartitionSpec,
    RandomKClasses,
    SizeHeterogeneous,
    SyntheticTaskSpec,
    generate_synthetic,
    partition,
)
from pfedmb.federation import run_experiment
from pfedmb.metrics import alpha_similarity

from conftest import blas_env, make_config, run_rounds

SEEDS = (0, 1, 2)

# calibrated so a centralized MLP lands in the 85-95% band on this task
PAIRED_TASK = {
    "num_classes": 10,
    "input_dim": 20,
    "class_mean_scale": 1.0,
    "noise_std": 0.7,
    "samples_per_class": 60,
}


def _report(number, ok, detail):
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def paired_config(method, seed):
    return ExperimentConfig(
        method=method,
        clients=10,
        sample_size=10,
        rounds=50,
        branches=1 if method == "fedavg" else 5,
        lr_alpha=1.0,
        lr_w=0.05,
        shared_alpha=True,
        hidden_dims=(32,),
        data={"synthetic": dict(PAIRED_TASK)},
        partition={"scheme": "paired_clusters", "num_pairs": 5, "classes_per_pair": 2},
        seed=seed,
        output_dir="unused",
        local_epochs=5,
        batch_size=64,
    )


@pytest.fixture(scope="module")
def paired_runs():
    """The criterion-5 experiment: 3 methods x 3 seeds, shared with criterion 6."""
    started = time.perf_counter()
    results = {}
    for seed in SEEDS:
        for method in ("pfedmb", "pfedmb_plain_agg", "fedavg"):
            result, _, _ = run_experiment(paired_config(method, seed))
            results[(method, seed)] = result
    return results, time.perf_counter() - started


def test_criterion_1_gradient_exactness():
    rng = np.random.default_rng(2024)
    net = nn.init_network([8, 16, 4], 3, seed=rng.integers(0, 2**32))
    alpha = nn.AlphaParams(rng.normal(size=(2, 3)), 2)
    x = rng.normal(size=(8, 8))
    y = rng.integers(0, 4, size=8)

    started = time.perf_counter()
    report = nn.gradient_check(net, alpha, (x, y), h=1e-5)
    elapsed = time.perf_counter() - started

    # no coordinate of this network straddles a ReLU kink: every one is compared
    ok = (report.w_error < 1e-4 and report.alpha_error < 1e-4 and report.skipped == 0
          and elapsed < 5.0)
    _report(
        1, ok,
        f"w_err={report.w_error:.2e}, alpha_err={report.alpha_error:.2e}, "
        f"skipped={report.skipped}, {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_2_fedavg_reduction():
    base = dict(clients=4, sample_size=4, rounds=5, branches=1, seed=11,
                partition={"scheme": "dirichlet", "beta": 1.0})
    s_b1, c_b1, _ = run_rounds(make_config(method="pfedmb", **base))
    s_fa, c_fa, _ = run_rounds(make_config(method="fedavg", **base))

    identical = all(
        np.array_equal(la.weights, lb.weights) and np.array_equal(la.biases, lb.biases)
        for la, lb in zip(s_b1.model.layers, s_fa.model.layers)
    ) and all(
        np.array_equal(a.alpha.logits, b.alpha.logits) for a, b in zip(c_b1, c_fa)
    )
    _report(2, identical, "B=1 training and fedavg baseline bit-identical (N=4, T=5)")


def test_criterion_3_aggregation_algebra():
    rng = np.random.default_rng(33)
    cases = violations = 0
    for _ in range(1000):
        branches = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 4))
        n_clients = int(rng.integers(1, 7))
        prev = nn.Network([nn.MultiBranchDense(
            np.zeros((branches, dim, dim)), np.zeros((branches, dim)))])
        ups = []
        for _ in range(n_clients):
            ups.append(fed.ClientUpdate(
                int(rng.integers(1, 100)),
                nn.Network([nn.MultiBranchDense(
                    rng.normal(size=(branches, dim, dim)),
                    rng.normal(size=(branches, dim)))]),
                rng.dirichlet(np.ones(branches))[None, :],
            ))
        cases += 1

        # (a) coefficients form a convex combination
        for b in range(branches):
            coeffs = np.array([u.num_samples * u.alpha_values[0, b] for u in ups])
            frac = coeffs / coeffs.sum()
            if frac.min() < 0 or abs(frac.sum() - 1.0) > 1e-12:
                violations += 1

        # (b) identical mixing weights reduce to plain averaging
        shared = rng.dirichlet(np.ones(branches))[None, :]
        same = [dataclasses.replace(u, alpha_values=shared.copy()) for u in ups]
        aw = fed.aggregate(same, fed.AggregationStrategy.ALPHA_WEIGHTED, prev)
        pw = fed.aggregate(same, fed.AggregationStrategy.PLAIN_WEIGHTED, prev)
        for la, lb in zip(aw.layers, pw.layers):
            if not (np.allclose(la.weights, lb.weights, rtol=1e-12, atol=1e-12)
                    and np.allclose(la.biases, lb.biases, rtol=1e-12, atol=1e-12)):
                violations += 1

        # (c) rescaling every n_i leaves both strategies unchanged
        scale = int(rng.integers(2, 30))
        scaled = [dataclasses.replace(u, num_samples=u.num_samples * scale) for u in ups]
        for strat in fed.AggregationStrategy:
            base_net = fed.aggregate(ups, strat, prev)
            scaled_net = fed.aggregate(scaled, strat, prev)
            for la, lb in zip(base_net.layers, scaled_net.layers):
                if not np.allclose(la.weights, lb.weights, rtol=1e-12, atol=1e-14):
                    violations += 1

    _report(3, violations == 0, f"{cases} random instances, {violations} violations")


def test_criterion_4_superposition_equivalence():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(100):
        dims = tuple(rng.integers(2, 8, size=rng.integers(2, 4)))
        branches = int(rng.integers(1, 6))
        net = nn.init_network(dims, branches, seed=rng.integers(0, 2**32))
        alpha = nn.AlphaParams(rng.normal(size=(net.num_layers, branches)), net.num_layers)
        x = rng.normal(size=(int(rng.integers(1, 10)), dims[0]))

        combined = nn.forward(net, alpha, x)
        avals = alpha.values()
        act = x
        for l, layer in enumerate(net.layers):
            z = np.zeros((x.shape[0], layer.out_dim))
            for b in range(branches):
                z += avals[l, b] * (act @ layer.weights[b].T + layer.biases[b])
            act = np.maximum(z, 0.0) if l < net.num_layers - 1 else z
        denom = np.maximum(np.abs(act), 1e-300)
        worst = max(worst, float(np.max(np.abs(combined - act) / denom)))
    _report(4, worst <= 1e-12, f"100 random nets, max relative gap {worst:.2e}")


def test_criterion_5_paired_clusters_mechanism(paired_runs):
    results, elapsed = paired_runs
    groups = [i // 2 for i in range(10)]

    clustered = True
    for seed in SEEDS:
        _, sim = alpha_similarity(results[("pfedmb", seed)].final_alpha, groups)
        if not sim["within_mean"] < sim["across_mean"]:
            clustered = False

    mean = lambda m: float(np.mean(
        [results[(m, s)].final_mean_accuracy for s in SEEDS]
    ))
    pf, pl, fa = mean("pfedmb"), mean("pfedmb_plain_agg"), mean("fedavg")
    margin_pl = pf - pl
    margin_fa = pf - fa
    # expected margin >= 0; only a reversal larger than 0.5pp (seed-averaged) fails
    ordering = margin_pl >= -0.005 and margin_fa >= -0.005

    ok = clustered and ordering and elapsed < 300.0
    _report(
        5, ok,
        f"alpha clustered per seed={clustered}; mean acc pfedmb={pf:.4f} "
        f"plain={pl:.4f} fedavg={fa:.4f} (margins {100 * margin_pl:+.2f}pp, "
        f"{100 * margin_fa:+.2f}pp, reversal tolerance 0.5pp); {elapsed:.0f}s (limit 300s)",
    )


def test_criterion_6_convergence_speed(paired_runs):
    results, _ = paired_runs

    def rounds_to_95(trajectory):
        target = 0.95 * trajectory[-1]
        for t, acc in enumerate(trajectory):
            if acc >= target:
                return t
        return len(trajectory) - 1

    r_alpha = np.mean([
        rounds_to_95(results[("pfedmb", s)].per_round_mean_test_accuracy) for s in SEEDS
    ])
    r_plain = np.mean([
        rounds_to_95(results[("pfedmb_plain_agg", s)].per_round_mean_test_accuracy)
        for s in SEEDS
    ])
    _report(
        6, r_alpha <= r_plain,
        f"rounds to 95% of final accuracy: alpha-weighted {r_alpha:.1f} <= "
        f"plain {r_plain:.1f} (mean over {len(SEEDS)} seeds)",
    )


def test_criterion_7_partitioner_properties():
    rng = np.random.default_rng(77)
    cases = violations = 0
    while cases < 500:
        c = int(rng.integers(3, 9))
        n = int(rng.integers(2, 8))
        kind = cases % 4
        if kind == 3:
            pairs = int(rng.integers(1, c // 2 + 1))
            scheme, n = PairedClusters(pairs, 2), 2 * pairs
        elif kind == 0:
            scheme = RandomKClasses(k=int(rng.integers(1, c + 1)))
        elif kind == 1:
            scheme = Dirichlet(beta=float(rng.uniform(0.2, 3.0)))
        else:
            # k large enough that every class is owned with high probability,
            # so bounded resampling reliably reaches a full-coverage draw
            k_min = next(
                k for k in range(1, c + 1) if c * (1.0 - k / c) ** n < 0.05
            )
            scheme = SizeHeterogeneous(k=int(rng.integers(k_min, c + 1)))
        ds = generate_synthetic(SyntheticTaskSpec(
            num_classes=c, input_dim=2, noise_std=1.0,
            samples_per_class=int(rng.integers(10, 20)) * n, seed=cases,
        ))
        p = partition(ds, PartitionSpec(scheme, num_clients=n, seed=cases))
        cases += 1

        seen = np.concatenate([idx for lists in (p.train, p.val, p.test) for idx in lists])
        if len(np.unique(seen)) != len(seen) or seen.min() < 0 or seen.max() >= len(ds):
            violations += 1
        if any(len(lists) != n for lists in (p.train, p.val, p.test)):
            violations += 1
        if any(len(idx) == 0 for lists in (p.train, p.val, p.test) for idx in lists):
            violations += 1
        if isinstance(scheme, (Dirichlet, SizeHeterogeneous)) and len(seen) != len(ds):
            violations += 1
        if isinstance(scheme, RandomKClasses):
            for idx in p.train:
                if len(set(ds.labels[idx])) != scheme.k:
                    violations += 1
        if isinstance(scheme, PairedClusters):
            for m in range(scheme.num_pairs):
                if set(ds.labels[p.train[2 * m]]) != set(ds.labels[p.train[2 * m + 1]]):
                    violations += 1

    _report(7, violations == 0, f"{cases} randomized specs, {violations} violations")


# dirichlet_ragged's layer shapes (64 features, h=128, 20 classes) with 128-row
# batches: at 128 rows OpenBLAS splits the forward (x @ W.T) and both backward
# (dz.T @ x, dz @ W) matmuls across two threads; at 64 rows only the forward
BLAS_SPLIT_ROWS = 128
BLAS_CONFIG = {
    "method": "pfedmb",
    "clients": 10,
    "sample_size": 5,
    "rounds": 2,
    "local_epochs": 1,
    "batch_size": BLAS_SPLIT_ROWS,
    "branches": 4,
    "lr_alpha": 1.0,
    "lr_w": 0.05,
    "shared_alpha": False,
    "hidden_dims": [128],
    "data": {"synthetic": {"num_classes": 20, "input_dim": 64, "class_mean_scale": 2.0,
                           "noise_std": 0.7, "samples_per_class": 120}},
    "partition": {"scheme": "dirichlet", "beta": 0.5},
    "seed": 3,
}
# the same shapes on 10 equal 160-row shards: every chunk of sampled clients trains
# both phases as stacked calls, at 128 rows per client and step
BLAS_STACKED_CONFIG = dict(
    BLAS_CONFIG, partition={"scheme": "paired_clusters", "num_pairs": 5, "classes_per_pair": 4})

# user-mode clock ticks of the BLAS worker threads across a loop of each
# matmul of a training step at `rows` rows, each loop started once the pool is
# idle (OpenBLAS workers spin for a while after start-up and after each job)
WORKER_TICKS_PROBE = """
import os, sys, time
import numpy as np

def worker_ticks():
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as f:
                ticks += int(f.read().rsplit(")", 1)[1].split()[11])
    return ticks

def ticks_across(matmul, reps=2000):
    ticks, last = worker_ticks(), -1
    while ticks != last:
        time.sleep(0.05)
        ticks, last = worker_ticks(), ticks
    for _ in range(reps):
        matmul()
    return worker_ticks() - ticks

for rows in map(int, sys.argv[1:]):
    x, w, dz = np.ones((rows, 64)), np.ones((128, 64)), np.ones((rows, 128))
    print(*(ticks_across(f) for f in (lambda: x @ w.T, lambda: dz.T @ x, lambda: dz @ w)))
"""


def test_blas_splits_the_criterion_8_matmuls_across_two_threads(config_factory):
    if len(os.sched_getaffinity(0)) < 2 or not Path("/proc/self/task").is_dir():
        pytest.skip("needs two CPUs and Linux /proc to see a BLAS worker thread")
    done = subprocess.run(
        [sys.executable, "-c", WORKER_TICKS_PROBE, "8", str(BLAS_SPLIT_ROWS)],
        env=blas_env(2), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    small, split = ([int(t) for t in line.split()] for line in done.stdout.splitlines())
    # the worker idles through 8-row matmuls, so its ticks at 128 rows are work
    assert small == [0, 0, 0] and min(split) > 0, done.stdout
    # most clients of the criterion-8 run below train full 128-row batches
    cfg = config_factory(**dict(BLAS_CONFIG, hidden_dims=(128,)))
    _, clients = fed.setup_experiment(cfg)
    assert sum(len(c.shard) >= BLAS_SPLIT_ROWS for c in clients) > len(clients) // 2


def test_the_stacked_criterion_8_config_trains_both_phases_in_stacks(monkeypatch):
    """Its first round makes stacked calls of both gradient groups on 128-row batches."""
    stacks, kernel = set(), nn.loss_and_grads

    def spy(net, alpha, batch, wrt):
        if alpha.logits.ndim == 3:
            stacks.add((wrt, len(alpha.logits), len(batch[0]) // len(alpha.logits)))
        return kernel(net, alpha, batch, wrt)

    cfg = ExperimentConfig(**dict(BLAS_STACKED_CONFIG, rounds=1), output_dir="unused")
    server, clients = fed.setup_experiment(cfg)
    assert {c.num_samples for c in clients} == {160}
    monkeypatch.setattr(nn, "loss_and_grads", spy)
    fed.run_round(server, clients, cfg)
    for wrt in (nn.WRT_ALPHA, nn.WRT_W):
        assert any(w == wrt and s > 1 and rows == BLAS_SPLIT_ROWS for w, s, rows in stacks)


def test_the_dirichlet_criterion_8_config_trains_both_phases_in_ragged_stacks(monkeypatch):
    """Its first round stacks unequal shards of as many 128-row batches in both phases:
    each epoch's full batches are stacked calls of both gradient groups at 128 rows."""
    stacks, chunks = set(), []
    kernel, train_chunk = nn.loss_and_grads, fed._train_chunk

    def spy(net, alpha, batch, wrt):
        if alpha.logits.ndim == 3:
            stacks.add((wrt, len(alpha.logits), len(batch[0]) // len(alpha.logits)))
        return kernel(net, alpha, batch, wrt)

    def chunk_spy(chunk, model, alphas, phase, round_index, config):
        chunks.append((phase, [client.num_samples for client in chunk]))
        return train_chunk(chunk, model, alphas, phase, round_index, config)

    cfg = ExperimentConfig(**dict(BLAS_CONFIG, rounds=1), output_dir="unused")
    server, clients = fed.setup_experiment(cfg)
    monkeypatch.setattr(nn, "loss_and_grads", spy)
    monkeypatch.setattr(fed, "_train_chunk", chunk_spy)
    fed.run_round(server, clients, cfg)
    for phase in (fed.ALPHA_PHASE, fed.WEIGHT_PHASE):
        assert any(p == phase and len(set(sizes)) > 1 for p, sizes in chunks), chunks
    for wrt in (nn.WRT_ALPHA, nn.WRT_W):
        assert any(w == wrt and s > 1 and rows == BLAS_SPLIT_ROWS for w, s, rows in stacks)


def test_criterion_8_byte_identical_across_blas_thread_counts(tmp_path):
    same = True
    for name, config in (("dirichlet", BLAS_CONFIG), ("stacked", BLAS_STACKED_CONFIG)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        outs = [tmp_path / f"{name}_blas{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), outs):
            done = subprocess.run(
                [sys.executable, "-m", "pfedmb.cli", "run", "--config", str(cfg),
                 "--out", str(out)],
                env=blas_env(threads), capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr

        a, b = outs
        same = same and all(
            (a / result).read_bytes() == (b / result).read_bytes()
            for result in ("rounds.csv", "final.json", "alpha_trajectory.csv")
        )
    _report(8, same, "rounds.csv, final.json, alpha_trajectory.csv byte-identical "
                     "across 1 and 2 BLAS threads at h=128 with 128-row batches, "
                     "on ragged shards and on equal shards trained in stacks")
