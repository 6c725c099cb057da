import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from pfedmb import federation, nn
from pfedmb.config import ExperimentConfig

# every property test draws the same examples on every run, keeps no example
# database in the checkout and has no per-example deadline
settings.register_profile("pfedmb", derandomize=True, database=None, deadline=None)
settings.load_profile("pfedmb")

SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env(**overrides):
    """This environment with src/ first on PYTHONPATH, plus overrides, for a child python."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **overrides)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env(threads):
    """subprocess_env with the child's BLAS held to `threads` threads."""
    return subprocess_env(**{name: str(threads) for name in BLAS_THREAD_VARS})


def child_minor_faults(args) -> int:
    """Minor page faults of one child `python *args` with BLAS at 1 thread; it must exit 0."""
    resource = pytest.importorskip("resource")
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run([sys.executable, *args], env=blas_env(1), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


def corrupt_kernel(monkeypatch, group):
    """Make nn.loss_and_grads add 1 to the first entry of group's gradient, "w" or "alpha".

    Every caller that looks the kernel up in nn (gradient_check, training) gets
    the corrupted one; the forward pass and batch_loss stay exact.
    """
    kernel = nn.loss_and_grads

    def corrupted(net, alpha, batch, wrt):
        loss, grads = kernel(net, alpha, batch, wrt)
        if wrt == group:
            # the first branch weight of layer 0, or the first mixing logit
            (grads[0][0] if wrt == nn.WRT_W else grads).flat[0] += 1.0
        return loss, grads

    monkeypatch.setattr(nn, "loss_and_grads", corrupted)


def run_rounds(config):
    """A fresh experiment of config through its config.rounds rounds, no fine-tuning:
    (server, clients, reports), each client's model (current_model(server), alpha)."""
    server, clients = federation.setup_experiment(config)
    return server, clients, [federation.run_round(server, clients, config)
                             for _ in range(config.rounds)]


def mixing_results(clients, models, round_index, config):
    """Each client's mixing phase on models[i], as the first lockstep pass of a local pass
    runs it: per client its new AlphaParams, or the located NumericError that ended it."""
    return list(federation._lockstep(clients, models, [c.alpha for c in clients],
                                     federation.ALPHA_PHASE, round_index, config))


def weight_results(clients, models, alphas, round_index, config):
    """Each client's weight phase from models[i] with alphas[i] fixed, in the chunks a local
    pass trains: per client (network, train loss), or the located NumericError."""
    return list(federation._lockstep(clients, models, alphas, federation.WEIGHT_PHASE,
                                     round_index, config))


def branch_shares(n, weight):
    """(share, live) of the clients an aggregation takes, with shard sizes n (S,) and
    weights (S, L, B): share[j, l, b] = n_j a_jlb / sum_k n_k a_klb, client j's share of
    branch (l, b) (0 for a dead branch), and live, whether the branch's mass reaches
    DEAD_BRANCH_FLOOR of sum(n); a dead branch keeps the server's previous value."""
    coeffs = n[:, None, None] * weight
    mass = coeffs.sum(axis=0)
    live = mass >= federation.DEAD_BRANCH_FLOOR * n.sum()
    return np.where(live, coeffs / np.where(live, mass, 1.0), 0.0), live


def aggregation_weight(alpha, strategy):
    """a of the rule n_j a_jlb: the mixing weights under alpha weighting, else 1."""
    alpha_weighted = strategy is federation.AggregationStrategy.ALPHA_WEIGHTED
    return alpha if alpha_weighted else np.ones_like(alpha)


def coupling(alpha, n, sampled, strategy):
    """Who learns from whom in one round, per layer: C[l, i, j], client j's share of client
    i's combined layer l after the round, and in column N the share that dead branches
    keep from the server's previous model.

    alpha (N, L, B) holds every client's mixing weights after the round, n every shard
    size, and sampled the ids aggregated.  Branch b becomes sum_j share_jb W_jb over the
    sampled clients (branch_shares), so C[l, i, j] = sum_b alpha_ilb share_jlb; with no
    strategy (`local`) every client keeps its own model and C is the identity."""
    clients, layers, _ = alpha.shape
    c = np.zeros((layers, clients, clients + 1))
    if strategy is None:
        c[:, np.arange(clients), np.arange(clients)] = 1.0
        return c
    share, live = branch_shares(n[sampled], aggregation_weight(alpha[sampled], strategy))
    c[:, :, sampled] = np.einsum("ilb,jlb->lij", alpha, share)
    c[:, :, clients] = np.einsum("ilb,lb->li", alpha, ~live)
    return c


def aggregation_gap(updates, strategy, previous, aggregated) -> float:
    """How far aggregate's result is from the mix that coupling assumes: each live branch
    sum_j share_jb W_jb over the updates, each dead one its previous value; the largest
    difference over the largest magnitude of the arrays it mixes."""
    n = np.array([update.num_samples for update in updates], dtype=np.float64)
    alpha = np.stack([update.alpha_values for update in updates])
    share, live = branch_shares(n, aggregation_weight(alpha, strategy))
    gaps = []  # NaN propagates through np.max
    for l, (prev, new) in enumerate(zip(previous.layers, aggregated.layers)):
        for name in ("weights", "biases"):
            stack = np.stack([getattr(update.model.layers[l], name) for update in updates])
            want = np.einsum("jb,jb...->b...", share[:, l], stack)
            want[~live[l]] = getattr(prev, name)[~live[l]]
            scale = max(np.abs(stack).max(), np.abs(getattr(prev, name)).max(), 1e-300)
            gaps.append(np.abs(getattr(new, name) - want).max() / scale)
    return float(np.max(gaps))


def collaboration(out_dir):
    """coupling of every round, rebuilt from a run's result files and its config alone:
    final.json's config gives the shard sizes (setup_experiment) and each round's sampled
    ids (sample_clients), and alpha_trajectory.csv every client's mixing weights after
    each round, each row rescaled to sum to 1 after the file's 10-digit rounding."""
    out = Path(out_dir)
    config = ExperimentConfig(**json.loads((out / "final.json").read_text())["config"],
                              output_dir="unused")
    if not config.rounds:
        return []
    _, clients = federation.setup_experiment(config)
    n = np.array([client.num_samples for client in clients], dtype=np.float64)
    rows = np.loadtxt(out / "alpha_trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    alpha = np.zeros((config.rounds, len(clients), *clients[0].alpha.values().shape))
    alpha[tuple(rows[:, :4].astype(np.int64).T)] = rows[:, 4]
    alpha /= alpha.sum(axis=-1, keepdims=True)
    strategy = federation.STRATEGY_FOR_METHOD[config.method]
    return [coupling(alpha[t], n, federation.sample_clients(
                config.seed, len(clients), config.sample_size, t), strategy)
            for t in range(config.rounds)]


def make_config(**overrides):
    """Small, fast experiment config; tests override what they care about."""
    base = dict(
        method="pfedmb",
        clients=4,
        sample_size=4,
        rounds=2,
        branches=2,
        lr_alpha=0.5,
        lr_w=0.1,
        shared_alpha=False,
        hidden_dims=(8,),
        data={
            "synthetic": {
                "num_classes": 4,
                "input_dim": 5,
                "noise_std": 0.6,
                "samples_per_class": 36,
            }
        },
        partition={"scheme": "paired_clusters", "num_pairs": 2, "classes_per_pair": 2},
        seed=0,
        output_dir="unused",
        local_epochs=2,
        batch_size=16,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture
def config_factory():
    return make_config
