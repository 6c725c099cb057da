import os
import subprocess
import sys
from pathlib import Path

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
