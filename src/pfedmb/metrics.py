"""Evaluation of personalized models, mixing-weight analytics, result files.

Reported means are unweighted over clients (every client counts once,
regardless of shard size); final.json records that convention.  Emitted files
are a pure function of the ExperimentResult: no timestamps, floats printed
with 10 significant digits, keys sorted.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .data import LabeledDataset, write_atomic
from .errors import ConfigurationError, UsageError

SCHEMA_VERSION = 1
MEAN_CONVENTION = "unweighted over clients"


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _round10(x: float) -> float:
    return float(_fmt(x))


def config_fingerprint(config_dict: dict) -> str:
    """Hash of the canonical (sorted-keys) JSON form of a config."""
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def evaluate_client(net: nn.Network, alpha: nn.AlphaParams, shard: LabeledDataset):
    """Fraction of argmax-correct predictions of (net combined with alpha); given S clients'
    logits and test shards back to back, as nn.forward takes them, the list of S fractions."""
    if shard.num_classes != net.num_classes:
        raise ConfigurationError(
            f"shard has {shard.num_classes} classes, network outputs {net.num_classes}"
        )
    logits = nn.forward(net, alpha, shard.features)
    return (logits.argmax(axis=-1) == shard.labels.reshape(logits.shape[:-1])).mean(-1).tolist()


def alpha_similarity(alphas, group_labels=None):
    """Pairwise L2 distances between clients' concatenated per-layer mixing weights.

    alphas holds one array per client, as ExperimentResult.final_alpha does.
    Returns (matrix, summary); summary holds mean within-group and mean
    across-group distance when group labels are given, else None.
    """
    if len(alphas) < 2:
        raise UsageError("alpha similarity needs at least two clients")
    flat = [np.asarray(a, dtype=np.float64).reshape(-1) for a in alphas]
    if len({v.shape for v in flat}) != 1:
        raise UsageError("clients have differently shaped mixing weights")
    stacked = np.stack(flat)
    diff = stacked[:, None, :] - stacked[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))

    summary = None
    if group_labels is not None:
        labels = list(group_labels)
        if len(labels) != len(flat):
            raise UsageError("one group label per client required")
        within, across = [], []
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                (within if labels[i] == labels[j] else across).append(dist[i, j])
        summary = {
            "within_mean": float(np.mean(within)) if within else float("nan"),
            "across_mean": float(np.mean(across)) if across else float("nan"),
        }
    return dist, summary


@dataclass
class ExperimentResult:
    """Everything a finished experiment reports; emitted files derive from this only."""

    per_round_mean_test_accuracy: list
    per_round_mean_train_loss: list
    final_client_accuracies: list
    final_alpha: list                 # per client, (num_layers, B) simplex rows
    alpha_trajectory: list            # per round, (N, num_layers, B) array
    config: dict                      # ExperimentConfig.semantic_dict(), method included

    @property
    def final_mean_accuracy(self) -> float:
        return float(np.mean(self.final_client_accuracies))


def emit_results(result: ExperimentResult, output_dir) -> list:
    """Write rounds.csv, alpha_trajectory.csv, then final.json; returns the paths.

    Each file is written atomically.  The earlier final.json is moved aside
    first and the earlier CSVs after it, each to .<name>.kept, and the new
    final.json comes last; so even a process killed at any point leaves either
    no final.json or one next to the other two files of its own result.  A
    raised error drops this call's new files and puts the kept ones back,
    final.json last.  Kept files that a killed call left are deleted first.
    """
    out, method = Path(output_dir), result.config["method"]
    out.mkdir(parents=True, exist_ok=True)

    rounds_path = out / "rounds.csv"
    rounds = ["round,method,mean_test_acc,mean_train_loss"] + [
        f"{t},{method},{_fmt(acc)},{_fmt(loss)}" for t, (acc, loss) in enumerate(
            zip(result.per_round_mean_test_accuracy, result.per_round_mean_train_loss))]

    traj_path = out / "alpha_trajectory.csv"
    traj = ["round,client,layer,branch,alpha"] + [  # (client, layer, branch) in C order
        f"{t},{i},{l},{b},{_fmt(v)}" for t, snapshot in enumerate(result.alpha_trajectory)
        for (i, l, b), v in np.ndenumerate(np.asarray(snapshot))]

    final_path = out / "final.json"
    doc = {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "mean_convention": MEAN_CONVENTION,
        "config_fingerprint": config_fingerprint(result.config),
        "config": result.config,
        "per_round_mean_test_accuracy": [_round10(v) for v in result.per_round_mean_test_accuracy],
        "per_round_mean_train_loss": [_round10(v) for v in result.per_round_mean_train_loss],
        "final_per_client_test_accuracy": [_round10(v) for v in result.final_client_accuracies],
        "final_mean_test_accuracy": _round10(result.final_mean_accuracy),
        "final_alpha": [[[_round10(v) for v in row] for row in np.asarray(a)]
                        for a in result.final_alpha],
    }
    aside = {p: p.with_name(f".{p.name}.kept") for p in (final_path, rounds_path, traj_path)}
    for stale in aside.values():
        stale.unlink(missing_ok=True)
    kept = [path for path in aside if path.exists()]
    for path in kept:
        os.replace(path, aside[path])
    try:
        write_atomic(rounds_path, "\n".join(rounds) + "\n")
        write_atomic(traj_path, "\n".join(traj) + "\n")
        write_atomic(final_path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    except BaseException:
        for path in reversed(aside):
            path.unlink(missing_ok=True)
            if path in kept:
                os.rename(aside[path], path)
        raise
    for path in kept:
        aside[path].unlink()
    return [rounds_path, final_path, traj_path]
