"""Side-by-side methods on identical data, seeds, and epoch budgets.

Compares isolated local training, FedAvg, and the multi-branch method with
plain vs alpha-weighted aggregation, all followed by the same local
fine-tuning.  Also reports how many rounds each aggregation needed to reach
95% of its final accuracy -- the alpha-weighted variant converges faster.
"""

import dataclasses

import numpy as np

from pfedmb import ExperimentConfig, run_experiment

base = ExperimentConfig(
    method="pfedmb",
    clients=10,
    sample_size=10,
    rounds=50,
    branches=5,
    lr_alpha=1.0,
    lr_w=0.05,
    shared_alpha=True,
    hidden_dims=(32,),
    data={"synthetic": {"num_classes": 10, "input_dim": 20,
                        "noise_std": 0.7, "samples_per_class": 60}},
    partition={"scheme": "paired_clusters", "num_pairs": 5, "classes_per_pair": 2},
    seed=0,
    output_dir="unused",
)


def rounds_to_95(trajectory):
    target = 0.95 * trajectory[-1]
    return next(t for t, acc in enumerate(trajectory) if acc >= target)


rows = []
for method in ("local", "fedavg", "pfedmb_plain_agg", "pfedmb"):
    cfg = dataclasses.replace(
        base, method=method, branches=1 if method == "fedavg" else base.branches
    )
    result, _, _ = run_experiment(cfg)
    note = ""
    if method in ("pfedmb", "pfedmb_plain_agg"):
        note = f"reached 95% of final at round {rounds_to_95(result.per_round_mean_test_accuracy)}"
    rows.append((method, result.final_mean_accuracy, note))

print(f"{'method':<18} {'mean test acc':>13}")
for method, acc, note in rows:
    print(f"{method:<18} {acc:>13.4f}   {note}")
