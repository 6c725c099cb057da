"""Watching personalization happen: paired clients learn the same mixture.

Ten clients form five pairs; both members of a pair hold the same two classes.
Under alpha-weighted aggregation, each pair drifts to its own branch mixture:
within-pair mixing weights match almost exactly while different pairs attend
to different branches.  Run it and read the mixture table at the bottom.
"""

import numpy as np

from pfedmb import ExperimentConfig, alpha_similarity, run_experiment

config = ExperimentConfig(
    method="pfedmb",
    clients=10,
    sample_size=10,
    rounds=25,
    branches=5,
    lr_alpha=1.0,
    lr_w=0.05,
    shared_alpha=True,          # one mixture for all layers, easier to read
    hidden_dims=(32,),
    data={"synthetic": {"num_classes": 10, "input_dim": 20,
                        "noise_std": 0.7, "samples_per_class": 60}},
    partition={"scheme": "paired_clusters", "num_pairs": 5, "classes_per_pair": 2},
    seed=0,
    output_dir="unused",
)

result, server, clients = run_experiment(config)

print(f"mean test accuracy after fine-tuning: {result.final_mean_accuracy:.3f}\n")
print("final branch mixtures (rows = clients; paired rows should match):")
for i, alpha in enumerate(result.final_alpha):
    row = " ".join(f"{v:.2f}" for v in alpha[0])
    print(f"  client {i} (pair {i // 2}): [{row}]")

groups = [i // 2 for i in range(10)]
_, summary = alpha_similarity(result.final_alpha, group_labels=groups)
print(f"\nmean L2 distance within pairs:  {summary['within_mean']:.4f}")
print(f"mean L2 distance across pairs:  {summary['across_mean']:.4f}")
