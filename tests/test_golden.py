"""Golden fingerprints: the result bytes of `pfedmb run` for every method.

Each case runs the CLI end to end and hashes rounds.csv, final.json and
alpha_trajectory.csv.  The partition is Dirichlet and fewer clients are
sampled than exist, so client sampling and ragged shards are both covered.
A refactor must keep every hash; a change that moves one is a behaviour
change and re-pins it on purpose.
"""

import hashlib
import json

import pytest

from pfedmb import cli

RESULT_FILES = ("rounds.csv", "final.json", "alpha_trajectory.csv")

BASE = {
    "clients": 5,
    "sample_size": 3,
    "rounds": 3,
    "local_epochs": 2,
    "batch_size": 16,
    "branches": 3,
    "lr_alpha": 0.5,
    "lr_w": 0.1,
    "hidden_dims": [8],
    "data": {"synthetic": {"num_classes": 4, "input_dim": 5, "noise_std": 0.7,
                           "samples_per_class": 30}},
    "partition": {"scheme": "dirichlet", "beta": 0.5},
    "seed": 7,
}

CASES = {
    **{
        f"{method}-{'shared' if shared else 'per_layer'}": dict(
            BASE, method=method, shared_alpha=shared,
            **({"branches": 1} if method == "fedavg" else {}),
        )
        for method in ("pfedmb", "pfedmb_plain_agg", "fedavg", "local")
        for shared in (False, True)
    },
    "pfedmb-two_hidden": dict(BASE, method="pfedmb", shared_alpha=False, hidden_dims=[8, 6]),
}

GOLDEN = {
    "fedavg-per_layer": "d94a539fb4b0e21374ea6267f0d37ececa260b75032fcdf733f972d485726b65",
    "fedavg-shared": "4adf5743e3a330385241b39fc2a376ce46b1c483c5061643982c662eb06ba437",
    "local-per_layer": "7dc367d9562b08d1ad5db9dbb40dc7314e994d587def46e5e4dc98b32dde6618",
    "local-shared": "9452f5c3a830f5a53e873cb43a13054715850385b7602e6dfd42c06e13195d2a",
    "pfedmb-per_layer": "f3fa77ca476794aad2e0dbad15db62fc36cf0d21b1fb12c5d0a3ce679903209b",
    "pfedmb-shared": "c4280aefacbc5feacf73f2e6f4efee8572c9492e55115217970fc7fad7ba2d26",
    "pfedmb-two_hidden": "41e3bc8747f82718635195259a9b23e7e0cb762a0daaad964c2c32efcf358866",
    "pfedmb_plain_agg-per_layer": "fb400bd013e58214f2ca96081660bdec38c12fcdb93ed09b9925bd877740194a",
    "pfedmb_plain_agg-shared": "2dc6baa30e244bf1ceca0e6b24cf4436a1ab5c12a1bdcacd491935167f64f535",
}


def result_sha256(config, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for name in RESULT_FILES:
        digest.update(name.encode() + b"\0" + (out / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_bytes_match_golden(case, tmp_path):
    assert result_sha256(CASES[case], tmp_path) == GOLDEN[case]


# sha256 of compare.csv from `pfedmb compare` over all four methods on BASE
COMPARE_METHODS = "local,fedavg,pfedmb_plain_agg,pfedmb"
COMPARE_GOLDEN = "2c590e07660d72de9c70f755b7cab9fd3cdea6719b67b2db10c23dc1eee775dd"


def test_compare_table_matches_golden(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(BASE, method="pfedmb", shared_alpha=False)))
    out = tmp_path / "out"
    argv = ["compare", "--config", str(path), "--out", str(out), "--methods", COMPARE_METHODS]
    assert cli.main(argv) == 0
    assert hashlib.sha256((out / "compare.csv").read_bytes()).hexdigest() == COMPARE_GOLDEN


# The three benchmark workload configs at seed 3, frozen here so that a change
# to the benchmark never moves these pins.  Their hash is the benchmark's:
# sha256 of the three result files concatenated, with no names between them.
BENCH_SHAPES = {
    "paired_paper": {
        "method": "pfedmb", "clients": 10, "participation": 1.0, "rounds": 50,
        "local_epochs": 5, "batch_size": 64, "branches": 5, "lr_alpha": 1.0,
        "lr_w": 0.05, "shared_alpha": True, "hidden_dims": [32],
        "data": {"synthetic": {"num_classes": 10, "input_dim": 20, "noise_std": 0.7,
                               "samples_per_class": 60}},
        "partition": {"scheme": "paired_clusters", "num_pairs": 5, "classes_per_pair": 2},
        "threads": 1, "seed": 3,
    },
    "dirichlet_ragged": {
        "method": "pfedmb", "clients": 50, "sample_size": 25, "rounds": 5,
        "local_epochs": 5, "batch_size": 64, "branches": 4, "lr_alpha": 1.0,
        "lr_w": 0.05, "shared_alpha": False, "hidden_dims": [128],
        "data": {"synthetic": {"num_classes": 20, "input_dim": 64, "class_mean_scale": 2.0,
                               "noise_std": 0.7, "samples_per_class": 400}},
        "partition": {"scheme": "dirichlet", "beta": 0.5},
        "threads": 1, "seed": 3,
    },
    "deep_server": {
        "method": "pfedmb_plain_agg", "clients": 100, "participation": 1.0, "rounds": 5,
        "local_epochs": 1, "batch_size": 512, "branches": 8, "lr_alpha": 1.0,
        "lr_w": 0.5, "shared_alpha": False, "hidden_dims": [64, 64, 64],
        "data": {"synthetic": {"num_classes": 10, "input_dim": 32, "noise_std": 0.7,
                               "samples_per_class": 600}},
        "partition": {"scheme": "random_k_classes", "k": 3},
        "threads": 1, "seed": 3,
    },
}

BENCH_GOLDEN = {
    "paired_paper": "cf657624b76315821474fc76b1c40a67e566e64f6ac9b2d72948e513aab215ee",
    "dirichlet_ragged": "b7f6afe44a2f710200ab37a5fc441e67f6b6b66169a0ec2a34b1f2f31f26b881",
    "deep_server": "684cf2461b3ecb75cae58164503a20abdf3f61d1747e783f8180c3bd72f79d9f",
}


@pytest.mark.parametrize("shape", sorted(BENCH_SHAPES))
def test_bench_shape_result_bytes_match_golden(shape, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BENCH_SHAPES[shape]))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    blob = b"".join((out / name).read_bytes() for name in RESULT_FILES)
    assert hashlib.sha256(blob).hexdigest() == BENCH_GOLDEN[shape]
