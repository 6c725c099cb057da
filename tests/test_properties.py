"""Whole-run properties that no golden can show.

Metamorphic checks on the round loop (identical branches, permuted branches)
and a derandomized sweep of `pfedmb run` over small valid configs of every
method.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_config
from pfedmb import federation as fed
from pfedmb import nn
from pfedmb.cli import main
from pfedmb.config import METHODS
from pfedmb.data import SCHEMES

ROUNDS = 3
RESULT_FILES = ("rounds.csv", "final.json", "alpha_trajectory.csv")


def network(weights, biases) -> nn.Network:
    return nn.Network([nn.MultiBranchDense(w, b) for w, b in zip(weights, biases)])


def train(config, model, logits=None):
    """ROUNDS rounds of run_round from the given branches and mixing logits."""
    server, clients = fed.setup_experiment(config)
    server.model = model
    for client, rows in zip(clients, logits or []):
        client.alpha = nn.AlphaParams(rows, client.alpha.num_layers, client.alpha.shared)
    reports = [fed.run_round(server, clients, config) for _ in range(ROUNDS)]
    return server, clients, reports


@pytest.mark.parametrize("branches", [2, 3, 4, 5])
def test_identical_branches_stay_identical_and_match_fedavg(branches):
    """B copies of one branch under uniform mixing train as FedAvg at lr_w / B.

    Every branch receives the combined update lr_w * (1/B) * dW and the same
    aggregation mass n_i / B, so the copies never drift apart and the mixing
    gradient is the same for every branch.
    """
    config = make_config(branches=branches, rounds=ROUNDS)
    init, _ = fed.setup_experiment(config)
    weights = [layer.weights[:1] for layer in init.model.layers]  # branch 0 only
    biases = [layer.biases[:1] for layer in init.model.layers]
    copies = network([np.repeat(w, branches, axis=0) for w in weights],
                     [np.repeat(b, branches, axis=0) for b in biases])
    server, clients, _ = train(config, copies)

    baseline = make_config(method="fedavg", branches=1, rounds=ROUNDS,
                           lr_w=config.lr_w / branches)
    fedavg, _, _ = train(baseline, network(weights, biases))

    for layer, single in zip(server.model.layers, fedavg.model.layers):
        for params, reference in ((layer.weights, single.weights),
                                  (layer.biases, single.biases)):
            for b in range(1, branches):
                np.testing.assert_array_equal(params[b], params[0])
            np.testing.assert_allclose(params[:1], reference, rtol=0, atol=1e-12)
    for client in clients:
        np.testing.assert_array_equal(
            client.alpha.values(), np.full((len(weights), branches), 1 / branches)
        )


@pytest.mark.parametrize("shared_alpha", [False, True])
def test_permuting_the_branches_permutes_the_result(shared_alpha):
    """Branch order carries no meaning: a permuted start trains to the permuted end."""
    perm = [2, 0, 1]
    config = make_config(branches=3, rounds=ROUNDS, shared_alpha=shared_alpha)
    init, fresh = fed.setup_experiment(config)
    rng = np.random.default_rng(7)
    logits = [rng.normal(size=c.alpha.logits.shape) for c in fresh]
    weights = [layer.weights for layer in init.model.layers]
    biases = [layer.biases for layer in init.model.layers]

    server, clients, reports = train(config, network(weights, biases), logits)
    p_server, p_clients, p_reports = train(
        config,
        network([w[perm] for w in weights], [b[perm] for b in biases]),
        [rows[:, perm] for rows in logits],
    )

    for layer, p_layer in zip(server.model.layers, p_server.model.layers):
        np.testing.assert_allclose(p_layer.weights, layer.weights[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(p_layer.biases, layer.biases[perm], rtol=0, atol=1e-12)
    for client, p_client in zip(clients, p_clients):
        np.testing.assert_allclose(
            p_client.alpha.logits, client.alpha.logits[:, perm], rtol=0, atol=1e-12
        )
    for report, p_report in zip(reports, p_reports):
        np.testing.assert_allclose(
            p_report.test_accuracies, report.test_accuracies, rtol=0, atol=1e-9
        )


@st.composite
def run_configs(draw) -> dict:
    """A small config that ExperimentConfig accepts; the run itself may still fail."""
    method = draw(st.sampled_from(METHODS))
    num_classes = draw(st.integers(2, 4))
    scheme = draw(st.sampled_from(sorted(SCHEMES)))
    # class counts keep the partition's rules; the examples below break each of them once
    if scheme == "paired_clusters":
        pairs = draw(st.integers(1, 2))
        clients, holders = 2 * pairs, 2  # a pair shares each of its classes
        part = {"num_pairs": pairs, "classes_per_pair": draw(st.integers(1, num_classes // pairs))}
    else:
        clients = holders = draw(st.integers(1, 4))
        # size_heterogeneous's clients must cover every class between them
        low = -(-num_classes // clients) if scheme == "size_heterogeneous" else 1
        part = ({"beta": draw(st.floats(0.05, 10.0))} if scheme == "dirichlet"
                else {"k": draw(st.integers(low, num_classes))})
    lr = st.floats(0.0, 1e6)
    return {
        "method": method,
        "clients": clients,
        "sample_size": draw(st.integers(1, clients)),
        "rounds": draw(st.integers(0, 2)),
        "branches": 1 if method == "fedavg" else draw(st.integers(1, 4)),
        "lr_alpha": draw(lr),
        "lr_w": draw(lr),
        "shared_alpha": draw(st.booleans()),
        "hidden_dims": draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)),
        "data": {"synthetic": {"num_classes": num_classes,
                               "input_dim": draw(st.integers(1, 4)),
                               # a class's val and test splits, 1/6 of it each, can
                               # give each client that holds it a sample
                               "samples_per_class": draw(st.integers(6 * holders, 30))}},
        "partition": {"scheme": scheme, **part},
        "seed": draw(st.integers(0, 3)),
        "local_epochs": draw(st.integers(1, 2)),
        # a train shard holds from 1 to 80 rows: batches fall above and below it
        "batch_size": draw(st.integers(1, 120)),
    }


SMALL = {"method": "pfedmb", "clients": 2, "sample_size": 2, "rounds": 1, "branches": 2,
         "lr_alpha": 0.5, "lr_w": 0.1, "shared_alpha": False, "hidden_dims": [4],
         "data": {"synthetic": {"num_classes": 3, "input_dim": 2, "samples_per_class": 10}},
         "seed": 0, "local_epochs": 1, "batch_size": 8}


# one config per class-count rule of the partition, which no draw breaks
@example(raw=dict(SMALL, partition={"scheme": "random_k_classes", "k": 4}))
@example(raw=dict(SMALL, partition={"scheme": "size_heterogeneous", "k": 1}))
@example(raw=dict(SMALL, partition={"scheme": "paired_clusters", "num_pairs": 1,
                                    "classes_per_pair": 4}))
# the last fine-tuning weight step overflows, and the evaluation finds it
@example(raw={"method": "local", "clients": 2, "sample_size": 1, "rounds": 0, "branches": 2,
              "lr_alpha": 0.5, "lr_w": 1e300, "shared_alpha": False, "hidden_dims": [4],
              "data": {"synthetic": {"num_classes": 2, "input_dim": 2, "samples_per_class": 10}},
              "partition": {"scheme": "dirichlet", "beta": 1.0}, "seed": 0,
              "local_epochs": 1, "batch_size": 1000})
@settings(max_examples=150)
@given(raw=run_configs())
def test_every_valid_run_completes_or_fails_located(raw):
    """Exit 0 with all three result files, or exit 2 with one located error line;
    a numeric failure names its client and round."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(path), "--out", str(out)])
        if code == 0:
            assert all((out / name).is_file() for name in RESULT_FILES)
        else:
            lines = err.getvalue().splitlines()
            assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines
            assert "non-finite" not in lines[0] or lines[0].startswith("error: client "), lines
            assert not (out / "final.json").exists()
