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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (aggregation_gap, collaboration, coupling, make_config, mixing_results,
                      weight_results)
from pfedmb import federation as fed
from pfedmb import metrics, nn
from pfedmb.cli import main
from pfedmb.config import METHODS, ExperimentConfig
from pfedmb.data import SCHEMES
from pfedmb.errors import NumericError, PartitionError

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


def gradcheck_config(branches, seed, shared_alpha, hidden_dims, num_classes, input_dim):
    """SMALL with the fields that shape gradcheck's network, alpha and batch."""
    data = {"synthetic": {"num_classes": num_classes, "input_dim": input_dim,
                          "samples_per_class": 12}}
    return dict(SMALL, branches=branches, seed=seed, shared_alpha=shared_alpha,
                hidden_dims=hidden_dims, data=data, partition={"scheme": "dirichlet", "beta": 1.0})


def gradcheck(raw):
    """(exit code, stdout, report, (analytic, numeric) of each compared coordinate)."""
    reports, compared = [], []
    check, rel_err = nn.gradient_check, nn._rel_err
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn, "gradient_check",
                      lambda *args: reports.append(check(*args)) or reports[-1])
        patch.setattr(nn, "_rel_err", lambda a, n: compared.append((a, n)) or rel_err(a, n))
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["gradcheck", "--config", str(path)])
    (report,) = reports
    return code, out.getvalue(), report, compared


# configs whose gradcheck printed FAIL while it still compared the coordinates whose +-h
# straddle a ReLU kink: zero biases put a unit fed only by dead units exactly at 0
@pytest.mark.parametrize("shape", [(3, 2, True, [2, 2], 3, 3), (4, 0, False, [4, 4, 4], 4, 4),
                                   (1, 3, False, [5, 3], 2, 3), (4, 0, False, [4, 3, 5], 3, 4)])
def test_gradcheck_skips_the_coordinates_at_a_relu_kink(shape):
    code, out, report, _ = gradcheck(gradcheck_config(*shape))
    assert code == 0 and report.passed and report.skipped > 0
    assert f"skipped:           {report.skipped} coordinates at a ReLU kink\n" in out


def test_gradcheck_fails_a_group_whose_every_coordinate_is_skipped(monkeypatch):
    """A check that compared nothing does not pass."""
    monkeypatch.setattr(np, "array_equal", lambda *args: False)  # every coordinate a kink
    net, alpha = nn.init_network([3, 4, 2], 2, seed=0), nn.uniform_alpha(2, 2)
    report = nn.gradient_check(net, alpha, (np.ones((4, 3)), [0, 1, 0, 1]))
    assert report.skipped == 3 * 4 * 2 + 4 * 2 + 4 * 2 * 2 + 2 * 2 + 2 * 2
    assert report.w_error == report.alpha_error == np.inf and not report.passed


# gradcheck differences its losses in np.longdouble; where that is float64, the quotient
# rounds each loss to its last place, so at h = 1e-5 it resolves a gradient to about
# ulp(loss) / 2h, 1.1e-11 at a loss of 1.4; under the 1e-8 floor of the relative error
# that is 1.1e-3, over GRADCHECK_TOLERANCE.  With 64-bit mantissas it resolves 2000 times finer
EXTENDED = np.finfo(np.longdouble).eps < 1e-18
QUOTIENT_ROUNDING = 1e-10
MAX_SKIPPED_SHARE = 0.25  # measured: at most 0.20 of a draw's coordinates, 0.21 over 400 others


# a dead network on four balanced classes: the output biases' gradient is exactly 0,
# and a float64 quotient reads 2.2e-11
@example(raw=gradcheck_config(2, 0, True, [1, 1], 4, 1))
# a weight whose quotient's O(h**2) truncation at h = 1e-5 read 1.56e-4
@example(raw=gradcheck_config(1, 2, False, [1, 3, 2], 4, 3))
@settings(max_examples=120)
@given(raw=run_configs())
def test_gradcheck_passes_every_drawn_config(raw):
    """gradcheck skips at most MAX_SKIPPED_SHARE of the coordinates and says how many.
    With an extended longdouble every draw passes; where longdouble is float64, each
    coordinate it compares is within GRADCHECK_TOLERANCE, or differs by no more than the
    rounding of the quotient, which cannot resolve a gradient near 0."""
    code, out, report, compared = gradcheck(raw)
    assert code == (0 if report.passed else 1)
    assert report.skipped <= MAX_SKIPPED_SHARE * (report.skipped + len(compared))
    assert ("at a ReLU kink" in out) == (report.skipped > 0)
    over = [(a, n) for a, n in compared if nn._rel_err(a, n) > nn.GRADCHECK_TOLERANCE]
    if EXTENDED:
        assert report.passed and not over, over
    else:
        assert all(abs(a - n) <= QUOTIENT_ROUNDING for a, n in over), over


def spread(error, change, base) -> float:
    """The largest |error| over the largest |change|, or over 1e-5 of the largest |base|
    where the change is smaller: each SGD step rounds base by about 1e-16 of it, so the
    ~100 steps of a phase cannot resolve a smaller change to a relative 1e-9."""
    scale = max(np.abs(change).max(initial=0.0), 1e-5 * np.abs(base).max(initial=0.0))
    worst = np.abs(error).max(initial=0.0)
    return worst / scale if worst else 0.0


def rank_one_spreads(raw):
    """Every client's weight phase of raw's config at round 0, after its mixing phase.

    Each client's change to branch b of layer l should be alpha_ib * D_il, one D_il per
    layer, biases too; D_il is taken from the client's largest-alpha branch.  So an
    aggregation that weighs client i's branch b by n_i * a_ib (a = alpha under pfedmb, 1
    under plain weighting) should move it by sum_i n_i a_ib alpha_ib D_il / sum_i n_i a_ib.
    Returns the spread of each array from its law, or None where the partition, a phase
    or the aggregation fails."""
    config = ExperimentConfig(**raw, output_dir="unused")
    try:
        server, clients = fed.setup_experiment(config)
    except PartitionError:
        return None
    models = [client.current_model(server) for client in clients]
    alphas = mixing_results(clients, models, 0, config)
    trained = weight_results(clients, models, alphas, 0, config)
    if any(isinstance(result, NumericError) for result in trained):
        return None
    spreads, steps = [], []  # steps: per client, D_il of each layer's weights and biases
    for model, alpha, (net, _) in zip(models, alphas, trained):
        a, steps = alpha.values(), steps + [[]]
        for l, (old, new) in enumerate(zip(model.layers, net.layers)):
            top = a[l].argmax()
            for before, after in ((old.weights, new.weights), (old.biases, new.biases)):
                delta = after - before
                steps[-1].append(delta[top] / a[l, top])
                law = np.multiply.outer(a[l], steps[-1][-1])
                spreads.append(spread(delta - law, delta, before))
    strategy = fed.STRATEGY_FOR_METHOD[config.method]
    if strategy is None:  # `local` aggregates nothing
        return spreads
    updates = [fed.client_local_learning(*done) for done in zip(clients, trained, alphas)]
    new = fed.aggregate(updates, strategy, server.model)
    if not all(np.isfinite(layer.weights).all() for layer in new.layers):
        return None  # an overflowing aggregation, which the round's evaluation reports
    n = np.array([client.num_samples for client in clients], dtype=np.float64)
    for l, (old, agg) in enumerate(zip(server.model.layers, new.layers)):
        a = np.stack([update.alpha_values[l] for update in updates])  # (clients, B)
        weight = a if strategy is fed.AggregationStrategy.ALPHA_WEIGHTED else np.ones_like(a)
        mass = n @ weight
        live = mass >= fed.DEAD_BRANCH_FLOOR * n.sum()  # a dead branch keeps its value
        for k, (before, after) in enumerate(((old.weights, agg.weights),
                                             (old.biases, agg.biases))):
            d = np.stack([client_steps[2 * l + k] for client_steps in steps])
            moved = np.einsum("ib,i...->b...", n[:, None] * weight * a, d)
            want = before + moved / np.where(live, mass, 1.0).reshape(-1, *[1] * (d.ndim - 1))
            spreads.append(spread((after - want)[live], after - before, before))
    return spreads


@settings(max_examples=150)
@given(raw=run_configs())
def test_a_weight_phase_moves_each_branch_by_its_mixing_weight_times_one_step(raw):
    """The rank-one law of the weight phase, and the aggregation it implies: with alpha
    fixed, every step moves branch b by lr * alpha_ib times the one combined gradient, so
    pfedmb's server moves branch b by -lr sum_i n_i alpha_ib**2 G_il / sum_i n_i alpha_ib,
    where G_il sums client i's combined gradients of layer l."""
    spreads = rank_one_spreads(raw)
    assume(spreads is not None)
    assert max(spreads, default=0.0) <= 1e-9, spreads


@settings(max_examples=40)
@given(raw=run_configs())
def test_who_learns_from_whom_is_rebuilt_from_the_result_files(raw):
    """Criterion 9's measure: the coupling C that collaboration rebuilds from a run's files
    has rows that sum to 1, is the identity under `local`, and equals C from what the run's
    aggregate calls received (shard sizes, mixing weights and the sampled ids) within the
    files' 10-digit rounding; and each aggregate call returned the mix of its updates that
    C's shares describe."""
    config = ExperimentConfig(**raw, output_dir="unused")
    rounds = []  # per aggregated round: [sampled ids, updates, strategy, rule gap]
    sample, aggregate = fed.sample_clients, fed.aggregate

    def sample_spy(*args):
        rounds.append([sample(*args)])
        return rounds[-1][0]

    def aggregate_spy(updates, strategy, previous_global):
        aggregated = aggregate(updates, strategy, previous_global)
        gap = aggregation_gap(updates, strategy, previous_global, aggregated)
        rounds[-1] += [list(updates), strategy, gap]
        return aggregated

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fed, "sample_clients", sample_spy)
        patch.setattr(fed, "aggregate", aggregate_spy)
        try:
            result, _, clients = fed.run_experiment(config)
        except (PartitionError, NumericError):
            result = None
    assume(result is not None)
    with tempfile.TemporaryDirectory() as tmp:
        metrics.emit_results(result, tmp)
        rebuilt = collaboration(tmp)
    assert len(rebuilt) == config.rounds
    n = np.array([client.num_samples for client in clients], dtype=np.float64)
    for t, c in enumerate(rebuilt):
        assert np.abs(c.sum(axis=-1) - 1.0).max() <= 1e-12
        if fed.STRATEGY_FOR_METHOD[config.method] is None:
            assert not rounds and (c[:, :, :-1] == np.eye(len(n))).all()
            continue
        sampled, updates, strategy, gap = rounds[t]
        assert gap <= 1e-12, gap
        alpha, spied = np.array(result.alpha_trajectory[t]), n.copy()
        for cid, update in zip(sampled, updates):
            alpha[cid], spied[cid] = update.alpha_values, update.num_samples
        np.testing.assert_allclose(c, coupling(alpha, spied, sampled, strategy), rtol=0,
                                   atol=1e-9)
