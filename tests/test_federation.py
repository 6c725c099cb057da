"""Protocol mechanics: sampling, two-phase local learning, aggregation, rounds."""

import dataclasses
import gc
import importlib.util
import json
import os
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_config
from pfedmb import federation as fed
from pfedmb import metrics, nn
from pfedmb.data import LabeledDataset
from pfedmb.errors import NumericError, ParseError, PfedmbError, UsageError
from test_config import JSON_VALUES


def np_softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def tiny_client(seed=3, n=6, in_dim=2, classes=2, branches=2, client_id=0):
    rng = np.random.default_rng(seed)
    shard = LabeledDataset(
        rng.normal(size=(n, in_dim)), rng.integers(0, classes, size=n), classes
    )
    test = LabeledDataset(
        rng.normal(size=(4, in_dim)), rng.integers(0, classes, size=4), classes
    )
    alpha = nn.uniform_alpha(1, branches)
    return fed.ClientState(client_id, shard, test, alpha)


# -------------------------------------------------------------------- sampling

def test_sample_full_participation_is_everyone():
    assert fed.sample_clients(7, 5, 5, round_index=0) == [0, 1, 2, 3, 4]
    assert fed.sample_clients(7, 1, 1, round_index=3) == [0]


def test_sampling_is_replayable_and_varies_by_round():
    a0 = fed.sample_clients(42, 50, 10, 0)
    a1 = fed.sample_clients(42, 50, 10, 1)
    assert a0 != a1
    assert a0 == fed.sample_clients(42, 50, 10, 0)
    assert a1 == fed.sample_clients(42, 50, 10, 1)
    assert len(set(a0)) == 10 and all(0 <= i < 50 for i in a0)


# -------------------------------------------------------- local learning phases

def test_zero_learning_rates_are_a_no_op():
    client = tiny_client()
    model = nn.init_network([2, 2], 2, seed=1)
    before_alpha = client.alpha.logits.copy()
    cfg = make_config(local_epochs=3, lr_alpha=0.0, lr_w=0.0, batch_size=4, seed=3)
    update = fed.client_local_learning(client, model, 0, cfg)
    for got, want in zip(update.model.layers, model.layers):
        np.testing.assert_array_equal(got.weights, want.weights)
        np.testing.assert_array_equal(got.biases, want.biases)
    np.testing.assert_array_equal(client.alpha.logits, before_alpha)


def test_single_branch_matches_plain_local_sgd_bitwise():
    """With one branch the mixing phase is inert and phase 2 is plain SGD."""
    client = tiny_client(seed=5, n=10, in_dim=3, classes=3, branches=1)
    model = nn.init_network([3, 3], 1, seed=2)
    epochs, lr_w, batch_size = 2, 0.2, 4
    cfg = make_config(local_epochs=epochs, lr_alpha=0.7, lr_w=lr_w, batch_size=batch_size,
                      seed=5)
    update = fed.client_local_learning(client, model, 1, cfg)

    # plain SGD over the same batch order, written against bare numpy
    w = model.layers[0].weights[0].copy()
    b = model.layers[0].biases[0].copy()
    x, y = client.shard.features, client.shard.labels
    rng = np.random.default_rng(
        [cfg.seed, fed.CLIENT_STREAM, client.client_id, 1, fed.WEIGHT_PHASE]
    )
    for _ in range(epochs):
        perm = rng.permutation(len(x))
        for start in range(0, len(x), batch_size):
            idx = perm[start : start + batch_size]
            xb, yb = x[idx], y[idx]
            z = xb @ w.T + b
            shifted = z - z.max(axis=1, keepdims=True)
            dz = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
            dz[np.arange(len(yb)), yb] -= 1.0
            dz /= len(yb)
            w = w - lr_w * (dz.T @ xb)
            b = b - lr_w * dz.sum(axis=0)

    np.testing.assert_array_equal(update.model.layers[0].weights[0], w)
    np.testing.assert_array_equal(update.model.layers[0].biases[0], b)
    np.testing.assert_array_equal(client.alpha.values(), [[1.0]])


def test_two_phase_single_step_matches_hand_oracle():
    """E=1, one full batch, one layer: walk the two updates by hand."""
    rng = np.random.default_rng(11)
    w = rng.normal(size=(2, 2, 2))
    bias = rng.normal(size=(2, 2))
    x = rng.normal(size=(3, 2))
    y = np.array([0, 1, 1])
    lr_a, lr_w = 0.3, 0.2

    client = tiny_client(seed=9, n=3, branches=2)
    client.shard = LabeledDataset(x, y, 2)
    client.alpha = nn.AlphaParams(np.array([[0.4, -0.1]]), 1)
    model = nn.Network([nn.MultiBranchDense(w.copy(), bias.copy())])
    cfg = make_config(local_epochs=1, lr_alpha=lr_a, lr_w=lr_w, batch_size=8, seed=9)
    update = fed.client_local_learning(client, model, 0, cfg)

    def ce_dz(weights, biases, mix):
        wc = mix[0] * weights[0] + mix[1] * weights[1]
        bc = mix[0] * biases[0] + mix[1] * biases[1]
        z = x @ wc.T + bc
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        dz = p.copy()
        dz[np.arange(3), y] -= 1.0
        return dz / 3.0

    # mixing step with branches frozen
    logits = np.array([0.4, -0.1])
    mix = np_softmax(logits)
    dz = ce_dz(w, bias, mix)
    d_mix = np.array(
        [np.sum(dz * (x @ w[k].T + bias[k])) for k in range(2)]
    )
    d_logits = mix * (d_mix - mix @ d_mix)
    logits2 = logits - lr_a * d_logits

    # branch step with the new mixing frozen
    mix2 = np_softmax(logits2)
    dz = ce_dz(w, bias, mix2)
    dw_combined = dz.T @ x
    db_combined = dz.sum(axis=0)
    w2 = np.stack([w[k] - lr_w * mix2[k] * dw_combined for k in range(2)])
    b2 = np.stack([bias[k] - lr_w * mix2[k] * db_combined for k in range(2)])

    np.testing.assert_allclose(client.alpha.logits[0], logits2, rtol=1e-12)
    np.testing.assert_allclose(update.model.layers[0].weights, w2, rtol=1e-11)
    np.testing.assert_allclose(update.model.layers[0].biases, b2, rtol=1e-11)
    np.testing.assert_allclose(update.alpha_values[0], mix2, rtol=1e-12)


def test_local_learning_persists_alpha_and_copies_model():
    client = tiny_client(seed=13, classes=2, branches=3)
    client.alpha = nn.uniform_alpha(1, 3)
    model = nn.init_network([2, 2], 3, seed=4)
    w_before = model.layers[0].weights.copy()
    cfg = make_config(local_epochs=2, lr_alpha=0.5, lr_w=0.1, batch_size=4, seed=13)
    update = fed.client_local_learning(client, model, 0, cfg)
    np.testing.assert_array_equal(model.layers[0].weights, w_before)
    assert np.any(client.alpha.logits != 0.0)
    np.testing.assert_array_equal(update.alpha_values, client.alpha.values())


# ------------------------------------------------------------------ aggregation

def fake_update(n, weights, biases, alpha_values):
    model = nn.Network([nn.MultiBranchDense(weights, biases)])
    return fed.ClientUpdate(n, model, np.asarray(alpha_values, dtype=float))


def random_updates(rng, num_clients=3, branches=2, dim=2):
    ups = []
    for _ in range(num_clients):
        ups.append(
            fake_update(
                int(rng.integers(1, 50)),
                rng.normal(size=(branches, dim, dim)),
                rng.normal(size=(branches, dim)),
                rng.dirichlet(np.ones(branches))[None, :],
            )
        )
    return ups


def previous_global(branches=2, dim=2):
    return nn.Network(
        [nn.MultiBranchDense(np.zeros((branches, dim, dim)), np.zeros((branches, dim)))]
    )


def test_alpha_weighted_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        ups = random_updates(rng)
        got = fed.aggregate(ups, fed.AggregationStrategy.ALPHA_WEIGHTED, previous_global())
        for b in range(2):
            num_w = sum(
                u.num_samples * u.alpha_values[0, b] * u.model.layers[0].weights[b]
                for u in ups
            )
            num_b = sum(
                u.num_samples * u.alpha_values[0, b] * u.model.layers[0].biases[b]
                for u in ups
            )
            den = sum(u.num_samples * u.alpha_values[0, b] for u in ups)
            np.testing.assert_allclose(got.layers[0].weights[b], num_w / den, rtol=1e-12)
            np.testing.assert_allclose(got.layers[0].biases[b], num_b / den, rtol=1e-12)


def test_identical_alphas_reduce_to_plain_averaging():
    rng = np.random.default_rng(19)
    shared = rng.dirichlet(np.ones(2))[None, :]
    ups = random_updates(rng)
    for u in ups:
        u.alpha_values = shared.copy()
    a = fed.aggregate(ups, fed.AggregationStrategy.ALPHA_WEIGHTED, previous_global())
    p = fed.aggregate(ups, fed.AggregationStrategy.PLAIN_WEIGHTED, previous_global())
    for la, lp in zip(a.layers, p.layers):
        np.testing.assert_allclose(la.weights, lp.weights, rtol=1e-12)
        np.testing.assert_allclose(la.biases, lp.biases, rtol=1e-12)


def test_degenerate_weighting_returns_the_attentive_client():
    w = np.stack([np.full((1, 2, 2), 3.0), np.full((1, 2, 2), -1.0)]).reshape(2, 2, 2)
    ups = [
        fake_update(10, np.full((2, 2, 2), 3.0), np.ones((2, 2)), [[1.0, 0.0]]),
        fake_update(10, np.full((2, 2, 2), -1.0), -np.ones((2, 2)), [[1e-15, 1.0]]),
    ]
    got = fed.aggregate(ups, fed.AggregationStrategy.ALPHA_WEIGHTED, previous_global())
    np.testing.assert_allclose(got.layers[0].weights[0], 3.0, rtol=1e-9)
    np.testing.assert_allclose(got.layers[0].weights[1], -1.0, rtol=1e-9)


def test_underflowed_branch_keeps_previous_global_value():
    prev = previous_global()
    prev.layers[0].weights[1] = 7.0
    ups = [
        fake_update(5, np.ones((2, 2, 2)), np.zeros((2, 2)), [[1.0, 0.0]]),
        fake_update(5, np.ones((2, 2, 2)), np.zeros((2, 2)), [[1.0, 0.0]]),
    ]
    got = fed.aggregate(ups, fed.AggregationStrategy.ALPHA_WEIGHTED, prev)
    np.testing.assert_array_equal(got.layers[0].weights[1], prev.layers[0].weights[1])
    np.testing.assert_allclose(got.layers[0].weights[0], 1.0, rtol=1e-12)


def test_aggregate_convexity_and_scale_invariance():
    rng = np.random.default_rng(23)
    for _ in range(50):
        ups = random_updates(rng, num_clients=4)
        for strategy in fed.AggregationStrategy:
            for b in range(2):
                if strategy is fed.AggregationStrategy.ALPHA_WEIGHTED:
                    coeffs = np.array(
                        [u.num_samples * u.alpha_values[0, b] for u in ups]
                    )
                else:
                    coeffs = np.array([float(u.num_samples) for u in ups])
                frac = coeffs / coeffs.sum()
                assert frac.min() >= 0.0
                assert abs(frac.sum() - 1.0) <= 1e-12
            base = fed.aggregate(ups, strategy, previous_global())
            scaled_ups = [
                dataclasses.replace(u, num_samples=u.num_samples * 13) for u in ups
            ]
            scaled = fed.aggregate(scaled_ups, strategy, previous_global())
            for lb, ls in zip(base.layers, scaled.layers):
                np.testing.assert_allclose(lb.weights, ls.weights, rtol=1e-12)


def test_aggregate_rejects_empty_and_mismatched():
    with pytest.raises(UsageError):
        fed.aggregate([], fed.AggregationStrategy.PLAIN_WEIGHTED, previous_global())


def aggregate_oracle(updates, alpha_weighted, prev_layers):
    """The aggregation loop in numpy only: layer-outer, first update assigned, then +=.

    updates are (n, [(weights, biases) per layer], alpha rows); returns
    [(weights, biases) per layer].
    """
    total = float(sum(n for n, _, _ in updates))
    out = []
    for l, (prev_w, prev_b) in enumerate(prev_layers):
        denom = w_acc = b_acc = None
        for n, layers, alphas in updates:
            coeffs = n * alphas[l] if alpha_weighted else np.full(len(prev_w), float(n))
            w = coeffs[:, None, None] * layers[l][0]
            b = coeffs[:, None] * layers[l][1]
            if denom is None:
                denom, w_acc, b_acc = coeffs, w, b
            else:
                denom = denom + coeffs
                w_acc += w
                b_acc += b
        dead = denom < 1e-12 * total
        safe = np.where(dead, 1.0, denom)
        out.append((np.where(dead[:, None, None], prev_w, w_acc / safe[:, None, None]),
                    np.where(dead[:, None], prev_b, b_acc / safe[:, None])))
    return out


@pytest.mark.parametrize("strategy", list(fed.AggregationStrategy), ids=lambda s: s.name)
@pytest.mark.parametrize("branches, dims", [
    (5, (20, 32, 10)),           # paired_paper
    (4, (64, 128, 20)),          # dirichlet_ragged
    (8, (32, 64, 64, 64, 10)),   # deep_server
], ids=["paired_paper", "dirichlet_ragged", "deep_server"])
def test_aggregate_equals_the_layer_outer_loop_bit_for_bit(strategy, branches, dims):
    """Every byte of the aggregate, for 1 to 25 updates, dead branches included."""
    rng = np.random.default_rng(branches)
    shapes = list(zip(dims[1:], dims[:-1]))
    prev = [(rng.normal(size=(branches, o, i)), rng.normal(size=(branches, o)))
            for o, i in shapes]
    dead_branch = int(rng.integers(branches))
    updates = []
    for _ in range(25):
        alphas = rng.dirichlet(np.ones(branches), size=len(shapes))
        alphas[rng.random(alphas.shape) < 0.2] = 0.0  # softmax underflow gives exact zeros
        alphas[:, dead_branch] = 0.0  # no mass anywhere: the floor keeps prev
        layers = [(rng.normal(size=(branches, o, i)), rng.normal(size=(branches, o)))
                  for o, i in shapes]
        updates.append((int(rng.integers(1, 200)), layers, alphas))
    previous = nn.Network([nn.MultiBranchDense(w, b) for w, b in prev])
    alpha_weighted = strategy is fed.AggregationStrategy.ALPHA_WEIGHTED
    for count in range(1, len(updates) + 1):
        taken = updates[:count]
        got = fed.aggregate(
            [fed.ClientUpdate(n, nn.Network([nn.MultiBranchDense(w, b) for w, b in layers]),
                              alphas) for n, layers, alphas in taken],
            strategy, previous,
        )
        want = aggregate_oracle(taken, alpha_weighted, prev)
        for layer, (w, b) in zip(got.layers, want, strict=True):
            for got_arr, want_arr in ((layer.weights, w), (layer.biases, b)):
                assert got_arr.shape == want_arr.shape
                assert got_arr.tobytes() == want_arr.tobytes(), f"{count} updates"
        if alpha_weighted:
            assert got.layers[0].weights[dead_branch].tobytes() == prev[0][0][dead_branch].tobytes()


def test_the_bench_counts_floor_hits_at_the_aggregation_floor():
    """bench/tracer.py repeats the floor to count hits; it must be the program's."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.AGGREGATE_FLOOR == fed.DEAD_BRANCH_FLOOR


# ------------------------------------------------------------------- round loop

def test_single_client_round_equals_local_training(config_factory):
    cfg = config_factory(
        clients=1, sample_size=1, rounds=1, branches=1,
        partition={"scheme": "random_k_classes", "k": 4},
    )
    server, clients, reports = fed.run_training(cfg)
    assert server.round == 1 and len(reports) == 1

    fresh_server, fresh_clients = fed.setup_experiment(cfg)
    update = fed.client_local_learning(fresh_clients[0], fresh_server.model, 0, cfg)
    for got, want in zip(server.model.layers, update.model.layers):
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-14)
        np.testing.assert_allclose(got.biases, want.biases, rtol=1e-14)


def test_zero_learning_rates_leave_global_params_unchanged(config_factory):
    cfg = config_factory(lr_alpha=0.0, lr_w=0.0, rounds=1)
    server, clients = fed.setup_experiment(cfg)
    before = [layer.weights.copy() for layer in server.model.layers]
    fed.run_round(server, clients, cfg)
    for layer, want in zip(server.model.layers, before):
        np.testing.assert_allclose(layer.weights, want, rtol=1e-13)


def test_nonsampled_clients_keep_alpha_bitwise(config_factory):
    cfg = config_factory(clients=4, sample_size=2, rounds=1, seed=5)
    server, clients = fed.setup_experiment(cfg)
    before = [c.alpha.logits.copy() for c in clients]
    report = fed.run_round(server, clients, cfg)
    assert len(report.sampled) == 2
    for i, c in enumerate(clients):
        if i in report.sampled:
            assert np.any(c.alpha.logits != before[i])
        else:
            np.testing.assert_array_equal(c.alpha.logits, before[i])


def test_training_replay_is_bit_identical(config_factory):
    cfg = config_factory(clients=4, sample_size=3, rounds=3, seed=42)
    s1, c1, r1 = fed.run_training(cfg)
    s2, c2, r2 = fed.run_training(cfg)
    for la, lb in zip(s1.model.layers, s2.model.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.biases, lb.biases)
    for a, b in zip(c1, c2):
        np.testing.assert_array_equal(a.alpha.logits, b.alpha.logits)
    assert [r.sampled for r in r1] == [r.sampled for r in r2]
    assert [r.train_losses for r in r1] == [r.train_losses for r in r2]


def test_thread_count_does_not_change_results(config_factory):
    cfg1 = config_factory(rounds=2, threads=1)
    cfg4 = config_factory(rounds=2, threads=4)
    s1, _, r1 = fed.run_training(cfg1)
    s4, _, r4 = fed.run_training(cfg4)
    for la, lb in zip(s1.model.layers, s4.model.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
    assert [r.test_accuracies for r in r1] == [r.test_accuracies for r in r4]


def test_b1_training_equals_fedavg_baseline_bitwise(config_factory):
    cfg = config_factory(branches=1, rounds=3, clients=4, sample_size=4)
    s_mb, c_mb, _ = fed.run_training(cfg)
    s_fa, c_fa, _ = fed.run_training(config_factory(
        method="fedavg", branches=1, rounds=3, clients=4, sample_size=4
    ))
    for la, lb in zip(s_mb.model.layers, s_fa.model.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.biases, lb.biases)
    for a, b in zip(c_mb, c_fa):
        np.testing.assert_array_equal(a.alpha.logits, b.alpha.logits)


def test_a_single_branch_run_skips_the_mixing_phase(config_factory, monkeypatch):
    """With one branch the logit gradient is exactly zero, so no "alpha" call is made."""
    groups = []
    kernel = nn.loss_and_grads

    def spy(net, alpha, batch, wrt):
        groups.append(wrt)
        return kernel(net, alpha, batch, wrt)

    monkeypatch.setattr(nn, "loss_and_grads", spy)
    fed.run_experiment(config_factory(method="fedavg", branches=1))
    assert groups and set(groups) == {nn.WRT_W}


@pytest.mark.parametrize("layer,alternate,message", [
    # client 0's features keep its layer-0 sums finite; client 1 is the first to fail
    (0, False, "client 1, round 0, mixing phase, epoch 0: non-finite activations in layer 0"),
    (1, True, "client 0, round 0, mixing phase, epoch 1: non-finite activations in layer 1"),
])
def test_a_diverging_mixing_phase_names_the_lowest_failing_client(
        config_factory, layer, alternate, message):
    """Every sampled client mixes the same server branches; one branch at +-1e308
    overflows the forward pass, and the round raises the first failing client's
    located error."""
    cfg = config_factory()
    server, clients = fed.setup_experiment(cfg)
    weights = server.model.layers[layer].weights
    sign = np.where(np.indices(weights[1].shape).sum(axis=0) % 2, 1.0, -1.0) if alternate else 1.0
    weights[1] = 1e308 * sign
    with pytest.raises(NumericError) as raised:
        fed.run_round(server, clients, cfg)
    assert str(raised.value) == message


def diverge_mixing(method, server, clients):
    """Make a later client's mixing phase fail; returns its id.

    Under `local` client 2's own branch 1 is set to 1e308.  Otherwise the server's
    branch 1 of layer 0 is: client 0's mixing phase survives it, client 1's does not.
    """
    if method == "local":
        clients[2].local_model.layers[0].weights[1] = 1e308
        return 2
    server.model.layers[0].weights[1] = 1e308
    return 1


@pytest.mark.parametrize("method,overrides,message", [
    ("pfedmb", dict(lr_w=1e200),
     "client 0, round 0, weight phase, epoch 0: non-finite activations in layer 1"),
    ("local", dict(lr_w=1e300, local_epochs=1, batch_size=1000),
     "client 0, round 0, train loss: non-finite activations in layer 1"),
])
def test_an_earlier_clients_failure_is_raised_before_a_later_mixing_failure(
        config_factory, method, overrides, message):
    """Clients fail in canonical order: client 0's weight phase or train loss, under
    a huge lr_w, is raised although a later client's mixing phase fails too."""
    cfg = config_factory(method=method, **overrides)
    server, clients = fed.setup_experiment(cfg)
    later = diverge_mixing(method, server, clients)
    with pytest.raises(NumericError, match=f"^client {later}, round 0, mixing phase, epoch 0: "):
        fed.client_local_learning(clients[later], clients[later].current_model(server), 0, cfg)

    server, clients = fed.setup_experiment(cfg)
    diverge_mixing(method, server, clients)
    with pytest.raises(NumericError) as raised:
        fed.run_round(server, clients, cfg)
    assert str(raised.value) == message


def dirichlet_shaped_clients(shared, rows=None):
    """25 clients and a 64-128-20 network of 4 branches: the dirichlet_ragged bench shapes.

    Shards hold `rows` rows each, or from 20 to 199.
    """
    rng = np.random.default_rng(5)
    model = nn.init_network([64, 128, 20], 4, seed=5)
    clients = []
    for cid in range(25):
        n = rows or int(rng.integers(20, 200))
        shard = LabeledDataset(rng.normal(size=(n, 64)), rng.integers(0, 20, size=n), 20)
        alpha = nn.AlphaParams(rng.normal(size=(1 if shared else 2, 4)), 2, shared)
        clients.append(fed.ClientState(cid, shard, shard, alpha))
    return model, clients


@pytest.mark.parametrize("shared", [False, True])
def test_lockstep_mixing_equals_one_client_per_call_at_bench_shapes(monkeypatch, shared):
    """Chunked, unchunked and one-client stacks train every client's logits to the same bits;
    ragged shards make batches of several lengths in one step."""
    model, clients = dirichlet_shaped_clients(shared)
    cfg = make_config(local_epochs=2, batch_size=64, lr_alpha=1.0)
    stacks, kernel = [], nn.loss_and_grads

    def spy(net, alpha, batch, wrt):
        stacks.append(len(alpha.logits) if alpha.logits.ndim == 3 else 1)
        return kernel(net, alpha, batch, wrt)

    runs, default = [], fed.MIXING_STACK_BYTES
    for budget in (default, 0, sys.maxsize):
        monkeypatch.setattr(fed, "MIXING_STACK_BYTES", budget)
        with monkeypatch.context() as patch:
            patch.setattr(nn, "loss_and_grads", spy)
            runs.append(fed.mixing_phase(clients, [model] * len(clients), 0, cfg))
        if budget == default:  # full batches are split into several chunks
            assert 1 < max(stacks) < len(clients)
        stacks.clear()
    for client, *alphas in zip(clients, *runs):
        assert np.any(alphas[0].logits != client.alpha.logits)
        for alpha in alphas[1:]:
            np.testing.assert_array_equal(alpha.logits, alphas[0].logits)


def test_a_lockstep_mixing_step_peaks_near_its_stack_budget():
    """One step of 25 clients at dirichlet_ragged shapes: stacked whole, its arrays
    would peak near 9 MB; in chunks of MIXING_STACK_BYTES they stay near 2 MB."""
    model, clients = dirichlet_shaped_clients(False, rows=64)
    cfg = make_config(local_epochs=1, batch_size=64)
    fed.mixing_phase(clients, [model] * len(clients), 0, cfg)
    tracemalloc.start()
    try:
        fed.mixing_phase(clients, [model] * len(clients), 0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * fed.MIXING_STACK_BYTES, peak


def run_keeping_fine_tuned(monkeypatch, config):
    """run_experiment's (result, server, clients) plus the network that each
    fine_tune call returned, in call order."""
    networks = []
    fine_tune = fed.fine_tune

    def spy(client, model, cfg):
        networks.append(fine_tune(client, model, cfg))
        return networks[-1]

    with monkeypatch.context() as patch:
        patch.setattr(fed, "fine_tune", spy)
        return (*fed.run_experiment(config), networks)


def assert_same_networks(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)


def test_partial_participation_experiment_end_to_end(config_factory, monkeypatch):
    cfg = config_factory(
        clients=6, sample_size=2, rounds=4, seed=21,
        partition={"scheme": "dirichlet", "beta": 0.6},
    )
    result, server, clients, personalized = run_keeping_fine_tuned(monkeypatch, cfg)
    assert len(result.per_round_mean_test_accuracy) == 4
    assert len(result.final_client_accuracies) == 6
    assert len(personalized) == 6
    assert all(0.0 <= a <= 1.0 for a in result.final_client_accuracies)
    # trajectory snapshots cover every client every round
    assert all(snap.shape == (6, 2, 2) for snap in result.alpha_trajectory)

    replay, _, _, again = run_keeping_fine_tuned(monkeypatch, cfg)
    assert replay.final_client_accuracies == result.final_client_accuracies
    assert replay.config_fingerprint == result.config_fingerprint
    assert_same_networks(again, personalized)


def test_experiment_holds_one_fine_tuned_network_at_a_time(config_factory, monkeypatch):
    cfg = config_factory(sample_size=2, rounds=1)
    refs = []
    fine_tune = fed.fine_tune

    def spy(client, model, config):
        gc.collect()
        assert [i for i, ref in enumerate(refs) if ref() is not None] == []
        network = fine_tune(client, model, config)
        refs.append(weakref.ref(network))
        return network

    monkeypatch.setattr(fed, "fine_tune", spy)
    result = fed.run_experiment(cfg)
    gc.collect()
    assert len(refs) == cfg.clients
    assert [i for i, ref in enumerate(refs) if ref() is not None] == []
    assert len(result[0].final_client_accuracies) == cfg.clients


def test_training_t0_returns_initial_state(config_factory):
    cfg = config_factory(rounds=0)
    server, clients, reports = fed.run_training(cfg)
    assert reports == []
    assert server.round == 0
    fresh, _ = fed.setup_experiment(cfg)
    for la, lb in zip(server.model.layers, fresh.model.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)


# -------------------------------------------------------- baselines & fine-tune

def test_fedavg_single_client_equals_local_only(monkeypatch):
    # power-of-two shard size keeps single-update aggregation exact
    data = {"synthetic": {"num_classes": 2, "input_dim": 3,
                          "noise_std": 0.6, "samples_per_class": 48}}
    part = {"scheme": "random_k_classes", "k": 2}
    from conftest import make_config

    common = dict(clients=1, sample_size=1, branches=1, rounds=2,
                  data=data, partition=part, seed=3)
    r_fa, s_fa, cl_fa, p_fa = run_keeping_fine_tuned(
        monkeypatch, make_config(method="fedavg", **common)
    )
    r_lo, s_lo, cl_lo, p_lo = run_keeping_fine_tuned(
        monkeypatch, make_config(method="local", **common)
    )
    assert cl_fa[0].num_samples == 64
    assert_same_networks(p_fa, p_lo)
    assert r_fa.final_client_accuracies == r_lo.final_client_accuracies


def test_local_only_clients_are_isolated(config_factory):
    """Perturbing one client's shard leaves every other client's model alone.

    The hand loop below is the reference for local-only training, and the
    library's round loop must match it bit for bit: every client trains every
    round, even when sample_size asks for fewer.
    """
    cfg = config_factory(method="local", rounds=2, sample_size=2)

    def run_with(perturb_client):
        server, clients = fed.setup_experiment(cfg)
        if perturb_client is not None:
            c = clients[perturb_client]
            c.shard = LabeledDataset(
                c.shard.features + 1.0, c.shard.labels, c.shard.num_classes
            )
        models = [server.model.copy() for _ in clients]
        for t in range(cfg.rounds):
            for i, client in enumerate(clients):
                update = fed.client_local_learning(client, models[i], t, cfg)
                models[i] = update.model
        return models

    base = run_with(None)
    poked = run_with(3)

    _, lib_clients, reports = fed.run_training(cfg)
    assert [r.sampled for r in reports] == [list(range(cfg.clients))] * cfg.rounds
    for want, client in zip(base, lib_clients):
        for la, lb in zip(want.layers, client.local_model.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)

    for i in range(3):
        for la, lb in zip(base[i].layers, poked[i].layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
    assert any(
        np.any(la.weights != lb.weights)
        for la, lb in zip(base[3].layers, poked[3].layers)
    )


def test_zero_rounds_plus_fine_tune_is_pure_local_training(config_factory, monkeypatch):
    cfg = config_factory(method="local", rounds=0, local_epochs=4)
    result, server, clients, personalized = run_keeping_fine_tuned(monkeypatch, cfg)
    assert result.per_round_mean_test_accuracy == []

    fresh_server, fresh_clients = fed.setup_experiment(cfg)
    assert_same_networks(personalized, [
        fed.client_local_learning(fresh, fresh_server.model, 0, cfg).model
        for fresh in fresh_clients
    ])


def test_fine_tune_zero_rates_is_identity(config_factory):
    cfg = config_factory(rounds=1)
    server, clients, _ = fed.run_training(cfg)
    before = clients[0].alpha.logits.copy()
    model = fed.fine_tune(clients[0], server.model,
                          dataclasses.replace(cfg, local_epochs=2, lr_alpha=0.0, lr_w=0.0))
    for got, want in zip(model.layers, server.model.layers):
        np.testing.assert_array_equal(got.weights, want.weights)
    np.testing.assert_array_equal(clients[0].alpha.logits, before)


def test_fine_tune_improves_train_accuracy_on_separable_shard():
    rng = np.random.default_rng(31)
    x = np.concatenate([rng.normal(-2.0, 0.3, size=(20, 2)),
                        rng.normal(2.0, 0.3, size=(20, 2))])
    y = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
    shard = LabeledDataset(x, y, 2)
    client = fed.ClientState(0, shard, shard, nn.uniform_alpha(1, 2))
    model = nn.init_network([2, 2], 2, seed=8)

    from pfedmb.metrics import evaluate_client

    before = evaluate_client(model, client.alpha, shard)
    cfg = make_config(rounds=0, local_epochs=5, lr_alpha=0.1, lr_w=0.1, batch_size=16, seed=1)
    tuned = fed.fine_tune(client, model, cfg)
    after = evaluate_client(tuned, client.alpha, shard)
    assert after >= before
    assert after == 1.0


# ------------------------------------------------------------------ checkpoints

SCHEMA_3_KEYS = {"schema_version", "config_fingerprint", "round",
                 "global_weights", "global_biases", "clients"}


def _fingerprint(cfg):
    return metrics.config_fingerprint(cfg.semantic_dict())


def _assert_same_state(got_server, got_clients, want_server, want_clients):
    assert got_server.round == want_server.round
    models = [(got_server.model, want_server.model)] + [
        (a.local_model, b.local_model) for a, b in zip(got_clients, want_clients)
        if b.local_model is not None
    ]
    for got, want in models:
        for la, lb in zip(got.layers, want.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)
    for a, b in zip(got_clients, want_clients):
        np.testing.assert_array_equal(a.alpha.logits, b.alpha.logits)
        assert (a.local_model is None) == (b.local_model is None)


@pytest.mark.parametrize("method", ["pfedmb", "pfedmb_plain_agg", "fedavg", "local"])
def test_checkpoint_resume_is_bit_exact(tmp_path, config_factory, method):
    """Saved after any k of T rounds and resumed, a run ends bit-equal to a straight one."""
    cfg = config_factory(method=method, branches=1 if method == "fedavg" else 2,
                         rounds=4, clients=4, sample_size=3, seed=17)
    server, clients, _ = fed.run_training(cfg)
    path = tmp_path / "ckpt.json"

    part_server, part_clients, _ = fed.run_training(dataclasses.replace(cfg, rounds=0))
    for k in range(cfg.rounds + 1):
        fed.save_checkpoint(part_server, part_clients, cfg, path)
        doc = json.loads(path.read_text())
        assert set(doc) == SCHEMA_3_KEYS
        assert doc["round"] == k and doc["config_fingerprint"] == _fingerprint(cfg)
        assert all(set(c) == {"alpha_logits", "local_model"} for c in doc["clients"])

        resumed_server, resumed_clients = fed.load_checkpoint(path, cfg)
        for _ in range(cfg.rounds - k):
            fed.run_round(resumed_server, resumed_clients, cfg)
        _assert_same_state(resumed_server, resumed_clients, server, clients)
        assert all((c.local_model is None) == (method != "local") for c in resumed_clients)
        if k < cfg.rounds:
            fed.run_round(part_server, part_clients, cfg)


def _assert_no_shared_memory(server, clients):
    layers = list(server.model.layers)
    for c in clients:
        layers += [] if c.local_model is None else c.local_model.layers
    arrays = ([l.weights for l in layers] + [l.biases for l in layers]
              + [c.alpha.logits for c in clients])
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


@pytest.mark.parametrize("method, shared_alpha", [("local", False), ("pfedmb", True)])
def test_checkpoint_restores_into_unshared_arrays(tmp_path, config_factory, method, shared_alpha):
    cfg = config_factory(method=method, shared_alpha=shared_alpha, rounds=2)
    server, clients, _ = fed.run_training(cfg)
    path = tmp_path / "ckpt.json"
    fed.save_checkpoint(server, clients, cfg, path)
    resumed_server, resumed_clients = fed.load_checkpoint(path, cfg)
    _assert_same_state(resumed_server, resumed_clients, server, clients)
    _assert_no_shared_memory(resumed_server, resumed_clients)


def test_local_setup_gives_each_client_its_own_branches(config_factory, tmp_path):
    cfg = config_factory(method="local")
    server, clients = fed.setup_experiment(cfg)
    for client in clients:
        for mine, initial in zip(client.local_model.layers, server.model.layers):
            np.testing.assert_array_equal(mine.weights, initial.weights)
            np.testing.assert_array_equal(mine.biases, initial.biases)
    _assert_no_shared_memory(server, clients)
    # and a local checkpoint needs every client's branches
    path = tmp_path / "ckpt.json"
    fed.save_checkpoint(server, clients, cfg, path)
    doc = json.loads(path.read_text())
    doc["clients"][2]["local_model"] = None
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"clients\[2\]\.local_model: expected a JSON object"):
        fed.load_checkpoint(path, cfg)


@pytest.mark.parametrize("saved, resumed", [
    (dict(seed=17), dict(seed=3, lr_w=0.5)),
    (dict(seed=17), dict(seed=17, method="pfedmb_plain_agg")),
    (dict(method="local"), dict(method="pfedmb")),
], ids=["seed_and_lr_w", "plain_agg", "local_to_pfedmb"])
def test_resume_under_another_config_names_both_fingerprints(
    tmp_path, config_factory, saved, resumed
):
    cfg = config_factory(**saved)
    other = config_factory(**resumed)
    server, clients, _ = fed.run_training(dataclasses.replace(cfg, rounds=1))
    path = tmp_path / "ckpt.json"
    fed.save_checkpoint(server, clients, cfg, path)
    with pytest.raises(ParseError) as err:
        fed.load_checkpoint(path, other)
    for part in (str(path), "config_fingerprint", _fingerprint(cfg), _fingerprint(other)):
        assert part in str(err.value)
    # threads and output_dir do not enter the fingerprint
    resumed_server, resumed_clients = fed.load_checkpoint(
        path, dataclasses.replace(cfg, threads=2, output_dir="elsewhere")
    )
    _assert_same_state(resumed_server, resumed_clients, server, clients)


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_failed_checkpoint_write_keeps_the_earlier_file(
    tmp_path, config_factory, monkeypatch, failing
):
    cfg = config_factory(rounds=1)
    server, clients, _ = fed.run_training(cfg)
    path = tmp_path / "ckpt.json"
    fed.save_checkpoint(server, clients, cfg, path)
    earlier = path.read_bytes()
    fed.run_round(server, clients, cfg)

    def disk_full(*args):
        raise OSError("disk full")

    with monkeypatch.context() as patch, pytest.raises(OSError, match="disk full"):
        patch.setattr(os, failing, disk_full)
        fed.save_checkpoint(server, clients, cfg, path)
    assert path.read_bytes() == earlier
    assert list(tmp_path.iterdir()) == [path]


def _drop_round(doc):
    del doc["round"]
    return doc


def _drop_client_alpha(doc):
    del doc["clients"][1]["alpha_logits"]
    return doc


def _drop_last_client(doc):
    del doc["clients"][-1]
    return doc


def _give_client_own_branches(doc):
    doc["clients"][1]["local_model"] = {
        "weights": doc["global_weights"], "biases": doc["global_biases"]
    }
    return doc


def _put(*keys, value):
    """A damage that sets doc[k0][k1]... to value."""
    def damage(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return doc
    return damage


MALFORMED_CONFIG = make_config(rounds=1)
OTHER_FINGERPRINT = _fingerprint(make_config(rounds=1, seed=17))

MALFORMED = {
    "no_round": (_drop_round, "missing key 'round'"),
    "client_without_alpha_logits": (_drop_client_alpha, "missing key 'alpha_logits'"),
    "top_level_list": (lambda doc: [1, 2], "top level must be a JSON object"),
    "schema_1": (_put("schema_version", value=1), "schema_version: unsupported"),
    "schema_2": (_put("schema_version", value=2),
                 "schema_version: unsupported checkpoint schema, expected 3, got 2"),
    "other_fingerprint": (
        _put("config_fingerprint", value=OTHER_FINGERPRINT),
        f"config_fingerprint: written under config {OTHER_FINGERPRINT!r}, "
        f"not under this config {_fingerprint(MALFORMED_CONFIG)!r}",
    ),
    "round_str": (_put("round", value="x"), "round: expected an int"),
    "round_negative": (_put("round", value=-3), "round: expected an int in [0, 1]"),
    "round_past_config": (_put("round", value=2), "round: expected an int in [0, 1], got 2"),
    "nan_weight": (_put("global_weights", 0, 0, 0, 0, value=float("nan")),
                   "global_weights[0]: expected a 3-D array of finite numbers"),
    "ragged_weights": (_put("global_weights", 0, 0, value=[[1.0], [1.0, 2.0]]),
                       "global_weights[0]: expected a 3-D array"),
    "other_config_weights": (_put("global_weights", 0, value=np.zeros((2, 9, 5)).tolist()),
                             "global_weights[0]: expected shape (2, 8, 5)"),
    "bias_shape": (_put("global_biases", 0, value=[[0.0]]),
                   "global_biases[0]: expected shape (2, 8)"),
    "clients_null": (_put("clients", value=None), "clients: expected a list"),
    "client_count": (_drop_last_client, "clients: expected a list of 4"),
    "client_int": (_put("clients", 0, value=5), "clients[0]: expected a JSON object"),
    "alpha_non_numeric": (_put("clients", 1, "alpha_logits", value=[["a", "b"], [0, 0]]),
                          "clients[1].alpha_logits: expected a 2-D array"),
    "alpha_shape": (_put("clients", 1, "alpha_logits", value=[[0.0, 0.0]]),
                    "clients[1].alpha_logits: expected shape (2, 2)"),
    "local_model_int": (_put("clients", 1, "local_model", value=3),
                        "clients[1].local_model: expected null, got 3"),
    "local_model_under_pfedmb": (_give_client_own_branches,
                                 "clients[1].local_model: expected null, got {"),
}


@pytest.mark.parametrize(
    "damage, located", list(MALFORMED.values()), ids=list(MALFORMED)
)
def test_malformed_checkpoint_raises_located_parse_error(tmp_path, damage, located):
    server, clients, _ = fed.run_training(MALFORMED_CONFIG)
    path = tmp_path / "ckpt.json"
    fed.save_checkpoint(server, clients, MALFORMED_CONFIG, path)
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    with pytest.raises(ParseError) as err:
        fed.load_checkpoint(path, MALFORMED_CONFIG)
    assert str(path) in str(err.value) and located in str(err.value)


@pytest.fixture(scope="module")
def saved_checkpoints(tmp_path_factory):
    """method -> (checkpoint document, config), and a scratch path."""
    path = tmp_path_factory.mktemp("checkpoint") / "ckpt.json"
    saved = {}
    for method in ("pfedmb", "local"):
        cfg = make_config(method=method, rounds=1)
        server, clients, _ = fed.run_training(cfg)
        fed.save_checkpoint(server, clients, cfg, path)
        saved[method] = (json.loads(path.read_text()), cfg)
    return saved, path


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_any_value_at_any_checkpoint_key_is_loaded_or_located(saved_checkpoints, data):
    saved, path = saved_checkpoints
    doc, cfg = saved[data.draw(st.sampled_from(sorted(saved)))]
    doc = json.loads(json.dumps(doc))
    target, key = doc, ""
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(doc["clients"]) - 1))
        target, key = doc["clients"][i], f"clients[{i}]."
    name = data.draw(st.sampled_from(sorted(target)))
    target[name] = data.draw(JSON_VALUES)
    path.write_text(json.dumps(doc))  # non-finite floats become NaN/Infinity
    try:
        fed.load_checkpoint(path, cfg)
    except PfedmbError as exc:
        assert str(path) in str(exc) and key + name in str(exc)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@example(data=b"[" * 200_000)
@example(data=b'{"round": ' + b"9" * 5000 + b"}")
@example(data=b"\xef\xbb\xbf{}")
@given(data=st.binary(max_size=200))
def test_any_checkpoint_bytes_load_or_raise_a_parse_error_naming_the_path(
    saved_checkpoints, data
):
    saved, path = saved_checkpoints
    path.write_bytes(data)
    try:
        fed.load_checkpoint(path, saved["pfedmb"][1])
    except ParseError as exc:
        assert str(exc).startswith(f"{path}: "), exc


def test_checkpoint_with_a_utf8_bom_resumes_bit_exact(tmp_path):
    cfg = make_config(rounds=2)
    server, clients, _ = fed.run_training(cfg)
    part_server, part_clients, _ = fed.run_training(dataclasses.replace(cfg, rounds=0))
    fed.run_round(part_server, part_clients, cfg)
    path = tmp_path / "ckpt.json"
    fed.save_checkpoint(part_server, part_clients, cfg, path)
    path.write_bytes(path.read_text(encoding="utf-8").encode("utf-8-sig"))
    resumed_server, resumed_clients = fed.load_checkpoint(path, cfg)
    fed.run_round(resumed_server, resumed_clients, cfg)
    _assert_same_state(resumed_server, resumed_clients, server, clients)


def test_checkpoint_read_errors_are_those_of_a_config(tmp_path):
    cfg = make_config(rounds=1)
    with pytest.raises(ParseError, match=r"missing\.json: no such file$"):
        fed.load_checkpoint(tmp_path / "missing.json", cfg)
    with pytest.raises(IsADirectoryError):  # any other OSError is not a parse error
        fed.load_checkpoint(tmp_path, cfg)
