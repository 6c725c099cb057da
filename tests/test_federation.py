"""Protocol mechanics: sampling, two-phase local learning, aggregation, rounds."""

import dataclasses
import json

import numpy as np
import pytest

from pfedmb import federation as fed
from pfedmb import nn
from pfedmb.data import LabeledDataset
from pfedmb.errors import ConfigurationError, UsageError


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
    return fed.ClientState(client_id, shard, test, alpha, rng_seed=seed)


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


def test_sampling_rejects_bad_sizes():
    with pytest.raises(ConfigurationError):
        fed.sample_clients(0, 4, 5, 0)
    with pytest.raises(ConfigurationError):
        fed.sample_clients(0, 4, 0, 0)


# -------------------------------------------------------- local learning phases

def test_zero_learning_rates_are_a_no_op():
    client = tiny_client()
    model = nn.init_network([2, 2], 2, seed=1)
    before_alpha = client.alpha.logits.copy()
    update = fed.client_local_learning(client, model, 0, epochs=3,
                                       lr_alpha=0.0, lr_w=0.0, batch_size=4)
    for got, want in zip(update.model.layers, model.layers):
        np.testing.assert_array_equal(got.weights, want.weights)
        np.testing.assert_array_equal(got.biases, want.biases)
    np.testing.assert_array_equal(client.alpha.logits, before_alpha)


def test_single_branch_matches_plain_local_sgd_bitwise():
    """With one branch the mixing phase is inert and phase 2 is plain SGD."""
    client = tiny_client(seed=5, n=10, in_dim=3, classes=3, branches=1)
    model = nn.init_network([3, 3], 1, seed=2)
    epochs, lr_w, batch_size = 2, 0.2, 4
    update = fed.client_local_learning(client, model, 1, epochs, 0.7, lr_w, batch_size)

    # plain SGD over the same batch order, written against bare numpy
    w = model.layers[0].weights[0].copy()
    b = model.layers[0].biases[0].copy()
    x, y = client.shard.features, client.shard.labels
    rng = np.random.default_rng(
        [client.rng_seed, fed.CLIENT_STREAM, client.client_id, 1, fed.WEIGHT_PHASE]
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
    update = fed.client_local_learning(client, model, 0, epochs=1,
                                       lr_alpha=lr_a, lr_w=lr_w, batch_size=8)

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
    update = fed.client_local_learning(client, model, 0, 2, 0.5, 0.1, 4)
    np.testing.assert_array_equal(model.layers[0].weights, w_before)
    assert np.any(client.alpha.logits != 0.0)
    np.testing.assert_array_equal(update.alpha_values, client.alpha.values())


# ------------------------------------------------------------------ aggregation

def fake_update(cid, n, weights, biases, alpha_values):
    model = nn.Network([nn.MultiBranchDense(weights, biases)])
    return fed.ClientUpdate(cid, n, model, np.asarray(alpha_values, dtype=float))


def random_updates(rng, num_clients=3, branches=2, dim=2):
    ups = []
    for i in range(num_clients):
        ups.append(
            fake_update(
                i,
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
        fake_update(0, 10, np.full((2, 2, 2), 3.0), np.ones((2, 2)), [[1.0, 0.0]]),
        fake_update(1, 10, np.full((2, 2, 2), -1.0), -np.ones((2, 2)), [[1e-15, 1.0]]),
    ]
    got = fed.aggregate(ups, fed.AggregationStrategy.ALPHA_WEIGHTED, previous_global())
    np.testing.assert_allclose(got.layers[0].weights[0], 3.0, rtol=1e-9)
    np.testing.assert_allclose(got.layers[0].weights[1], -1.0, rtol=1e-9)


def test_underflowed_branch_keeps_previous_global_value():
    prev = previous_global()
    prev.layers[0].weights[1] = 7.0
    ups = [
        fake_update(0, 5, np.ones((2, 2, 2)), np.zeros((2, 2)), [[1.0, 0.0]]),
        fake_update(1, 5, np.ones((2, 2, 2)), np.zeros((2, 2)), [[1.0, 0.0]]),
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
    bad = random_updates(np.random.default_rng(0), branches=3)
    with pytest.raises(ConfigurationError):
        fed.aggregate(bad, fed.AggregationStrategy.PLAIN_WEIGHTED, previous_global())


# ------------------------------------------------------------------- round loop

def test_single_client_round_equals_local_training(config_factory):
    cfg = config_factory(
        clients=1, sample_size=1, rounds=1, branches=1,
        partition={"scheme": "random_k_classes", "k": 4},
    )
    server, clients, reports = fed.run_training(cfg)
    assert server.round == 1 and len(reports) == 1

    fresh_server, fresh_clients = fed.setup_experiment(cfg)
    update = fed.client_local_learning(
        fresh_clients[0], fresh_server.model, 0,
        cfg.local_epochs, cfg.lr_alpha, cfg.lr_w, cfg.batch_size,
    )
    for got, want in zip(server.model.layers, update.model.layers):
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-14)
        np.testing.assert_allclose(got.biases, want.biases, rtol=1e-14)


def test_zero_learning_rates_leave_global_params_unchanged(config_factory):
    cfg = config_factory(lr_alpha=0.0, lr_w=0.0, rounds=1)
    server, clients = fed.setup_experiment(cfg)
    before = [layer.weights.copy() for layer in server.model.layers]
    fed.run_round(server, clients, fed.RoundOptions(
        epochs=cfg.local_epochs, lr_alpha=0.0, lr_w=0.0,
        batch_size=cfg.batch_size, sample_size=cfg.sample_size,
    ))
    for layer, want in zip(server.model.layers, before):
        np.testing.assert_allclose(layer.weights, want, rtol=1e-13)


def test_nonsampled_clients_keep_alpha_bitwise(config_factory):
    cfg = config_factory(clients=4, sample_size=2, rounds=1, seed=5)
    server, clients = fed.setup_experiment(cfg)
    before = [c.alpha.logits.copy() for c in clients]
    report = fed.run_round(server, clients, fed.RoundOptions(
        epochs=cfg.local_epochs, lr_alpha=cfg.lr_alpha, lr_w=cfg.lr_w,
        batch_size=cfg.batch_size, sample_size=2,
    ))
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
    s_fa, c_fa, _ = fed.run_baseline(fed.FEDAVG, config_factory(
        method="fedavg", branches=1, rounds=3, clients=4, sample_size=4
    ))
    for la, lb in zip(s_mb.model.layers, s_fa.model.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.biases, lb.biases)
    for a, b in zip(c_mb, c_fa):
        np.testing.assert_array_equal(a.alpha.logits, b.alpha.logits)


def test_partial_participation_experiment_end_to_end(config_factory):
    cfg = config_factory(
        clients=6, sample_size=2, rounds=4, seed=21,
        partition={"scheme": "dirichlet", "beta": 0.6},
    )
    result, server, clients, personalized = fed.run_experiment(cfg)
    assert len(result.per_round_mean_test_accuracy) == 4
    assert len(result.final_client_accuracies) == 6
    assert len(personalized) == 6
    assert all(0.0 <= a <= 1.0 for a in result.final_client_accuracies)
    # trajectory snapshots cover every client every round
    assert all(snap.shape == (6, 2, 2) for snap in result.alpha_trajectory)

    replay, _, _, _ = fed.run_experiment(cfg)
    assert replay.final_client_accuracies == result.final_client_accuracies
    assert replay.config_fingerprint == result.config_fingerprint


def test_training_t0_returns_initial_state(config_factory):
    cfg = config_factory(rounds=0)
    server, clients, reports = fed.run_training(cfg)
    assert reports == []
    assert server.round == 0
    fresh, _ = fed.setup_experiment(cfg)
    for la, lb in zip(server.model.layers, fresh.model.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)


# -------------------------------------------------------- baselines & fine-tune

def test_fedavg_single_client_equals_local_only():
    # power-of-two shard size keeps single-update aggregation exact
    data = {"synthetic": {"num_classes": 2, "input_dim": 3,
                          "noise_std": 0.6, "samples_per_class": 48}}
    part = {"scheme": "random_k_classes", "k": 2}
    from conftest import make_config

    common = dict(clients=1, sample_size=1, branches=1, rounds=2,
                  data=data, partition=part, seed=3)
    r_fa, s_fa, cl_fa, p_fa = fed.run_experiment(
        make_config(method="fedavg", **common)
    )
    r_lo, s_lo, cl_lo, p_lo = fed.run_experiment(
        make_config(method="local", **common)
    )
    assert cl_fa[0].num_samples == 64
    for la, lb in zip(p_fa[0].layers, p_lo[0].layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.biases, lb.biases)
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
                update = fed.client_local_learning(
                    client, models[i], t, cfg.local_epochs,
                    cfg.lr_alpha, cfg.lr_w, cfg.batch_size,
                )
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


def test_zero_rounds_plus_fine_tune_is_pure_local_training(config_factory):
    cfg = config_factory(method="local", rounds=0, local_epochs=4)
    result, server, clients, personalized = fed.run_experiment(cfg)
    assert result.per_round_mean_test_accuracy == []

    fresh_server, fresh_clients = fed.setup_experiment(cfg)
    for i, fresh in enumerate(fresh_clients):
        update = fed.client_local_learning(
            fresh, fresh_server.model, 0, cfg.local_epochs,
            cfg.lr_alpha, cfg.lr_w, cfg.batch_size,
        )
        for got, want in zip(personalized[i].layers, update.model.layers):
            np.testing.assert_array_equal(got.weights, want.weights)
            np.testing.assert_array_equal(got.biases, want.biases)


def test_fine_tune_zero_rates_is_identity(config_factory):
    cfg = config_factory(rounds=1)
    server, clients, _ = fed.run_training(cfg)
    before = clients[0].alpha.logits.copy()
    model, alpha = fed.fine_tune(clients[0], server.model, 2, 0.0, 0.0,
                                 cfg.batch_size, round_index=cfg.rounds)
    for got, want in zip(model.layers, server.model.layers):
        np.testing.assert_array_equal(got.weights, want.weights)
    np.testing.assert_array_equal(alpha.logits, before)


def test_fine_tune_improves_train_accuracy_on_separable_shard():
    rng = np.random.default_rng(31)
    x = np.concatenate([rng.normal(-2.0, 0.3, size=(20, 2)),
                        rng.normal(2.0, 0.3, size=(20, 2))])
    y = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
    shard = LabeledDataset(x, y, 2)
    client = fed.ClientState(0, shard, shard, nn.uniform_alpha(1, 2), rng_seed=1)
    model = nn.init_network([2, 2], 2, seed=8)

    from pfedmb.metrics import evaluate_client

    before = evaluate_client(model, client.alpha, shard)
    tuned, _ = fed.fine_tune(client, model, 5, 0.1, 0.1, 16, round_index=0)
    after = evaluate_client(tuned, client.alpha, shard)
    assert after >= before
    assert after == 1.0


# ------------------------------------------------------------------ checkpoints

def test_checkpoint_resume_is_bit_exact(tmp_path, config_factory):
    cfg = config_factory(rounds=4, clients=4, sample_size=3, seed=17)
    server, clients, _ = fed.run_training(cfg)

    # replay: stop at round 2, checkpoint, reload, run the remaining rounds
    cfg_half = config_factory(rounds=2, clients=4, sample_size=3, seed=17)
    half_server, half_clients, _ = fed.run_training(cfg_half)
    path = tmp_path / "ckpt.json"
    fed.save_checkpoint(half_server, half_clients, path)

    doc = json.loads(path.read_text())
    assert set(doc) >= {"architecture", "round", "global_weights",
                        "global_biases", "clients"}
    assert doc["round"] == 2
    assert all("alpha_logits" in c and "rng" in c for c in doc["clients"])

    dataset = cfg.make_dataset()
    from pfedmb.data import partition

    part = partition(dataset, cfg.make_partition_spec())
    resumed_server, resumed_clients = fed.load_checkpoint(
        path,
        [dataset.subset(idx) for idx in part.train],
        [dataset.subset(idx) for idx in part.test],
    )
    opts = fed.RoundOptions(
        epochs=cfg.local_epochs, lr_alpha=cfg.lr_alpha, lr_w=cfg.lr_w,
        batch_size=cfg.batch_size, sample_size=3,
        strategy=fed.AggregationStrategy.ALPHA_WEIGHTED,
    )
    for _ in range(2):
        fed.run_round(resumed_server, resumed_clients, opts)

    assert resumed_server.round == server.round
    for la, lb in zip(resumed_server.model.layers, server.model.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.biases, lb.biases)
    for a, b in zip(resumed_clients, clients):
        np.testing.assert_array_equal(a.alpha.logits, b.alpha.logits)
