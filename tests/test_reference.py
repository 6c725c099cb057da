"""Whole runs pinned bit for bit against a numpy transcription of the protocol.

reference_run writes out every step of run_experiment: network init, client
sampling, two-phase local learning, aggregation with the dead-branch floor,
the per-round train loss, the evaluation of every client and fine-tuning.  It
calls nothing in pfedmb.nn or pfedmb.federation.  It takes the config from
pfedmb.config, the dataset and partition from pfedmb.data (test_data.py pins
both) and the per-step math from test_kernel.oracle.  So a change to the round
loop that moves one bit of a result, or of the final server branches, fails
here on a drawn config, not only at the golden shapes, whose files round to
10 significant digits.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings

from pfedmb import federation
from pfedmb.config import ExperimentConfig
from pfedmb.data import partition
from pfedmb.errors import NumericError, PfedmbError

from test_kernel import oracle
from test_properties import run_configs

# each generator is keyed by a leading tag: init on (seed, INIT), sampling on
# (seed, SAMPLE, round), a client phase on (seed, CLIENT, client, round, phase)
INIT, SAMPLE, CLIENT = 101, 102, 103
MIXING, WEIGHT = 0, 1
DEAD_FLOOR = 1e-12  # share of the round's sum(n_i) below which a branch keeps its value


def mixing_values(logits, num_layers, shared):
    """softmax of each logit row; one row per layer."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    v = e / e.sum(axis=1, keepdims=True)
    return np.repeat(v, num_layers, axis=0) if shared and num_layers > 1 else v


def class_logits(weights, biases, mix, x):
    """The network's output; NumericError names the first layer that is not finite."""
    act = x
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = act @ np.einsum("b,boi->oi", mix[l], w).T + mix[l] @ b
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite activations in layer {l}")
        act = np.maximum(z, 0.0) if l < len(weights) - 1 else z
    return act


def mean_loss(weights, biases, mix, x, y):
    with np.errstate(over="ignore", invalid="ignore"):
        out = class_logits(weights, biases, mix, x)
        shifted = out - out.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = float(-logp[np.arange(len(y)), y].mean())
    if not math.isfinite(loss):
        raise NumericError("non-finite loss")
    return loss


def accuracy(cid, t, weights, biases, mix, x, y):
    """Client cid's test accuracy in round t; an error names the client and round."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = class_logits(weights, biases, mix, x)
    except NumericError as exc:
        raise NumericError(f"client {cid}, round {t}, evaluation: {exc}") from None
    return float((out.argmax(axis=1) == y).mean())


def local_learning(config, cid, t, weights, biases, logits, x, y):
    """Mixing phase with the branches frozen, then weight phase with the mixing frozen.

    With one branch the mixing phase is skipped: its logit gradient is zero.
    """
    layers, shared = len(weights), config.shared_alpha
    for name, phase, lr in (("mixing", MIXING, config.lr_alpha), ("weight", WEIGHT, config.lr_w)):
        if phase == MIXING and config.branches == 1:
            continue
        rng = np.random.default_rng([config.seed, CLIENT, cid, t, phase])
        for epoch in range(config.local_epochs):
            perm = rng.permutation(len(y))
            for start in range(0, len(y), config.batch_size):
                idx = perm[start:start + config.batch_size]
                bx, by = x[idx], y[idx]
                try:
                    mean_loss(weights, biases, mixing_values(logits, layers, shared), bx, by)
                except NumericError as exc:
                    raise NumericError(
                        f"client {cid}, round {t}, {name} phase, epoch {epoch}: {exc}") from None
                with np.errstate(over="ignore", invalid="ignore"):
                    _, _, d_w, d_b, d_logits = oracle(weights, biases, logits, shared, bx, by)
                if phase == MIXING:
                    logits = logits - lr * d_logits
                else:
                    weights = [w - lr * g for w, g in zip(weights, d_w)]
                    biases = [b - lr * g for b, g in zip(biases, d_b)]
    return weights, biases, logits


def aggregate(updates, alpha_weighted, weights, biases):
    """Each branch's average over updates (n, weights, biases, mix), added in order.

    Branch b of layer l weighs update i by n_i * mix_i[l, b], or by n_i alone
    under plain weighting; a branch whose weight mass is below DEAD_FLOOR * sum(n_i)
    keeps its value in weights and biases.
    """
    mass = [np.zeros(w.shape[0]) for w in weights]
    w_sum = [np.zeros_like(w) for w in weights]
    b_sum = [np.zeros_like(b) for b in biases]
    total = 0
    for n, u_weights, u_biases, mix in updates:
        total += n
        for l in range(len(weights)):
            coeffs = n * (mix[l] if alpha_weighted else np.ones_like(mix[l]))
            mass[l] += coeffs
            w_sum[l] += coeffs[:, None, None] * u_weights[l]
            b_sum[l] += coeffs[:, None] * u_biases[l]
    new_weights, new_biases = [], []
    for l in range(len(weights)):
        dead = mass[l] < DEAD_FLOOR * total
        safe = np.where(dead, 1.0, mass[l])
        new_weights.append(np.where(dead[:, None, None], weights[l], w_sum[l] / safe[:, None, None]))
        new_biases.append(np.where(dead[:, None], biases[l], b_sum[l] / safe[:, None]))
    return new_weights, new_biases


def reference_run(config):
    """The ExperimentResult arrays of a run of config, and its final server branches.

    Returns a dict keyed as ExperimentResult's fields, plus server_weights and
    server_biases after the last round.
    """
    dataset = config.make_dataset()
    part = partition(dataset, config.partition_spec)
    dims = config.layer_dims(dataset.input_dim, dataset.num_classes)
    layers, branches, shared = len(dims) - 1, config.branches, config.shared_alpha
    local = config.method == "local"
    alpha_weighted = config.method == "pfedmb"

    rng = np.random.default_rng([config.seed, INIT])
    server_w, server_b = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        server_w.append(rng.uniform(-bound, bound, size=(branches, fan_out, fan_in)))
        server_b.append(np.zeros((branches, fan_out)))

    train = [(dataset.features[i], dataset.labels[i]) for i in part.train]
    test = [(dataset.features[i], dataset.labels[i]) for i in part.test]
    clients = range(config.clients)
    logits = [np.zeros((1 if shared else layers, branches)) for _ in clients]
    own = [(server_w, server_b) for _ in clients]  # under local, each client's branches

    def model(cid):
        return own[cid] if local else (server_w, server_b)

    def mix(cid):
        return mixing_values(logits[cid], layers, shared)

    rounds = {"per_round_mean_test_accuracy": [], "per_round_mean_train_loss": [],
              "alpha_trajectory": []}
    for t in range(config.rounds):
        if local:
            sampled = list(clients)
        else:
            draw = np.random.default_rng([config.seed, SAMPLE, t])
            ids = draw.choice(config.clients, size=config.sample_size, replace=False)
            sampled = [int(cid) for cid in np.sort(ids)]
        updates, losses = [], []
        for cid in sampled:
            w, b, logits[cid] = local_learning(config, cid, t, *model(cid), logits[cid], *train[cid])
            if local:
                own[cid] = (w, b)
            try:
                losses.append(mean_loss(w, b, mix(cid), *train[cid]))
            except NumericError as exc:
                raise NumericError(f"client {cid}, round {t}, train loss: {exc}") from None
            updates.append((len(train[cid][1]), w, b, mix(cid)))
        if not local:
            server_w, server_b = aggregate(updates, alpha_weighted, server_w, server_b)
        accuracies = [accuracy(cid, t, *model(cid), mix(cid), *test[cid]) for cid in clients]
        rounds["per_round_mean_test_accuracy"].append(float(np.mean(accuracies)))
        rounds["per_round_mean_train_loss"].append(float(np.mean(losses)))
        rounds["alpha_trajectory"].append(np.stack([mix(cid) for cid in clients]))

    final = []
    for cid in clients:  # fine-tuning is keyed as round T; its branches are dropped
        w, b, logits[cid] = local_learning(config, cid, config.rounds, *model(cid),
                                           logits[cid], *train[cid])
        final.append(accuracy(cid, config.rounds, w, b, mix(cid), *test[cid]))
    return dict(rounds, final_client_accuracies=final,
                final_alpha=[mix(cid) for cid in clients],
                server_weights=server_w, server_biases=server_b)


def program_run(config):
    """The same arrays from run_experiment; its server is run_experiment's."""
    result, server, _ = federation.run_experiment(config)
    fields = ("per_round_mean_test_accuracy", "per_round_mean_train_loss", "alpha_trajectory",
              "final_client_accuracies", "final_alpha")
    return dict({name: getattr(result, name) for name in fields},
                server_weights=[layer.weights for layer in server.model.layers],
                server_biases=[layer.biases for layer in server.model.layers])


def outcome(run, config):
    """run(config), or the type and message of the PfedmbError it raised."""
    try:
        return run(config)
    except PfedmbError as exc:
        return type(exc), str(exc)


FLOOR_HIT = {  # alpha-weighted, lr_alpha 1e6: a branch falls below the floor in round 0
    "method": "pfedmb", "clients": 4, "sample_size": 3, "rounds": 2, "branches": 3,
    "lr_alpha": 1e6, "lr_w": 0.3, "shared_alpha": False, "hidden_dims": [3],
    "data": {"synthetic": {"num_classes": 3, "input_dim": 2, "samples_per_class": 20}},
    "partition": {"scheme": "dirichlet", "beta": 0.5}, "seed": 1, "local_epochs": 1,
    "batch_size": 7,
}

MIXED_FAILURES = dict(  # one class per client, class means up to 8.5e307
    FLOOR_HIT, sample_size=4, lr_alpha=0.5, seed=2, batch_size=100,
    data={"synthetic": {"num_classes": 4, "input_dim": 4, "samples_per_class": 20,
                        "class_mean_scale": 8.5e307}},
    partition={"scheme": "random_k_classes", "k": 1},
)

ONE_STEP_STACK = dict(  # equal shards, each a single batch
    FLOOR_HIT, local_epochs=1, batch_size=120,
    partition={"scheme": "paired_clusters", "num_pairs": 2, "classes_per_pair": 1},
)

# dirichlet shards of 9, 10, 6 and 17 rows in 5-row batches: clients 0-2 hold two batches
# an epoch, so in round 0 they train both phases as one ragged stack of three
RAGGED_STACK = dict(FLOOR_HIT, lr_alpha=0.5, seed=1, local_epochs=2, batch_size=5)


@settings(max_examples=300)
@example(raw=FLOOR_HIT)
@example(raw=dict(FLOOR_HIT, shared_alpha=True, lr_alpha=0.7, hidden_dims=[4, 3]))
# lr_w 1e300 overflows the forward pass after the first weight step: the
# weight phase's second step, or with one step per phase the round's train loss
@example(raw=dict(FLOOR_HIT, lr_w=1e300))
@example(raw=dict(FLOOR_HIT, lr_w=1e300, branches=1, batch_size=100))
# client 1's train loss overflows, and so does client 2's first mixing step:
# the run raises client 1's error
@example(raw=MIXED_FAILURES)
@example(raw=RAGGED_STACK)
@given(raw=run_configs())
def test_a_run_equals_the_numpy_reference_bit_for_bit(raw):
    """Every result array and the final server branches are equal, or both raise alike."""
    assert_equals_reference(raw)


# drawn configs have at most 4 clients, whose steps and evaluations always fit one stacked
# call: these budgets give every client its own call in every stacked pass (mixing and
# weight phases, evaluation, fine-tuning), or every group of clients one call; the one
# STACK_BYTES sizes the weight stacks and every other stack, so this test covers them all
@pytest.mark.parametrize("budget", [0, sys.maxsize], ids=["one_client_per_call", "unbounded"])
@settings(max_examples=60)
@example(raw=FLOOR_HIT)
@example(raw=MIXED_FAILURES)
# no round: fine-tuning's evaluation fails, for client 1 first
@example(raw=dict(MIXED_FAILURES, rounds=0))
@example(raw=dict(FLOOR_HIT, lr_w=1e300))
# one step per phase on four 7-row shards, three sampled: a one-step stack, whose train
# losses overflow under lr_w 1e300
@example(raw=ONE_STEP_STACK)
@example(raw=dict(ONE_STEP_STACK, lr_w=1e300))
@example(raw=RAGGED_STACK)
# the ragged stack's weight phase overflows under lr_w 1e300 after its first full batch
@example(raw=dict(RAGGED_STACK, lr_w=1e300))
# every client trains and is evaluated on its own branches
@example(raw=dict(RAGGED_STACK, method="local"))
@given(raw=run_configs())
def test_any_weight_stack_budget_equals_the_reference(budget, raw):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(federation, "STACK_BYTES", budget)
        assert_equals_reference(raw)


# run_configs draws seeds 0-3, whose keys fit one uint32 word each: these seed from the
# list of ints, on ragged shards and on equal shards that stack in both phases
@pytest.mark.parametrize("seed", [2**32 + 3, 2**64 + 7])
@pytest.mark.parametrize("raw", [FLOOR_HIT, dict(ONE_STEP_STACK, local_epochs=2, batch_size=4)],
                         ids=["ragged", "stacked"])
def test_a_run_at_a_seed_of_two_words_or_more_equals_the_reference(raw, seed):
    config = ExperimentConfig(**dict(raw, seed=seed), output_dir="unused")
    assert not isinstance(outcome(reference_run, config), tuple)  # the run trains
    assert_equals_reference(dict(raw, seed=seed))


def assert_equals_reference(raw):
    config = ExperimentConfig(**raw, output_dir="unused")
    want, got = outcome(reference_run, config), outcome(program_run, config)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert got.keys() == want.keys()
    for name, arrays in want.items():
        assert len(got[name]) == len(arrays), name
        for i, (have, expected) in enumerate(zip(got[name], arrays)):
            assert np.array_equal(np.asarray(have, dtype=np.float64), expected), (name, i)
