"""Federated round loop with branch-wise weighted aggregation.

One communication round: the server snapshots its branch parameters, samples S
clients, each sampled client runs two-phase local learning (mixing logits
first with branches frozen, then all branches with the mixing frozen), and the
server averages each branch over the participants.  The alpha-weighted
strategy scales every client's contribution to branch b of layer l by
n_i * alpha_i[l, b], so clients attending to a branch shape it more; the plain
strategy weighs by n_i alone.  FedAvg is the plain strategy with one branch,
and local-only training is the same round loop with no strategy: every client
trains its own model every round and nothing is aggregated.

Determinism: every stream is a fresh numpy Generator keyed by explicit
integers -- network init on (seed, INIT), client sampling on (seed, SAMPLE,
round), and each client phase on (seed, CLIENT, client_id, round, phase).
A round trains its sampled clients' mixing phases in lockstep, then their weight
phases in canonical (ascending id) order; config.threads is accepted but ignored.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import metrics, nn
from .data import LabeledDataset, partition, read_json_object
from .errors import NumericError, ParseError, UsageError

# stream tags; distinct leading constants keep the generator keys disjoint
INIT_STREAM = 101
SAMPLE_STREAM = 102
CLIENT_STREAM = 103

ALPHA_PHASE = 0
WEIGHT_PHASE = 1

FEDAVG = "fedavg"
LOCAL_ONLY = "local"

CHECKPOINT_SCHEMA_VERSION = 3

DEAD_BRANCH_FLOOR = 1e-12  # share of the sampled sum(n_i) below which a branch is dead
MIXING_STACK_BYTES = 1 << 20  # per stacked mixing call: combined weights and layer outputs


class AggregationStrategy(Enum):
    ALPHA_WEIGHTED = "alpha_weighted"
    PLAIN_WEIGHTED = "plain_weighted"


# None: no aggregation; every client trains its own local_model every round
STRATEGY_FOR_METHOD = {
    "pfedmb": AggregationStrategy.ALPHA_WEIGHTED,
    "pfedmb_plain_agg": AggregationStrategy.PLAIN_WEIGHTED,
    FEDAVG: AggregationStrategy.PLAIN_WEIGHTED,
    LOCAL_ONLY: None,
}


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


@dataclass
class ClientState:
    """One client: its shards and persistent mixing logits."""

    client_id: int
    shard: LabeledDataset            # local training data D_i
    test_shard: LabeledDataset
    alpha: nn.AlphaParams            # persists across rounds
    local_model: nn.Network = None   # under `local`, the client's own copy of the branches

    @property
    def num_samples(self) -> int:
        return len(self.shard)

    def current_model(self, server: "ServerState") -> nn.Network:
        """The branches this client trains from and is evaluated with."""
        return server.model if self.local_model is None else self.local_model


@dataclass
class ServerState:
    """Global branch parameters plus the round counter."""

    model: nn.Network
    round: int = 0


@dataclass
class ClientUpdate:
    """What a sampled client returns: new branch parameters and mixing weights."""

    num_samples: int
    model: nn.Network
    alpha_values: np.ndarray  # (num_layers, B) simplex rows


@dataclass
class RoundReport:
    sampled: list
    train_losses: list        # aligned with sampled, loss on the full shard
    test_accuracies: list     # every client, personalized (current_model, own alpha)
    alpha_values: np.ndarray  # (N, num_layers, B) snapshot after the round


def sample_clients(seed: int, num_clients: int, sample_size: int, round_index: int):
    """S distinct client ids, uniform without replacement, keyed by (seed, round).

    The caller holds 1 <= sample_size <= num_clients, as ExperimentConfig does.
    """
    rng = _rng(seed, SAMPLE_STREAM, round_index)
    ids = rng.choice(num_clients, size=sample_size, replace=False)
    return [int(i) for i in np.sort(ids)]


def _batches(client: ClientState, round_index: int, phase: int, config):
    """(epoch, row indices) of each mini-batch of one client's phase, from its own stream."""
    rng = _rng(config.seed, CLIENT_STREAM, client.client_id, round_index, phase)
    for epoch in range(config.local_epochs):
        perm = rng.permutation(client.num_samples)
        for start in range(0, client.num_samples, config.batch_size):
            yield epoch, perm[start : start + config.batch_size]


def mixing_phase(clients: list, models: list, round_index: int, config) -> list:
    """Phase 1 of local learning in lockstep: client i's mixing logits on fixed models[i].

    Each step, clients with the same model and batch length share one stacked call
    per MIXING_STACK_BYTES, bit for bit as if alone.  Returns per client its new
    AlphaParams, or the located NumericError that ended its phase.
    """
    logits = [c.alpha.logits for c in clients]  # a client's NumericError once it fails
    steps = [_batches(c, round_index, ALPHA_PHASE, config) for c in clients]
    pending = [i for i, c in enumerate(clients) if c.alpha.num_branches > 1]
    while pending:
        groups = {}
        for i in pending:
            step = next(steps[i], None)
            if step is not None:
                groups.setdefault((id(models[i]), len(step[1])), []).append((i, *step))
        for (_, rows), group in groups.items():
            model = models[group[0][0]]
            per_client = 8 * sum(layer.out_dim * (layer.in_dim + rows) for layer in model.layers)
            size = max(1, MIXING_STACK_BYTES // per_client)
            for k in range(0, len(group), size):
                _mixing_step(clients, model, logits, group[k : k + size], round_index, config)
        pending = [i for group in groups.values() for i, *_ in group
                   if not isinstance(logits[i], NumericError)]
    return [z if isinstance(z, NumericError) else replace(c.alpha, logits=z)
            for z, c in zip(logits, clients)]


def _mixing_step(clients, model, logits, chunk, round_index, config):
    """One SGD step of chunk's (client index, epoch, rows); a chunk of several is one call."""
    try:
        stack = logits[chunk[0][0]] if len(chunk) == 1 else np.stack([logits[i] for i, *_ in chunk])
        alpha = replace(clients[chunk[0][0]].alpha, logits=stack)
        x = np.concatenate([clients[i].shard.features[idx] for i, _, idx in chunk])
        y = np.concatenate([clients[i].shard.labels[idx] for i, _, idx in chunk])
        _, grads = nn.loss_and_grads(model, alpha, (x, y), nn.WRT_ALPHA)
    except NumericError as exc:
        for i, epoch, idx in chunk:  # a stacked call that raised is rerun client by client
            if len(chunk) == 1:
                logits[i] = NumericError(f"client {clients[i].client_id}, round {round_index}, "
                                         f"mixing phase, epoch {epoch}: {exc}")
            else:
                _mixing_step(clients, model, logits, [(i, epoch, idx)], round_index, config)
        return
    with np.errstate(over="ignore", invalid="ignore"):  # may run before an earlier client fails
        stepped = nn.step_alpha(alpha, grads, config.lr_alpha).logits
    for k, (i, *_) in enumerate(chunk):
        logits[i] = stepped if len(chunk) == 1 else stepped[k]


def client_local_learning(
    client: ClientState, global_model: nn.Network, round_index: int, config, alpha=None
) -> ClientUpdate:
    """Two-phase local update; persists the client's new mixing logits.

    Phase 1, mixing_phase, trains the mixing logits with the received branches
    held fixed; alpha is what it returned for this client, or None to run it
    here for this client alone.  Phase 2 holds the new mixing fixed and runs
    config.local_epochs epochs of mini-batch SGD on all branch weights and biases.
    """
    alpha = alpha or mixing_phase([client], [global_model], round_index, config)[0]
    if isinstance(alpha, NumericError):
        raise alpha

    # nn never mutates its inputs, and the weight phase takes at least one step
    x, y, model = client.shard.features, client.shard.labels, global_model
    for epoch, idx in _batches(client, round_index, WEIGHT_PHASE, config):
        try:
            _, grads = nn.loss_and_grads(model, alpha, (x[idx], y[idx]), wrt=nn.WRT_W)
        except NumericError as exc:
            raise NumericError(f"client {client.client_id}, round {round_index}, "
                               f"weight phase, epoch {epoch}: {exc}") from None
        model = nn.step_network(model, grads, config.lr_w)

    client.alpha = alpha
    return ClientUpdate(client.num_samples, model, alpha.values())


def aggregate(
    updates: list,
    strategy: AggregationStrategy,
    previous_global: nn.Network,
) -> nn.Network:
    """Branch-wise weighted average of the participating clients' parameters.

    Branch (l, b) gets coefficients n_i * alpha_i[l, b], and plain weighting is
    the same rule with alpha == 1.  One pass adds each update, in order, into
    running sums per layer.  A branch whose coefficient mass falls below
    DEAD_BRANCH_FLOOR * sum(n_i) keeps its previous global value.
    """
    if not updates:
        raise UsageError("cannot aggregate an empty update list")
    alpha_of = ((lambda u: u.alpha_values) if strategy is AggregationStrategy.ALPHA_WEIGHTED
                else (lambda u: np.ones_like(u.alpha_values)))
    # per layer: coefficient mass per branch, weight sum, bias sum
    sums = [(np.zeros(prev.num_branches), np.zeros_like(prev.weights), np.zeros_like(prev.biases))
            for prev in previous_global.layers]
    total = 0
    for u in updates:
        total += u.num_samples
        for (denom, w_acc, b_acc), layer, alpha_l in zip(sums, u.model.layers, alpha_of(u)):
            coeffs = u.num_samples * alpha_l
            denom += coeffs
            w_acc += coeffs[:, None, None] * layer.weights
            b_acc += coeffs[:, None] * layer.biases
    floor = DEAD_BRANCH_FLOOR * total
    layers = []
    for prev, (denom, w_acc, b_acc) in zip(previous_global.layers, sums):
        dead = denom < floor
        safe = np.where(dead, 1.0, denom)
        layers.append(nn.MultiBranchDense(
            np.where(dead[:, None, None], prev.weights, w_acc / safe[:, None, None]),
            np.where(dead[:, None], prev.biases, b_acc / safe[:, None]),
        ))
    return nn.Network(layers)


def run_round(server: ServerState, clients: list, config) -> RoundReport:
    """One communication round of config.method; advances the server in place."""
    t = server.round
    strategy = STRATEGY_FOR_METHOD[config.method]
    if strategy is None:
        sampled = list(range(len(clients)))
    else:
        sampled = sample_clients(config.seed, len(clients), config.sample_size, t)

    members = [clients[cid] for cid in sampled]
    models = [client.current_model(server) for client in members]
    updates, losses = [], []
    for client, model, alpha in zip(members, models, mixing_phase(members, models, t, config)):
        update = client_local_learning(client, model, t, config, alpha)
        if strategy is None:
            client.local_model = update.model
        try:
            losses.append(nn.batch_loss(update.model, client.alpha,
                                        client.shard.features, client.shard.labels))
        except NumericError as exc:
            raise NumericError(f"client {client.client_id}, round {t}, train loss: {exc}") from None
        updates.append(update)
    if strategy is not None:
        server.model = aggregate(updates, strategy, server.model)
    server.round = t + 1

    accuracies = [
        metrics.evaluate_client(c.current_model(server), c.alpha, c.test_shard)
        for c in clients
    ]
    return RoundReport(
        sampled=sampled,
        train_losses=losses,
        test_accuracies=accuracies,
        alpha_values=np.stack([c.alpha.values() for c in clients]),
    )


# ------------------------------------------------------------- experiment glue

def setup_experiment(config):
    """Dataset, partition, seeded init -> fresh server and client states."""
    dataset = config.make_dataset()
    part = partition(dataset, config.partition_spec)
    dims = config.layer_dims(dataset.input_dim, dataset.num_classes)
    model = nn.init_network(dims, config.branches, seed=[config.seed, INIT_STREAM])
    server = ServerState(model=model)
    local = STRATEGY_FOR_METHOD[config.method] is None
    clients = [
        ClientState(
            client_id=i,
            shard=dataset.subset(part.train[i]),
            test_shard=dataset.subset(part.test[i]),
            alpha=nn.uniform_alpha(len(dims) - 1, config.branches, config.shared_alpha),
            local_model=model.copy() if local else None,
        )
        for i in range(config.clients)
    ]
    return server, clients


def run_training(config):
    """The full protocol: T rounds of sample/local-learn/aggregate.

    Returns (server, clients, reports); each client's personalized model is
    (client.current_model(server), client.alpha).
    """
    server, clients = setup_experiment(config)
    reports = [run_round(server, clients, config) for _ in range(config.rounds)]
    return server, clients, reports


def fine_tune(client: ClientState, global_model: nn.Network, config) -> nn.Network:
    """Post-training local adaptation; the result never reaches the server.

    One more two-phase local pass on the client's own data, keyed as round
    config.rounds; returns the personalized network.
    """
    return client_local_learning(client, global_model, config.rounds, config).model


def run_experiment(config):
    """End-to-end run of the configured method, fine-tuning included.

    Returns (ExperimentResult, server, clients).  Each client's personalized
    network is evaluated and dropped before the next is fine-tuned; a caller who
    wants the networks runs run_training, then fine_tune per client, as this does.
    """
    server, clients, reports = run_training(config)
    accuracies = []
    for client in clients:
        model = fine_tune(client, client.current_model(server), config)
        accuracies.append(metrics.evaluate_client(model, client.alpha, client.test_shard))
        del model  # one fine-tuned network alive at a time

    semantic = config.semantic_dict()
    result = metrics.ExperimentResult(
        method=config.method,
        per_round_mean_test_accuracy=[float(np.mean(r.test_accuracies)) for r in reports],
        per_round_mean_train_loss=[float(np.mean(r.train_losses)) for r in reports],
        final_client_accuracies=accuracies,
        final_alpha=[c.alpha.values() for c in clients],
        alpha_trajectory=[r.alpha_values for r in reports],
        config_fingerprint=metrics.config_fingerprint(semantic),
        config=semantic,
    )
    return result, server, clients


# ----------------------------------------------------------------- checkpoints

def _fingerprint(config) -> str:
    return metrics.config_fingerprint(config.semantic_dict())


def checkpoint_arrays(server: ServerState, clients: list) -> dict:
    """The run state's arrays, nested as the checkpoint document nests them.

    A client's local_model is None, or its own branches under `local`.  The
    arrays are the state's own, not copies.
    """
    def branches(model: nn.Network, prefix: str = "") -> dict:
        return {f"{prefix}weights": [layer.weights for layer in model.layers],
                f"{prefix}biases": [layer.biases for layer in model.layers]}

    return {
        **branches(server.model, "global_"),
        "clients": [
            {
                "alpha_logits": c.alpha.logits,
                "local_model": None if c.local_model is None else branches(c.local_model),
            }
            for c in clients
        ],
    }


def save_checkpoint(server: ServerState, clients: list, config, path) -> None:
    """Single JSON document from which a run of config resumes bit-exactly.

    It holds only what the config cannot rebuild: the round and the arrays of
    checkpoint_arrays.  Shards, shapes and RNG keys regenerate from the config,
    which the document names by its fingerprint.  Full float precision is kept
    via repr round-tripping.  The file is written beside path and renamed over
    it, so a write that fails leaves any earlier checkpoint at path as it was.
    """
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config_fingerprint": _fingerprint(config),
        "round": server.round,
        **checkpoint_arrays(server, clients),
    }
    text = json.dumps(doc, sort_keys=True, default=np.ndarray.tolist)
    metrics.write_atomic(path, text + "\n")


def load_checkpoint(path, config):
    """Rebuild the (server, clients) of a run of config from its checkpoint.

    The file is read as a config is, by data.read_json_object; setup_experiment
    builds the fresh state, which the document must match key for key, and each
    array is copied into it in place.  A file written under another config, or
    a malformed or misshapen value, raises ParseError naming the path and the
    dotted key (clients[1].alpha_logits); any other OSError propagates.
    """
    doc = read_json_object(path)
    server, clients = setup_experiment(config)
    try:
        server.round = _checked_round(doc, config)
        _restore(checkpoint_arrays(server, clients), doc, "")
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return server, clients


def _located(key: str, value, problem: str) -> ParseError:
    return ParseError(f"{key}: {problem}, got {reprlib.repr(value)}")


def _member(doc: dict, name: str, key: str = ""):
    if name not in doc:
        raise ParseError(f"{key or name}: missing key {name!r}")
    return doc[name]


def _checked_round(doc, config) -> int:
    """Check the document's header against config; return its round."""
    version = doc.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise _located("schema_version", version,
                       f"unsupported checkpoint schema, expected {CHECKPOINT_SCHEMA_VERSION}")
    stored, fingerprint = _member(doc, "config_fingerprint"), _fingerprint(config)
    if stored != fingerprint:
        raise ParseError(
            f"config_fingerprint: written under config {stored!r}, "
            f"not under this config {fingerprint!r}"
        )
    rounds = _member(doc, "round")
    if type(rounds) is not int or not 0 <= rounds <= config.rounds:
        raise _located("round", rounds, f"expected an int in [0, {config.rounds}]")
    return rounds


def _restore(like, value, key: str) -> None:
    """Check value at key against the layout like; copy its arrays into like's."""
    if isinstance(like, dict):
        if not isinstance(value, dict):
            raise _located(key, value, "expected a JSON object")
        for name, part in like.items():
            inner = f"{key}.{name}" if key else name
            _restore(part, _member(value, name, inner), inner)
    elif isinstance(like, list):
        if not isinstance(value, list) or len(value) != len(like):
            raise _located(key, value, f"expected a list of {len(like)}")
        for i, (part, item) in enumerate(zip(like, value)):
            _restore(part, item, f"{key}[{i}]")
    elif like is None:
        if value is not None:
            raise _located(key, value, "expected null")
    else:  # an array: nested lists of finite numbers in like's shape
        try:
            cells = np.array(value, dtype=object)
            numeric = all(type(v) in (int, float) for v in cells.flat)
            values = cells.astype(np.float64) if cells.ndim == like.ndim and numeric else None
        except (ValueError, OverflowError):
            values = None
        if values is None or not np.isfinite(values).all():
            raise _located(key, value, f"expected a {like.ndim}-D array of finite numbers")
        if values.shape != like.shape:
            raise _located(key, value, f"expected shape {like.shape}")
        like[...] = values
