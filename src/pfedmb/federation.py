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
Client work therefore never depends on scheduling, and a round may run its
clients on any number of threads with bit-identical results.
"""

from __future__ import annotations

import json
import reprlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import metrics, nn
from .data import LabeledDataset, partition
from .errors import ConfigurationError, NumericError, ParseError, PfedmbError, UsageError

# stream tags; distinct leading constants keep the generator keys disjoint
INIT_STREAM = 101
SAMPLE_STREAM = 102
CLIENT_STREAM = 103

ALPHA_PHASE = 0
WEIGHT_PHASE = 1

FEDAVG = "fedavg"
LOCAL_ONLY = "local"

CHECKPOINT_SCHEMA_VERSION = 3


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
    local_model: nn.Network = None   # only the no-communication baseline uses this

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

    client_id: int
    num_samples: int
    model: nn.Network
    alpha_values: np.ndarray  # (num_layers, B) simplex rows


@dataclass
class RoundReport:
    round_index: int
    sampled: list
    train_losses: list        # aligned with sampled, loss on the full shard
    test_accuracies: list     # every client, personalized (current_model, own alpha)
    alpha_values: np.ndarray  # (N, num_layers, B) snapshot after the round
    duration_seconds: float

    @property
    def mean_test_accuracy(self) -> float:
        return float(np.mean(self.test_accuracies))

    @property
    def mean_train_loss(self) -> float:
        return float(np.mean(self.train_losses))


def sample_clients(seed: int, num_clients: int, sample_size: int, round_index: int):
    """S distinct client ids, uniform without replacement, keyed by (seed, round)."""
    if not 1 <= sample_size <= num_clients:
        raise ConfigurationError(
            f"sample size {sample_size} must lie in [1, {num_clients}]"
        )
    rng = _rng(seed, SAMPLE_STREAM, round_index)
    ids = rng.choice(num_clients, size=sample_size, replace=False)
    return [int(i) for i in np.sort(ids)]


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def client_local_learning(
    client: ClientState, global_model: nn.Network, round_index: int, config
) -> ClientUpdate:
    """Two-phase local update; persists the client's new mixing logits.

    Phase 1 runs config.local_epochs epochs of mini-batch SGD on the mixing
    logits with the received branches held fixed; phase 2 holds the new mixing
    fixed and runs as many epochs on all branch weights and biases.  Each phase
    shuffles with its own stream so the batch order of one phase never depends
    on the other.
    """
    x, y = client.shard.features, client.shard.labels
    n = client.num_samples

    # nn never mutates its inputs, and every phase takes at least one step
    alpha, model = client.alpha, global_model
    for name, phase, wrt, lr in (
        ("mixing", ALPHA_PHASE, nn.WRT_ALPHA, config.lr_alpha),
        ("weight", WEIGHT_PHASE, nn.WRT_W, config.lr_w),
    ):
        rng = _rng(config.seed, CLIENT_STREAM, client.client_id, round_index, phase)
        for epoch in range(config.local_epochs):
            for idx in _epoch_batches(n, config.batch_size, rng):
                try:
                    _, grads = nn.loss_and_grads(model, alpha, (x[idx], y[idx]), wrt=wrt)
                except NumericError as exc:
                    raise NumericError(
                        f"client {client.client_id}, round {round_index}, "
                        f"{name} phase, epoch {epoch}: {exc}"
                    ) from None
                if phase == ALPHA_PHASE:
                    alpha = nn.step_alpha(alpha, grads, lr)
                else:
                    model = nn.step_network(model, grads, lr)

    client.alpha = alpha
    return ClientUpdate(client.client_id, n, model, alpha.values())


def aggregate(
    updates: list,
    strategy: AggregationStrategy,
    previous_global: nn.Network,
) -> nn.Network:
    """Branch-wise weighted average of the participating clients' parameters.

    Alpha-weighted: branch (l, b) gets coefficients n_i * alpha_i[l, b]; a
    branch whose total coefficient mass falls below 1e-12 * sum(n_j) keeps its
    previous global value instead of dividing by (near) zero.  Plain: every
    branch gets coefficients n_i.
    """
    if not updates:
        raise UsageError("cannot aggregate an empty update list")
    num_layers = previous_global.num_layers
    num_branches = previous_global.num_branches
    for u in updates:
        if (
            u.model.num_layers != num_layers
            or u.model.num_branches != num_branches
            or u.alpha_values.shape != (num_layers, num_branches)
        ):
            raise ConfigurationError(
                f"update from client {u.client_id} does not match the global shapes"
            )

    total = float(sum(u.num_samples for u in updates))
    floor = 1e-12 * total
    layers = []
    for l, prev in enumerate(previous_global.layers):
        # running sums in update order, one entry per branch
        denom = w_acc = b_acc = None
        for u in updates:
            if strategy is AggregationStrategy.ALPHA_WEIGHTED:
                coeffs = u.num_samples * u.alpha_values[l]
            else:
                coeffs = np.full(num_branches, float(u.num_samples))
            w = coeffs[:, None, None] * u.model.layers[l].weights
            bias = coeffs[:, None] * u.model.layers[l].biases
            if denom is None:
                denom, w_acc, b_acc = coeffs, w, bias
            else:
                denom = denom + coeffs
                w_acc += w
                b_acc += bias
        dead = denom < floor
        safe = np.where(dead, 1.0, denom)
        layers.append(nn.MultiBranchDense(
            np.where(dead[:, None, None], prev.weights, w_acc / safe[:, None, None]),
            np.where(dead[:, None], prev.biases, b_acc / safe[:, None]),
        ))
    return nn.Network(layers)


def _map_clients(work, ids, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, ids))
    return [work(i) for i in ids]


def run_round(server: ServerState, clients: list, config) -> RoundReport:
    """One communication round of config.method; advances the server in place."""
    started = time.perf_counter()
    t = server.round
    strategy = STRATEGY_FOR_METHOD[config.method]
    if strategy is None:
        sampled = list(range(len(clients)))
    else:
        sampled = sample_clients(config.seed, len(clients), config.sample_size, t)

    def work(cid):
        client = clients[cid]
        update = client_local_learning(client, client.current_model(server), t, config)
        shard = client.shard
        return update, nn.batch_loss(update.model, client.alpha, shard.features, shard.labels)

    results = _map_clients(work, sampled, config.threads)
    updates = [r[0] for r in results]
    if strategy is None:
        for update in updates:
            clients[update.client_id].local_model = update.model
    else:
        server.model = aggregate(updates, strategy, server.model)
    server.round = t + 1

    accuracies = [
        metrics.evaluate_client(c.current_model(server), c.alpha, c.test_shard)
        for c in clients
    ]
    return RoundReport(
        round_index=t,
        sampled=sampled,
        train_losses=[r[1] for r in results],
        test_accuracies=accuracies,
        alpha_values=np.stack([c.alpha.values() for c in clients]),
        duration_seconds=time.perf_counter() - started,
    )


# ------------------------------------------------------------- experiment glue

def setup_experiment(config):
    """Dataset, partition, seeded init -> fresh server and client states."""
    dataset = config.make_dataset()
    part = partition(dataset, config.partition_spec)
    dims = config.layer_dims(dataset.input_dim, dataset.num_classes)
    model = nn.init_network(dims, config.branches, seed=[config.seed, INIT_STREAM])
    server = ServerState(model=model)
    clients = [
        ClientState(
            client_id=i,
            shard=dataset.subset(part.train[i]),
            test_shard=dataset.subset(part.test[i]),
            alpha=nn.uniform_alpha(len(dims) - 1, config.branches, config.shared_alpha),
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
    if STRATEGY_FOR_METHOD[config.method] is None:
        for client in clients:
            client.local_model = server.model.copy()
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

    Returns (ExperimentResult, server, clients, personalized models).
    """
    server, clients, reports = run_training(config)
    personalized, accuracies = [], []
    for client in clients:
        model = fine_tune(client, client.current_model(server), config)
        personalized.append(model)
        accuracies.append(metrics.evaluate_client(model, client.alpha, client.test_shard))

    semantic = config.semantic_dict()
    result = metrics.ExperimentResult(
        method=config.method,
        per_round_mean_test_accuracy=[r.mean_test_accuracy for r in reports],
        per_round_mean_train_loss=[r.mean_train_loss for r in reports],
        final_client_accuracies=accuracies,
        final_alpha=[c.alpha.values() for c in clients],
        alpha_trajectory=[r.alpha_values for r in reports],
        config_fingerprint=metrics.config_fingerprint(semantic),
        config=semantic,
    )
    return result, server, clients, personalized


# ----------------------------------------------------------------- checkpoints

def _model_doc(model: nn.Network) -> dict:
    return {
        "weights": [layer.weights.tolist() for layer in model.layers],
        "biases": [layer.biases.tolist() for layer in model.layers],
    }


def _fingerprint(config) -> str:
    return metrics.config_fingerprint(config.semantic_dict())


def save_checkpoint(server: ServerState, clients: list, config, path) -> None:
    """Single JSON document from which a run of config resumes bit-exactly.

    It holds only what the config cannot rebuild: the round, the global
    branches, and per client the mixing logits and, under `local`, the client's
    own branches.  Shards, shapes and RNG keys regenerate from the config,
    which the document names by its fingerprint.  Full float precision is kept
    via repr round-tripping.  The file is written beside path and renamed over
    it, so a write that fails leaves any earlier checkpoint at path as it was.
    """
    global_model = _model_doc(server.model)
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config_fingerprint": _fingerprint(config),
        "round": server.round,
        "global_weights": global_model["weights"],
        "global_biases": global_model["biases"],
        "clients": [
            {
                "alpha_logits": c.alpha.logits.tolist(),
                "local_model": None if c.local_model is None else _model_doc(c.local_model),
            }
            for c in clients
        ],
    }
    metrics.write_atomic(path, json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path, config):
    """Rebuild the (server, clients) of a run of config from its checkpoint.

    setup_experiment(config) builds the fresh state; the file then overwrites
    the round, the global branches, and each client's logits and own branches.
    Every value is checked before it is used: a file written under another
    config, or a malformed or misshapen value, raises ParseError naming the
    path and the dotted key (clients[1].alpha_logits).
    """
    server, clients = setup_experiment(config)
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    try:
        _restore_states(doc, config, server, clients)
    except PfedmbError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return server, clients


class _Node:
    """A value read from a checkpoint document and its dotted key."""

    def __init__(self, value, key: str):
        self.value, self.key = value, key

    def error(self, problem: str) -> ParseError:
        return ParseError(f"{self.key}: {problem}, got {reprlib.repr(self.value)}")

    def __getitem__(self, name: str) -> "_Node":
        if not isinstance(self.value, dict):
            raise self.error("expected a JSON object")
        key = f"{self.key}.{name}" if self.key else name
        if name not in self.value:
            raise ParseError(f"{key}: missing key {name!r}")
        return _Node(self.value[name], key)

    def items(self) -> list:
        if not isinstance(self.value, list):
            raise self.error("expected a list")
        return [_Node(v, f"{self.key}[{i}]") for i, v in enumerate(self.value)]

    def int(self) -> int:
        if type(self.value) is not int or self.value < 0:
            raise self.error("expected an int >= 0")
        return self.value

    def array(self, shape: tuple) -> np.ndarray:
        """Nested lists of finite numbers in the given shape, as a float64 array."""
        try:
            cells = np.array(self.value, dtype=object)
            if cells.ndim == len(shape) and all(type(v) in (int, float) for v in cells.flat):
                values = cells.astype(np.float64)
                if np.isfinite(values).all():
                    if values.shape != shape:
                        raise self.error(f"expected shape {shape}")
                    return values
        except (ValueError, OverflowError):
            pass
        raise self.error(f"expected a {len(shape)}-D array of finite numbers")


def _read_network(weights: _Node, biases: _Node, like: nn.Network) -> nn.Network:
    """The branches stored under weights and biases, in the shapes of like."""
    w_layers, b_layers = weights.items(), biases.items()
    for node, found in ((weights, w_layers), (biases, b_layers)):
        if len(found) != like.num_layers:
            raise node.error(f"expected {like.num_layers} layers")
    return nn.Network([
        nn.MultiBranchDense(w.array(layer.weights.shape), b.array(layer.biases.shape))
        for w, b, layer in zip(w_layers, b_layers, like.layers)
    ])


def _restore_states(doc, config, server: ServerState, clients: list) -> None:
    """Overwrite the fresh state of config with what the document holds."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise _Node(doc.get("schema_version"), "schema_version").error(
            f"unsupported checkpoint schema, expected {CHECKPOINT_SCHEMA_VERSION}"
        )
    root = _Node(doc, "")
    stored, fingerprint = root["config_fingerprint"].value, _fingerprint(config)
    if stored != fingerprint:
        raise ParseError(
            f"config_fingerprint: written under config {stored!r}, "
            f"not under this config {fingerprint!r}"
        )
    server.round = root["round"].int()
    if server.round > config.rounds:
        raise root["round"].error(f"expected at most the config's {config.rounds} rounds")
    server.model = _read_network(root["global_weights"], root["global_biases"], server.model)

    entries = root["clients"].items()
    if len(entries) != len(clients):
        raise root["clients"].error(f"expected the config's {len(clients)} clients")
    local_only = STRATEGY_FOR_METHOD[config.method] is None
    for entry, client in zip(entries, clients):
        shape = client.alpha.logits.shape
        client.alpha = nn.AlphaParams(
            entry["alpha_logits"].array(shape), client.alpha.num_layers, client.alpha.shared
        )
        local = entry["local_model"]
        if local.value is not None:
            client.local_model = _read_network(local["weights"], local["biases"], server.model)
        if (client.local_model is None) == local_only:
            expected = "its own branches" if local_only else "null"
            raise local.error(f"expected {expected} under method {config.method!r}")
