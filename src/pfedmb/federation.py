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
A round runs its sampled clients one after another in canonical (ascending
id) order; config.threads is accepted for existing configs but changes nothing.
"""

from __future__ import annotations

import json
import reprlib
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import metrics, nn
from .data import LabeledDataset, partition
from .errors import ConfigurationError, NumericError, ParseError, UsageError

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


def run_round(server: ServerState, clients: list, config) -> RoundReport:
    """One communication round of config.method; advances the server in place."""
    started = time.perf_counter()
    t = server.round
    strategy = STRATEGY_FOR_METHOD[config.method]
    if strategy is None:
        sampled = list(range(len(clients)))
    else:
        sampled = sample_clients(config.seed, len(clients), config.sample_size, t)

    updates, losses = [], []
    for cid in sampled:
        client = clients[cid]
        update = client_local_learning(client, client.current_model(server), t, config)
        if strategy is None:
            client.local_model = update.model
        try:
            losses.append(nn.batch_loss(update.model, client.alpha,
                                        client.shard.features, client.shard.labels))
        except NumericError as exc:
            raise NumericError(f"client {cid}, round {t}, train loss: {exc}") from None
        updates.append(update)
    if strategy is not None:
        server.model = aggregate(updates, strategy, server.model)
    server.round = t + 1

    accuracies = [
        metrics.evaluate_client(c.current_model(server), c.alpha, c.test_shard)
        for c in clients
    ]
    return RoundReport(
        round_index=t,
        sampled=sampled,
        train_losses=losses,
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
        per_round_mean_test_accuracy=[r.mean_test_accuracy for r in reports],
        per_round_mean_train_loss=[r.mean_train_loss for r in reports],
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

    setup_experiment(config) builds the fresh state; the document must then
    match its checkpoint_arrays key for key, and each array is copied into the
    fresh one in place.  Every value is checked before it is used: a file
    written under another config, or a malformed or misshapen value, raises
    ParseError naming the path and the dotted key (clients[1].alpha_logits).
    """
    server, clients = setup_experiment(config)
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None
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
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
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
