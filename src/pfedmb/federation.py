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

import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
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

CHECKPOINT_SCHEMA_VERSION = 1


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
    """One client: its shards, persistent mixing logits, and RNG seed."""

    client_id: int
    shard: LabeledDataset            # local training data D_i
    test_shard: LabeledDataset
    alpha: nn.AlphaParams            # persists across rounds
    rng_seed: int
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
    rng_seed: int = 0


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
    client: ClientState,
    global_model: nn.Network,
    round_index: int,
    epochs: int,
    lr_alpha: float,
    lr_w: float,
    batch_size: int,
) -> ClientUpdate:
    """Two-phase local update; persists the client's new mixing logits.

    Phase 1 runs E epochs of mini-batch SGD on the mixing logits with the
    received branches held fixed; phase 2 holds the new mixing fixed and runs
    E epochs on all branch weights and biases.  Each phase shuffles with its
    own stream so the batch order of one phase never depends on the other.
    """
    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
    if client.num_samples < 1:
        raise UsageError(f"client {client.client_id} has an empty shard")
    x, y = client.shard.features, client.shard.labels
    n = client.num_samples

    # nn never mutates its inputs, and every phase takes at least one step
    alpha, model = client.alpha, global_model
    for name, phase, wrt, lr in (
        ("mixing", ALPHA_PHASE, nn.WRT_ALPHA, lr_alpha),
        ("weight", WEIGHT_PHASE, nn.WRT_W, lr_w),
    ):
        rng = _rng(client.rng_seed, CLIENT_STREAM, client.client_id, round_index, phase)
        for epoch in range(epochs):
            for idx in _epoch_batches(n, batch_size, rng):
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


@dataclass
class RoundOptions:
    """Per-round knobs shared by every method; strategy None ignores sample_size."""

    epochs: int
    lr_alpha: float
    lr_w: float
    batch_size: int
    sample_size: int
    strategy: AggregationStrategy = AggregationStrategy.ALPHA_WEIGHTED
    threads: int = 1


def _client_pass(client, model, round_index, opts):
    update = client_local_learning(
        client, model, round_index, opts.epochs, opts.lr_alpha, opts.lr_w, opts.batch_size
    )
    train_loss = nn.batch_loss(
        update.model, client.alpha, client.shard.features, client.shard.labels
    )
    return update, train_loss


def _map_clients(work, ids, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, ids))
    return [work(i) for i in ids]


def _snapshot_alpha(clients) -> np.ndarray:
    return np.stack([c.alpha.values() for c in clients])


def run_round(server: ServerState, clients: list, opts: RoundOptions) -> RoundReport:
    """One communication round; advances the server in place and reports it."""
    started = time.perf_counter()
    t = server.round
    if opts.strategy is None:
        sampled = list(range(len(clients)))
    else:
        sampled = sample_clients(server.rng_seed, len(clients), opts.sample_size, t)

    def work(cid):
        return _client_pass(clients[cid], clients[cid].current_model(server), t, opts)

    results = _map_clients(work, sampled, opts.threads)
    updates = [r[0] for r in results]
    if opts.strategy is None:
        for update in updates:
            clients[update.client_id].local_model = update.model
    else:
        server.model = aggregate(updates, opts.strategy, server.model)
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
        alpha_values=_snapshot_alpha(clients),
        duration_seconds=time.perf_counter() - started,
    )


# ------------------------------------------------------------- experiment glue

def setup_experiment(config):
    """Dataset, partition, seeded init -> fresh server and client states."""
    dataset = config.make_dataset()
    part = partition(dataset, config.make_partition_spec())
    dims = config.layer_dims(dataset.input_dim, dataset.num_classes)
    model = nn.init_network(dims, config.branches, seed=[config.seed, INIT_STREAM])
    server = ServerState(model=model, round=0, rng_seed=config.seed)
    clients = [
        ClientState(
            client_id=i,
            shard=dataset.subset(part.train[i]),
            test_shard=dataset.subset(part.test[i]),
            alpha=nn.uniform_alpha(len(dims) - 1, config.branches, config.shared_alpha),
            rng_seed=config.seed,
        )
        for i in range(config.clients)
    ]
    return server, clients


def run_training(config):
    """The full protocol: T rounds of sample/local-learn/aggregate.

    Returns (server, clients, reports); each client's personalized model is
    (client.current_model(server), client.alpha).
    """
    strategy = STRATEGY_FOR_METHOD[config.method]
    server, clients = setup_experiment(config)
    if strategy is None:
        for client in clients:
            client.local_model = server.model.copy()
    opts = RoundOptions(
        epochs=config.local_epochs,
        lr_alpha=config.lr_alpha,
        lr_w=config.lr_w,
        batch_size=config.batch_size,
        sample_size=config.sample_size,
        strategy=strategy,
        threads=config.threads,
    )
    reports = [run_round(server, clients, opts) for _ in range(config.rounds)]
    return server, clients, reports


def run_baseline(kind: str, config):
    """run_training under a baseline method, FEDAVG (one branch) or LOCAL_ONLY."""
    branches = 1 if kind == FEDAVG else config.branches
    return run_training(dataclasses.replace(config, method=kind, branches=branches))


def fine_tune(
    client: ClientState,
    global_model: nn.Network,
    epochs: int,
    lr_alpha: float,
    lr_w: float,
    batch_size: int,
    round_index: int,
):
    """Post-training local adaptation; the result never reaches the server.

    Runs one more two-phase local pass on the client's own data and returns
    (personalized network, mixing logits).
    """
    update = client_local_learning(
        client, global_model, round_index, epochs, lr_alpha, lr_w, batch_size
    )
    return update.model, client.alpha.copy()


def run_experiment(config):
    """End-to-end run of the configured method, fine-tuning included.

    Returns (ExperimentResult, server, clients, personalized models).
    """
    server, clients, reports = run_training(config)

    personalized = []
    accuracies = []
    for client in clients:
        model, _ = fine_tune(
            client,
            client.current_model(server),
            config.local_epochs,
            config.lr_alpha,
            config.lr_w,
            config.batch_size,
            round_index=config.rounds,
        )
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

def save_checkpoint(server: ServerState, clients: list, path) -> None:
    """Single JSON document from which a run resumes bit-exactly.

    Shards are not stored; they rebuild deterministically from the experiment
    config.  Full float precision is kept via repr round-tripping.
    """
    first = clients[0]
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "architecture": {
            "layer_dims": [server.model.in_dim]
            + [layer.out_dim for layer in server.model.layers],
            "num_branches": server.model.num_branches,
            "shared_alpha": first.alpha.shared,
        },
        "round": server.round,
        "server_seed": server.rng_seed,
        "global_weights": [layer.weights.tolist() for layer in server.model.layers],
        "global_biases": [layer.biases.tolist() for layer in server.model.layers],
        "clients": [
            {
                "client_id": c.client_id,
                "num_samples": c.num_samples,
                "alpha_logits": c.alpha.logits.tolist(),
                "rng": {"seed": c.rng_seed, "next_round": server.round},
            }
            for c in clients
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path, train_shards: list, test_shards: list):
    """Rebuild (server, clients) from a checkpoint plus regenerated shards."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ParseError(
            f"{path}: unsupported checkpoint schema {doc.get('schema_version')!r}"
        )
    try:
        return _restore_states(doc, train_shards, test_shards)
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from None


def _restore_states(doc: dict, train_shards: list, test_shards: list):
    arch = doc["architecture"]
    layers = [
        nn.MultiBranchDense(np.asarray(w), np.asarray(b))
        for w, b in zip(doc["global_weights"], doc["global_biases"])
    ]
    server = ServerState(
        model=nn.Network(layers), round=doc["round"], rng_seed=doc["server_seed"]
    )
    if len(train_shards) != len(doc["clients"]) or len(test_shards) != len(doc["clients"]):
        raise ConfigurationError(
            f"checkpoint stores {len(doc['clients'])} clients, "
            f"got {len(train_shards)} shards"
        )
    clients = []
    for entry, shard, test_shard in zip(doc["clients"], train_shards, test_shards):
        if entry["num_samples"] != len(shard):
            raise ConfigurationError(
                f"client {entry['client_id']}: shard has {len(shard)} samples, "
                f"checkpoint recorded {entry['num_samples']}"
            )
        alpha = nn.AlphaParams(
            np.asarray(entry["alpha_logits"]),
            num_layers=len(layers),
            shared=arch["shared_alpha"],
        )
        clients.append(
            ClientState(
                client_id=entry["client_id"],
                shard=shard,
                test_shard=test_shard,
                alpha=alpha,
                rng_seed=entry["rng"]["seed"],
            )
        )
    return server, clients
