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
One local pass serves every round and fine-tuning: it trains its clients' mixing
phases in lockstep, grouped by model and batches per epoch, then their weight phases
chunk by chunk, and finishes each client in canonical (ascending id) order.
Evaluation stacks clients too.  config.threads is accepted but ignored.
"""

from __future__ import annotations

import ctypes
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

CHECKPOINT_SCHEMA_VERSION = 4

DEAD_BRANCH_FLOOR = 1e-12  # share of the sampled sum(n_i) below which a branch is dead
STACK_BYTES = 1 << 20  # per stack: a multi-step weight stack's branches, else what a call reads


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
    # a uint32 array where every part fits one word: the list's seed words, read faster
    return np.random.default_rng(np.array(key, np.uint32) if max(key) < 1 << 32 else list(key))


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
    """What a sampled client returns: new branch parameters, mixing weights and train loss."""

    num_samples: int
    model: nn.Network
    alpha_values: np.ndarray  # (num_layers, B) simplex rows
    train_loss: float = None  # on the whole shard; None when fine-tuning


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


def _batches(chunk: list, round_index: int, phase: int, config):
    """(epoch, flat indices into the chunk's shards back to back, s) of each lockstep
    mini-batch of its phase; client s's order in epoch e is its stream's e-th permutation.
    s is None for a batch of every client: all of an equal chunk's, and each epoch's full
    batches of a ragged one (unequal shards of as many batches), whose rest is s's alone."""
    sizes, bs = [c.num_samples for c in chunk], config.batch_size
    n = max(sizes)
    rows = np.tile(np.arange(len(chunk) * n).reshape(-1, n), (config.local_epochs, 1, 1))
    full = n if min(sizes) == n else (n - 1) // bs * bs  # rows of an epoch that train stacked
    if full < n:  # client s's rows start after the shards before it, not at s * n
        rows -= (np.arange(0, len(chunk) * n, n) - np.cumsum([0] + sizes[:-1]))[:, None]
    for s, client in enumerate(chunk):  # every epoch's order at once, in place
        key = config.seed, CLIENT_STREAM, client.client_id, round_index, phase
        _rng(*key).permuted(rows[:, s, : sizes[s]], axis=1, out=rows[:, s, : sizes[s]])
    for epoch in range(config.local_epochs):
        for start in range(0, full, bs):
            yield epoch, rows[epoch, :, start : start + bs].ravel(), None
        for s in range(len(chunk) if full < n else 0):
            yield epoch, rows[epoch, s, full : sizes[s]], s


def _local_pass(clients: list, models: list, round_index: int, config):
    """Two-phase local learning of client i from models[i] in round round_index, yielding
    each ClientUpdate in canonical order: every client's mixing phase in one lockstep pass,
    then each weight chunk when its first client is reached; client_local_learning finishes
    each client, raising the located error of either phase or of the train loss."""
    alphas = list(_lockstep(clients, models, [c.alpha for c in clients], ALPHA_PHASE,
                            round_index, config))
    trained = _lockstep(clients, models, alphas, WEIGHT_PHASE, round_index, config)
    for client, alpha in zip(clients, alphas):
        yield client_local_learning(client, next(trained), alpha)


def _chunks(models: list, keys: list):
    """Index lists of the entries of one model object and one key (rows, holds branches,
    ...), not None, in first-seen order, each cut to STACK_BYTES: per client its branches,
    counted once, if it holds branches, else what one step reads at `rows`."""
    groups = {}
    for i, (model, key) in enumerate(zip(models, keys)):
        if key is not None:
            groups.setdefault((id(model), *key), []).append(i)
    for (_, rows, branches, *_), group in groups.items():
        per_client = 8 * sum(layer.weights.size + layer.biases.size if branches
                             else layer.out_dim * (layer.in_dim + rows)
                             for layer in models[group[0]].layers)
        size = max(1, STACK_BYTES // per_client)
        yield from (group[k : k + size] for k in range(0, len(group), size))


def _lockstep(clients: list, models: list, alphas: list, phase: int, round_index: int,
              config):
    """Per client in canonical order, phase's result if alphas[i] is AlphaParams (with branches
    to mix, in the mixing phase), else alphas[i]: new AlphaParams, or the trained network and
    its train loss (None when fine-tuning), or the located NumericError that ended either.
    Clients of one model and as many batches per epoch (one size, if a shard fits a batch)
    train as one stack per STACK_BYTES, bit for bit as if alone, on reaching its first client."""
    weights, bs, keys, done = phase == WEIGHT_PHASE, config.batch_size, [], {}
    for client, alpha in zip(clients, alphas):
        n = client.num_samples  # first batch's rows, whether branches step twice, batch count
        keys.append((min(n, bs), weights and (config.local_epochs > 1 or n > bs), -(-n // bs))
                    if isinstance(alpha, nn.AlphaParams) and (weights or alpha.num_branches > 1)
                    else None)
    chunks = {chunk[0]: chunk for chunk in _chunks(models, keys)}
    for i, alpha in enumerate(alphas):
        if chunk := chunks.get(i):
            done.update(zip(chunk, _train_chunk([clients[j] for j in chunk], models[i],
                                                [alphas[j] for j in chunk], phase,
                                                round_index, config)))
        yield done.pop(i, alpha)


def _branches(net: nn.Network, s: int) -> nn.Network:
    """Client s's branches in a stack of them, as views."""
    return nn.Network([nn.MultiBranchDense(layer.weights[s], layer.biases[s])
                       for layer in net.layers])


def _train_chunk(chunk: list, model: nn.Network, alphas: list, phase: int, round_index: int,
                 config) -> list:
    """chunk's phase, one kernel call and one step per SGD step; per client what _lockstep
    yields for it.  Two or more clients train stacked over a leading axis.  The
    first step writes the stepped parameters into its gradients, which later steps step in
    place, as a client's own batch of a ragged chunk steps its slice.  A stack that raises
    is rerun client by client from the start, on the same streams, to locate each error."""
    weights, stacked, alpha, net = phase == WEIGHT_PHASE, len(chunk) > 1, alphas[0], model
    stage, wrt = ("weight phase", nn.WRT_W) if weights else ("mixing phase", nn.WRT_ALPHA)
    lr, loss = config.lr_w if weights else config.lr_alpha, None
    x_all = np.concatenate([c.shard.features for c in chunk])  # the shards, back to back
    y_all = np.concatenate([c.shard.labels for c in chunk])
    if stacked:
        alpha = replace(alpha, logits=np.stack([a.logits for a in alphas]))
    try:  # a stack's error is dropped: the rerun locates each client's
        with np.errstate(over="ignore", invalid="ignore"):  # may run past a failing client
            for step, (epoch, rows, s) in enumerate(_batches(chunk, round_index, phase, config)):
                batch = x_all.take(rows, axis=0), y_all.take(rows)
                s_net, s_alpha = net, alpha
                if s is not None:  # client s's own batch, on views of its slice of the stack
                    s_net = _branches(net, s) if weights else net
                    s_alpha = replace(alpha, logits=alpha.logits[s])
                _, grads = _at(chunk[0], round_index, f"{stage}, epoch {epoch}", nn.loss_and_grads,
                               s_net, s_alpha, batch, wrt)
                if weights:  # the first step writes into grads; the chunk then owns them
                    s_net = nn.step_network(s_net, grads, lr, step > 0)
                else:
                    s_alpha = nn.step_alpha(s_alpha, grads, lr, step > 0)
                if s is None:
                    net, alpha = s_net, s_alpha
        if weights and round_index < config.rounds and len({c.num_samples for c in chunk}) > 1:
            loss = [nn.batch_loss(_branches(net, s), replace(alpha, logits=alpha.logits[s]),
                                  c.shard.features, c.shard.labels)  # a ragged chunk's
                    for s, c in enumerate(chunk)]
        elif weights and round_index < config.rounds:
            loss = _at(chunk[0], round_index, "train loss", nn.batch_loss, net, alpha, x_all,
                       y_all)
    except NumericError as exc:
        if not stacked:
            return [exc]
        return [_train_chunk([c], model, [a], phase, round_index, config)[0]
                for c, a in zip(chunk, alphas)]
    if not stacked:  # a phase takes at least one step, so net is never model
        return [(net, loss) if weights else alpha]
    return [(_branches(net, s), loss if loss is None else float(loss[s])) if weights
            else replace(alpha, logits=alpha.logits[s]) for s in range(len(chunk))]


def _at(client: ClientState, round_index: int, stage: str, fn, *args):
    """fn(*args); a NumericError it raises is re-raised naming the client, round and stage."""
    try:
        return fn(*args)
    except NumericError as exc:
        where = f"client {client.client_id}, round {round_index}, {stage}"
        raise NumericError(f"{where}: {exc}") from None


def client_local_learning(client: ClientState, trained, alpha) -> ClientUpdate:
    """Finish one client's local learning in canonical order; persists its new mixing logits.

    alpha is the client's mixing phase result, and trained its weight phase result: the
    branches trained with alpha held fixed and their train loss, or the located
    NumericError of either phase or of the train loss, which is raised here.
    """
    if isinstance(trained, NumericError):
        raise trained
    client.alpha = alpha
    return ClientUpdate(client.num_samples, trained[0], alpha.values(), trained[1])


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
    total, layers = 0, []
    # an overflowing sum is reported by the round's evaluation, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for u in updates:
            total += u.num_samples
            for (denom, w_acc, b_acc), layer, alpha_l in zip(sums, u.model.layers, alpha_of(u)):
                coeffs = u.num_samples * alpha_l
                denom += coeffs
                w_acc += coeffs[:, None, None] * layer.weights
                b_acc += coeffs[:, None] * layer.biases
        floor = DEAD_BRANCH_FLOOR * total
        for prev, (denom, w_acc, b_acc) in zip(previous_global.layers, sums):
            dead = denom < floor  # such a branch's sums are divided by 1, then overwritten
            denom[dead] = 1.0
            w_acc /= denom[:, None, None]
            b_acc /= denom[:, None]
            w_acc[dead], b_acc[dead] = prev.weights[dead], prev.biases[dead]
            layers.append(nn.MultiBranchDense(w_acc, b_acc))
    return nn.Network(layers)


def run_round(server: ServerState, clients: list, config) -> RoundReport:
    """One communication round of config.method; advances the server in place."""
    t = server.round
    strategy = STRATEGY_FOR_METHOD[config.method]
    sampled = list(range(len(clients))) if strategy is None else sample_clients(
        config.seed, len(clients), config.sample_size, t)

    members = [clients[cid] for cid in sampled]
    models = [client.current_model(server) for client in members]
    updates = []
    for client, update in zip(members, _local_pass(members, models, t, config)):
        updates.append(update)
        if strategy is None:
            client.local_model = update.model
    if strategy is not None:
        server.model = aggregate(updates, strategy, server.model)
    server.round = t + 1

    return RoundReport(
        sampled=sampled,
        train_losses=[update.train_loss for update in updates],
        test_accuracies=_evaluate(clients, [c.current_model(server) for c in clients], t),
        alpha_values=np.stack([c.alpha.values() for c in clients]),
    )


def _evaluate(clients: list, models: list, round_index: int) -> list:
    """Each client's test accuracy on models[i] with its alpha: one evaluate_client call per
    chunk of clients of one model and test-shard length, stacked if it holds two or more.
    An error reruns every client alone, in canonical order, to name the first that fails."""
    accuracies = {}
    try:
        for chunk in _chunks(models, [(len(c.test_shard), False) for c in clients]):
            members = [clients[i] for i in chunk]
            alpha, shard = members[0].alpha, members[0].test_shard
            if len(members) > 1:  # their logits stacked, their test shards back to back
                alpha = replace(alpha, logits=np.stack([c.alpha.logits for c in members]))
                shard = nn._trusted(  # rows that setup checked, back to back
                    LabeledDataset, num_classes=shard.num_classes,
                    features=np.concatenate([c.test_shard.features for c in members]),
                    labels=np.concatenate([c.test_shard.labels for c in members]))
            result = metrics.evaluate_client(models[chunk[0]], alpha, shard)
            accuracies.update(zip(chunk, result if len(members) > 1 else [result]))
    except NumericError:
        return [_at(c, round_index, "evaluation", metrics.evaluate_client, model, c.alpha,
                    c.test_shard) for c, model in zip(clients, models)]
    return [accuracies[i] for i in range(len(clients))]


# ------------------------------------------------------------- experiment glue

def setup_experiment(config):
    """Dataset, partition, seeded init -> fresh server and client states."""
    dataset = config.make_dataset()
    part = partition(dataset, config.partition_spec)
    dims = config.layer_dims(dataset.input_dim, dataset.num_classes)
    model = nn.init_network(dims, config.branches, seed=[config.seed, INIT_STREAM])
    server = ServerState(model=model)
    local = STRATEGY_FOR_METHOD[config.method] is None
    train, test = [], []
    for lists, shards in ((part.train, train), (part.test, test)):  # a split's rows, one copy
        rows, ends = dataset.subset(np.concatenate(lists)), np.cumsum([len(i) for i in lists])
        shards += [nn._trusted(LabeledDataset, features=rows.features[a:b],
                               labels=rows.labels[a:b], num_classes=rows.num_classes)
                   for a, b in zip([0, *ends], ends)]
    clients = [
        ClientState(
            client_id=i,
            shard=train[i],
            test_shard=test[i],
            alpha=nn.uniform_alpha(len(dims) - 1, config.branches, config.shared_alpha),
            local_model=model.copy() if local else None,
        )
        for i in range(config.clients)
    ]
    return server, clients


def fine_tune(clients: list, models: list, config):
    """Post-training local adaptation: a generator of the clients' personalized networks in
    canonical order, which never reach the server.  One more local pass, keyed as round
    config.rounds, whose weight chunks are freed once their last network is dropped."""
    for update in _local_pass(clients, models, config.rounds, config):
        yield update.model
        del update  # before the next chunk trains, so that this one can be freed


def _keep_freed_heap() -> None:
    """Pin glibc malloc's dynamic thresholds at their ceilings, so that what one training
    step frees stays in the heap for the next instead of being trimmed and faulted in
    again: blocks under 32 MiB come from the heap, whose top is trimmed past 64 MiB free."""
    mallopt = getattr(ctypes.pythonapi, "mallopt", None)  # the process's symbols, libc's too
    if mallopt is not None:
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD; setting it freezes the mmap threshold
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def run_experiment(config):
    """End-to-end run of the configured method, fine-tuning included.

    Returns (ExperimentResult, server, clients).  Each network that fine_tune yields is
    evaluated and dropped; a caller who wants the networks fine-tunes as this does.
    """
    _keep_freed_heap()
    server, clients = setup_experiment(config)
    reports = [run_round(server, clients, config) for _ in range(config.rounds)]
    tuned = fine_tune(clients, [client.current_model(server) for client in clients], config)
    accuracies = [_at(client, config.rounds, "evaluation", metrics.evaluate_client,
                      next(tuned), client.alpha, client.test_shard) for client in clients]

    result = metrics.ExperimentResult(
        per_round_mean_test_accuracy=[float(np.mean(r.test_accuracies)) for r in reports],
        per_round_mean_train_loss=[float(np.mean(r.train_losses)) for r in reports],
        final_client_accuracies=accuracies,
        final_alpha=[c.alpha.values() for c in clients],
        alpha_trajectory=[r.alpha_values for r in reports],
        config=config.semantic_dict(),
    )
    return result, server, clients


# ----------------------------------------------------------------- checkpoints

def _fingerprint(config) -> str:
    return metrics.config_fingerprint(config.semantic_dict())


def checkpoint_arrays(server: ServerState, clients: list) -> dict:
    """The run state's arrays, each under the dotted key the checkpoint file stores it at.

    Under `local` each client's own branches are keyed too.  The arrays are the
    state's own, not copies.
    """
    arrays = {f"clients[{i}].alpha_logits": c.alpha.logits for i, c in enumerate(clients)}
    nets = [("global_", server.model)] + [(f"clients[{i}].local_model.", c.local_model)
                                          for i, c in enumerate(clients) if c.local_model]
    for prefix, net in nets:
        for l, layer in enumerate(net.layers):
            arrays[f"{prefix}weights[{l}]"] = layer.weights
            arrays[f"{prefix}biases[{l}]"] = layer.biases
    return arrays


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
        arrays = checkpoint_arrays(server, clients)
        unknown = doc.keys() - arrays.keys() - {"schema_version", "config_fingerprint", "round"}
        if unknown:
            raise ParseError(f"{min(unknown)}: unknown key")
        for key, like in arrays.items():
            _restore(like, _member(doc, key), key)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return server, clients


def _located(key: str, value, problem: str) -> ParseError:
    return ParseError(f"{key}: {problem}, got {reprlib.repr(value)}")


def _member(doc: dict, name: str):
    if name not in doc:
        raise ParseError(f"{name}: missing key")
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


def _restore(like: np.ndarray, value, key: str) -> None:
    """Check that value is nested lists of finite numbers in like's shape; copy it into like."""
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
