"""Synthetic classification tasks and non-IID client partitioning.

A partition assigns dataset indices to clients three times over: the train,
validation, and test pools are split per class with the same ratio and then
distributed across clients with the same per-class draws, so every split of a
client sees the same label mixture.

All randomness flows through numpy Generators seeded from explicit values;
repeated calls with the same spec are bit-identical.
"""

from __future__ import annotations

import json
import math
import os
import re
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, ParseError, PartitionError, ValidationError,
                     field_violations)
from .nn import _trusted, integral_labels

MAX_PARTITION_ATTEMPTS = 100

# train / validation / test ratio (40k/10k/10k-style)
DEFAULT_SPLIT_RATIO = (4, 1, 1)


@dataclass
class LabeledDataset:
    """Feature matrix (n, d), integer labels (n,), and the class count."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ConfigurationError("features must be a nonempty (n, d) matrix")
        if not np.isfinite(self.features).all():
            raise ConfigurationError("features must be finite (no nan or inf)")
        if labels.shape != (self.features.shape[0],) or not integral_labels(labels):
            raise ConfigurationError("labels must be one integer per sample")
        if self.num_classes < 1:
            raise ConfigurationError("num_classes must be >= 1")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise ConfigurationError(f"labels must lie in [0, {self.num_classes})")
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        """A copy of the rows at indices, not checked again: they passed once."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1 or not idx.size:
            raise ConfigurationError("features must be a nonempty (n, d) matrix")
        return _trusted(LabeledDataset, features=self.features[idx],
                        labels=self.labels[idx], num_classes=self.num_classes)


@dataclass
class SyntheticTaskSpec:
    """Gaussian blob task: one uniform-drawn mean per class, isotropic noise."""

    num_classes: int
    input_dim: int
    class_mean_scale: float = 1.0
    noise_std: float = 1.0
    samples_per_class: int = 50
    seed: int = 0

    def __post_init__(self):
        problems = field_violations(
            self, {"num_classes": 2, "input_dim": 1, "samples_per_class": 1, "seed": 0}
        )
        if "noise_std" not in problems and self.noise_std <= 0:
            problems["noise_std"] = f"noise_std: must be > 0, got {self.noise_std!r}"
        if "class_mean_scale" not in problems and not math.isfinite(2.0 * self.class_mean_scale):
            problems["class_mean_scale"] = (
                f"class_mean_scale: must be finite when doubled, got {self.class_mean_scale!r}")
        if problems:
            raise ValidationError(sorted(problems.values()))


def generate_synthetic(spec: SyntheticTaskSpec) -> LabeledDataset:
    """Balanced dataset: per class c, points mean_c + N(0, noise_std^2 I)."""
    rng = np.random.default_rng(spec.seed)
    scale = spec.class_mean_scale
    means = rng.uniform(-scale, scale, size=(spec.num_classes, spec.input_dim))
    c, n_c = spec.num_classes, spec.samples_per_class
    points = rng.normal(0.0, spec.noise_std, size=(c, n_c, spec.input_dim))
    points += means[:, None, :]
    return LabeledDataset(points.reshape(c * n_c, -1), np.repeat(np.arange(c), n_c), c)


# ---------------------------------------------------------------- partitioning

@dataclass(frozen=True)
class RandomKClasses:
    """Each client holds k uniformly chosen classes, class samples split equally."""

    k: int


@dataclass(frozen=True)
class Dirichlet:
    """Per class, client proportions drawn from Dir(beta * 1_N)."""

    beta: float


@dataclass(frozen=True)
class SizeHeterogeneous:
    """k classes per client; each owner's share of a class is u/sum(u), u~U(u_min,u_max)."""

    k: int
    u_min: float = 0.3
    u_max: float = 0.7


@dataclass(frozen=True)
class PairedClusters:
    """Clients 2m and 2m+1 share the same classes; class sets disjoint across pairs."""

    num_pairs: int
    classes_per_pair: int


# partition scheme name -> scheme dataclass; its fields are the allowed config
# keys, and the fields without a default are the required ones
SCHEMES = {
    "random_k_classes": RandomKClasses,
    "dirichlet": Dirichlet,
    "size_heterogeneous": SizeHeterogeneous,
    "paired_clusters": PairedClusters,
}

# smallest allowed value of each integer scheme parameter
SCHEME_MINIMUMS = {"k": 1, "num_pairs": 1, "classes_per_pair": 1}


@dataclass(frozen=True)
class PartitionSpec:
    """A scheme, a client count and a seed; checks every rule that needs no dataset."""

    scheme: object
    num_clients: int
    seed: int = 0

    def __post_init__(self):
        s = self.scheme
        problems = field_violations(self, {"num_clients": 1, "seed": 0})
        if isinstance(s, tuple(SCHEMES.values())):
            problems.update(field_violations(s, SCHEME_MINIMUMS))
        else:
            problems["scheme"] = f"scheme: unknown partition scheme {type(s).__name__}"
        valid = problems.keys().isdisjoint
        if isinstance(s, Dirichlet) and valid({"beta"}) and s.beta <= 0:
            problems["beta"] = f"beta: must be > 0, got {s.beta!r}"
        if isinstance(s, SizeHeterogeneous) and valid({"u_min", "u_max"}):
            if s.u_min <= 0:
                problems["u_min"] = f"u_min: must be > 0, got {s.u_min!r}"
            elif s.u_max < s.u_min:
                problems["u_max"] = f"u_max: must be >= u_min {s.u_min!r}, got {s.u_max!r}"
        if isinstance(s, PairedClusters) and valid({"num_pairs", "num_clients"}) and (
            self.num_clients != 2 * s.num_pairs
        ):
            problems["num_pairs"] = (
                f"num_pairs: {s.num_pairs} pairs need {2 * s.num_pairs} clients, "
                f"got {self.num_clients}"
            )
        if problems:
            raise ValidationError(sorted(problems.values()))


@dataclass
class Partition:
    """Per-client index lists into one dataset, one list per split."""

    train: list
    val: list
    test: list


def apportion(total, weights) -> np.ndarray:
    """Integer counts proportional to weights, summing exactly to total, by largest remainder
    with ties toward the lowest index; totals (R,) and weights (R, K) give R rows, each as its
    own call would.  The weights must sum to more than 0; partition passes no other rows."""
    w = np.asarray(weights, dtype=np.float64)
    total = np.asarray(total)[..., None]
    quotas = total * w / w.sum(axis=-1, keepdims=True)
    counts = np.floor(quotas).astype(np.int64)
    order = np.argsort(counts - quotas, axis=-1, kind="stable")  # remainders, largest first
    leftover = total - counts.sum(axis=-1, keepdims=True)
    return counts + (np.argsort(order, axis=-1) < leftover)  # a rank below leftover gets 1


def _check_class_count(spec: PartitionSpec, num_classes: int) -> None:
    """The partition rules that depend on the dataset's class count."""
    s, n = spec.scheme, spec.num_clients
    if isinstance(s, (RandomKClasses, SizeHeterogeneous)) and s.k > num_classes:
        raise ConfigurationError(f"k={s.k} must lie in [1, {num_classes}]")
    if isinstance(s, SizeHeterogeneous) and n * s.k < num_classes:
        raise ConfigurationError(f"{n} clients x {s.k} classes cannot cover {num_classes} classes")
    if isinstance(s, PairedClusters) and s.num_pairs * s.classes_per_pair > num_classes:
        raise ConfigurationError(f"{s.num_pairs} pairs x {s.classes_per_pair} classes exceed "
                                 f"{num_classes} available classes")


def _class_weights(spec: PartitionSpec, num_classes: int, rng) -> np.ndarray:
    """Allocation weight of each client for each class, shape (C, N).

    Row c describes how class c's samples are shared; zero means the client
    does not hold the class.  Draw order is fixed: scheme draws happen here,
    before any index shuffling.
    """
    n, s = spec.num_clients, spec.scheme
    w = np.zeros((num_classes, n))
    if isinstance(s, RandomKClasses):
        for i in range(n):
            chosen = rng.choice(num_classes, size=s.k, replace=False)
            w[chosen, i] = 1.0
    elif isinstance(s, Dirichlet):
        w[:] = rng.dirichlet(np.full(n, s.beta), size=num_classes)
    elif isinstance(s, SizeHeterogeneous):
        chosen = [rng.choice(num_classes, size=s.k, replace=False) for _ in range(n)]
        for i in range(n):
            for c in chosen[i]:
                w[c, i] = rng.uniform(s.u_min, s.u_max)
    elif isinstance(s, PairedClusters):
        perm = rng.permutation(num_classes)
        for m in range(s.num_pairs):
            block = perm[m * s.classes_per_pair : (m + 1) * s.classes_per_pair]
            w[block, 2 * m] = 1.0
            w[block, 2 * m + 1] = 1.0
    return w


def _group(labels: np.ndarray, num_groups: int) -> list:
    """Ascending indices of each label 0..num_groups-1; larger labels are dropped."""
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=num_groups)[:num_groups]).tolist()
    return [order[start:end] for start, end in zip([0, *ends], ends)]


def partition(dataset: LabeledDataset, spec: PartitionSpec) -> Partition:
    """Distribute a dataset across clients per the spec's scheme.

    Each sample gets one owner label, split * num_clients + client; a sample
    of a class nobody holds keeps the label 3 * num_clients and is left out.
    Any client left without samples in some split triggers a full redraw with
    an incremented sub-seed, at most MAX_PARTITION_ATTEMPTS times.
    """
    _check_class_count(spec, dataset.num_classes)
    n = spec.num_clients
    per_class = _group(dataset.labels, dataset.num_classes)

    for attempt in range(MAX_PARTITION_ATTEMPTS):
        rng = np.random.default_rng((spec.seed, attempt))
        weights = _class_weights(spec, dataset.num_classes, rng)
        if isinstance(spec.scheme, SizeHeterogeneous) and (weights.sum(axis=1) == 0.0).any():
            continue  # some class unowned; all of its samples must be assigned

        shuffled = [rng.permutation(members) for members in per_class]
        held = np.flatnonzero(weights.sum(axis=1))  # a class held by nobody stays out
        pools = apportion([len(shuffled[c]) for c in held], DEFAULT_SPLIT_RATIO).ravel()
        shares = apportion(pools, np.repeat(weights[held], 3, axis=0))  # row (class, split)
        owner = np.full(len(dataset), 3 * n)
        owner[np.concatenate([shuffled[c] for c in held])] = np.repeat(
            np.tile(np.arange(3 * n), len(held)), shares.ravel())

        groups = _group(owner, 3 * n)
        if all(len(g) > 0 for g in groups):
            return Partition(train=groups[:n], val=groups[n : 2 * n], test=groups[2 * n :])

    raise PartitionError(
        f"no viable partition after {MAX_PARTITION_ATTEMPTS} attempts "
        f"(seed={spec.seed}); dataset too small for the spec"
    )


# --------------------------------------------------------------- files on disk
# read_utf8 reads every input file (config, CSV, checkpoint); write_atomic every output file

def write_atomic(path, text: str) -> None:
    """Write text to path all at once or not at all.

    The text goes to a temporary file beside path, is fsynced, and is renamed
    over path; if anything fails the temporary file is removed and whatever
    was at path before stays as it was.  The file gets the permissions a
    plain open() would give it (0o666 less the umask).  A path has one writer
    at a time: a temporary file of path's exact form (.<name>.<32 hex>.tmp)
    can only be one that a killed writer left, and is deleted first.
    """
    path = Path(path)
    stale = re.compile(re.escape(f".{path.name}.") + r"[0-9a-f]{32}\.tmp")
    for name in os.listdir(path.parent):
        if stale.fullmatch(name):
            (path.parent / name).unlink(missing_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_utf8(path) -> str:
    """The text of path as UTF-8 after an optional byte-order mark, whatever the locale.

    ParseError names a missing file or non-UTF-8 text; any other OSError propagates.
    """
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file") from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None


def read_json_object(path) -> dict:
    """The JSON object in path (read by read_utf8), else a ParseError naming path."""
    text = read_utf8(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an int past the digit limit; too deep
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return doc


CSV_LABEL_COLUMN = "label"


def load_csv(path) -> LabeledDataset:
    """Parse a `label,f1,...,fd` file; labels re-indexed densely from 0."""
    lines = read_utf8(path).splitlines()
    if not lines or not lines[0].split(",")[0].strip().lower() == CSV_LABEL_COLUMN:
        raise ParseError(f"{path}: line 1: expected a header starting with 'label'")
    width = len(lines[0].split(","))
    if width < 2:
        raise ParseError(f"{path}: line 1: need at least one feature column")

    raw_labels, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
            )
        try:
            label = float(fields[0])
            row = [float(v) for v in fields[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        if not all(map(math.isfinite, [label, *row])):
            raise ParseError(f"{path}: line {lineno}: non-finite value (nan or inf)")
        if not label.is_integer():
            raise ParseError(f"{path}: line {lineno}: label {fields[0].strip()} is not an integer")
        raw_labels.append(label)
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows")

    raw = np.asarray(raw_labels)
    classes = np.unique(raw)
    dense = np.searchsorted(classes, raw)
    return LabeledDataset(np.asarray(rows), dense, num_classes=len(classes))
