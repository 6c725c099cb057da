"""Synthetic classification tasks and non-IID client partitioning.

A partition assigns dataset indices to clients three times over: the train,
validation, and test pools are split per class with the same ratio and then
distributed across clients with the same per-class draws, so every split of a
client sees the same label mixture.

All randomness flows through numpy Generators seeded from explicit values;
repeated calls with the same spec are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    ParseError,
    PartitionError,
    ValidationError,
    field_violations,
)

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
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ConfigurationError("features must be a nonempty (n, d) matrix")
        if not np.isfinite(self.features).all():
            raise ConfigurationError("features must be finite (no nan or inf)")
        if self.labels.shape != (self.features.shape[0],):
            raise ConfigurationError("labels must be one integer per sample")
        if self.num_classes < 1:
            raise ConfigurationError("num_classes must be >= 1")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ConfigurationError(
                f"labels must lie in [0, {self.num_classes})"
            )

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx], self.num_classes)

    def class_indices(self) -> list:
        """Index array per class, in dataset order."""
        return [np.flatnonzero(self.labels == c) for c in range(self.num_classes)]


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
        if problems:
            raise ValidationError(sorted(problems.values()))


def generate_synthetic(spec: SyntheticTaskSpec) -> LabeledDataset:
    """Balanced dataset: per class c, points mean_c + N(0, noise_std^2 I)."""
    rng = np.random.default_rng(spec.seed)
    means = rng.uniform(
        -spec.class_mean_scale,
        spec.class_mean_scale,
        size=(spec.num_classes, spec.input_dim),
    )
    blocks, labels = [], []
    for c in range(spec.num_classes):
        pts = means[c] + rng.normal(
            0.0, spec.noise_std, size=(spec.samples_per_class, spec.input_dim)
        )
        blocks.append(pts)
        labels.append(np.full(spec.samples_per_class, c, dtype=np.int64))
    return LabeledDataset(
        np.concatenate(blocks), np.concatenate(labels), spec.num_classes
    )


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

    @property
    def num_clients(self) -> int:
        return len(self.train)


def apportion(total: int, weights) -> np.ndarray:
    """Integer counts proportional to weights, summing exactly to total.

    Largest-remainder rounding; ties broken toward the lowest index.
    """
    w = np.asarray(weights, dtype=np.float64)
    s = w.sum()
    if total > 0 and s <= 0:
        raise ConfigurationError("cannot apportion over all-zero weights")
    if total == 0:
        return np.zeros(len(w), dtype=np.int64)
    quotas = total * w / s
    counts = np.floor(quotas).astype(np.int64)
    frac = quotas - counts
    leftover = total - counts.sum()
    if leftover > 0:
        order = np.argsort(-frac, kind="stable")
        counts[order[:leftover]] += 1
    return counts


def _check_class_count(spec: PartitionSpec, num_classes: int) -> None:
    """The partition rules that depend on the dataset's class count."""
    s, n = spec.scheme, spec.num_clients
    if isinstance(s, (RandomKClasses, SizeHeterogeneous)) and s.k > num_classes:
        raise ConfigurationError(f"k={s.k} must lie in [1, {num_classes}]")
    if isinstance(s, SizeHeterogeneous) and n * s.k < num_classes:
        raise ConfigurationError(
            f"{n} clients x {s.k} classes cannot cover {num_classes} classes"
        )
    if isinstance(s, PairedClusters) and s.num_pairs * s.classes_per_pair > num_classes:
        raise ConfigurationError(
            f"{s.num_pairs} pairs x {s.classes_per_pair} classes exceed "
            f"{num_classes} available classes"
        )


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
        for c in range(num_classes):
            w[c] = rng.dirichlet(np.full(n, s.beta))
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


def partition(dataset: LabeledDataset, spec: PartitionSpec) -> Partition:
    """Distribute a dataset across clients per the spec's scheme.

    Any client left without samples in some split triggers a full redraw with
    an incremented sub-seed, at most MAX_PARTITION_ATTEMPTS times.
    """
    _check_class_count(spec, dataset.num_classes)
    per_class = dataset.class_indices()

    for attempt in range(MAX_PARTITION_ATTEMPTS):
        rng = np.random.default_rng((spec.seed, attempt))
        weights = _class_weights(spec, dataset.num_classes, rng)
        if isinstance(spec.scheme, SizeHeterogeneous) and (
            weights.sum(axis=1) == 0.0
        ).any():
            continue  # some class unowned; all of its samples must be assigned

        splits = [
            [[] for _ in range(spec.num_clients)] for _ in range(3)
        ]  # train/val/test -> client -> chunks
        for c in range(dataset.num_classes):
            shuffled = rng.permutation(per_class[c])
            counts = apportion(len(shuffled), DEFAULT_SPLIT_RATIO)
            start = 0
            for s, count in enumerate(counts):
                pool = shuffled[start : start + count]
                start += count
                if weights[c].sum() == 0.0:
                    continue  # class held by nobody (allowed for k-class schemes)
                shares = apportion(len(pool), weights[c])
                offset = 0
                for i in range(spec.num_clients):
                    if shares[i] > 0:
                        splits[s][i].append(pool[offset : offset + shares[i]])
                    offset += shares[i]

        lists = [
            [
                np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.int64)
                for chunks in split
            ]
            for split in splits
        ]
        if all(len(lists[s][i]) > 0 for s in range(3) for i in range(spec.num_clients)):
            return Partition(train=lists[0], val=lists[1], test=lists[2])

    raise PartitionError(
        f"no viable partition after {MAX_PARTITION_ATTEMPTS} attempts "
        f"(seed={spec.seed}); dataset too small for the spec"
    )


# ------------------------------------------------------------------- CSV files

CSV_LABEL_COLUMN = "label"


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write `label,f1,...,fd` rows with full float precision."""
    lines = [
        ",".join([CSV_LABEL_COLUMN] + [f"f{j + 1}" for j in range(dataset.input_dim)])
    ]
    for label, row in zip(dataset.labels, dataset.features):
        lines.append(",".join([str(int(label))] + [repr(float(v)) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_csv(path) -> LabeledDataset:
    """Parse a `label,f1,...,fd` file; labels re-indexed densely from 0."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    lines = path.read_text().splitlines()
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
        raw_labels.append(label)
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows")

    raw = np.asarray(raw_labels)
    classes = np.unique(raw)
    dense = np.searchsorted(classes, raw)
    return LabeledDataset(np.asarray(rows), dense, num_classes=len(classes))
