"""Experiment configuration: JSON file + flag overrides -> validated config.

Only the two hyperparameters with established defaults are defaulted
(local_epochs=5, batch_size=64); every experiment-defining field must be
explicit.  Unknown keys are rejected, and validation reports every violation
at once, each naming the offending field.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from . import data as datamod
from .errors import ConfigurationError, ParseError, ValidationError

METHODS = ("pfedmb", "pfedmb_plain_agg", "fedavg", "local")

OUTPUT_DIR_ENV = "PFEDMB_OUT"

DEFAULT_LOCAL_EPOCHS = 5
DEFAULT_BATCH_SIZE = 64

# partition scheme name -> scheme dataclass; its fields are the allowed keys,
# and the fields without a default are the required ones
SCHEMES = {
    "random_k_classes": datamod.RandomKClasses,
    "dirichlet": datamod.Dirichlet,
    "size_heterogeneous": datamod.SizeHeterogeneous,
    "paired_clusters": datamod.PairedClusters,
}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description; a pure function of file + flags."""

    method: str
    clients: int
    sample_size: int
    rounds: int
    branches: int
    lr_alpha: float
    lr_w: float
    shared_alpha: bool
    hidden_dims: tuple
    data: dict                      # {"synthetic": {...}} or {"csv": path}
    partition: dict                 # {"scheme": ..., **params, "seed": ...}
    seed: int
    output_dir: str
    local_epochs: int = DEFAULT_LOCAL_EPOCHS
    batch_size: int = DEFAULT_BATCH_SIZE
    threads: int = 1

    def semantic_dict(self) -> dict:
        """Everything that determines results; excludes output_dir and threads."""
        return {
            "method": self.method,
            "clients": self.clients,
            "sample_size": self.sample_size,
            "rounds": self.rounds,
            "local_epochs": self.local_epochs,
            "batch_size": self.batch_size,
            "branches": self.branches,
            "lr_alpha": self.lr_alpha,
            "lr_w": self.lr_w,
            "shared_alpha": self.shared_alpha,
            "hidden_dims": list(self.hidden_dims),
            "data": self.data,
            "partition": self.partition,
            "seed": self.seed,
        }

    def make_dataset(self) -> datamod.LabeledDataset:
        if "synthetic" in self.data:
            spec_args = dict(self.data["synthetic"])
            spec_args.setdefault("seed", self.seed)
            return datamod.generate_synthetic(datamod.SyntheticTaskSpec(**spec_args))
        return datamod.load_csv(self.data["csv"])

    def make_partition_spec(self) -> datamod.PartitionSpec:
        params = dict(self.partition)
        scheme_cls = SCHEMES[params.pop("scheme")]
        seed = params.pop("seed", self.seed)
        return datamod.PartitionSpec(
            scheme=scheme_cls(**params), num_clients=self.clients, seed=seed
        )

    def layer_dims(self, input_dim: int, num_classes: int) -> list:
        return [input_dim, *self.hidden_dims, num_classes]


# the keys a config file or a flag override may set; participation is the
# fractional spelling of sample_size
TOP_KEYS = frozenset(f.name for f in fields(ExperimentConfig)) | {"participation"}


def _expect(raw, key, types, problems, required=True, default=None):
    if key not in raw:
        if required:
            problems.append(f"{key}: required field is missing")
        return default
    value = raw[key]
    if types is bool:
        if not isinstance(value, bool):
            problems.append(f"{key}: expected a boolean, got {value!r}")
            return default
        return value
    if isinstance(value, bool) or not isinstance(value, types):
        problems.append(f"{key}: expected {getattr(types, '__name__', types)}, got {value!r}")
        return default
    return value


def _validate_data_section(raw, problems):
    if not isinstance(raw, dict) or len(raw) != 1 or not (raw.keys() & {"synthetic", "csv"}):
        problems.append("data: must be exactly one of {'synthetic': {...}} or {'csv': path}")
        return None
    if "csv" in raw:
        if not isinstance(raw["csv"], str):
            problems.append("data.csv: expected a file path string")
            return None
        return {"csv": raw["csv"]}
    section = raw["synthetic"]
    if not isinstance(section, dict):
        problems.append("data.synthetic: expected an object")
        return None
    unknown = set(section) - {f.name for f in fields(datamod.SyntheticTaskSpec)}
    for key in sorted(unknown):
        problems.append(f"data.synthetic.{key}: unknown key")
    if unknown:
        return None
    try:
        datamod.SyntheticTaskSpec(**{"seed": 0, **section})
    except (ConfigurationError, TypeError) as exc:
        problems.append(f"data.synthetic: {exc}")
        return None
    return {"synthetic": dict(section)}


def _validate_partition_section(raw, clients, problems):
    if not isinstance(raw, dict) or "scheme" not in raw:
        problems.append("partition: must be an object with a 'scheme' key")
        return None
    scheme = raw["scheme"]
    if scheme not in SCHEMES:
        problems.append(
            f"partition.scheme: unknown scheme {scheme!r}; choose from {sorted(SCHEMES)}"
        )
        return None
    scheme_fields = fields(SCHEMES[scheme])
    allowed = {f.name for f in scheme_fields} | {"scheme", "seed"}
    unknown = set(raw) - allowed
    for key in sorted(unknown):
        problems.append(f"partition.{key}: unknown key for scheme {scheme}")
    if unknown:
        return None
    section = dict(raw)
    for key in sorted(f.name for f in scheme_fields if f.default is MISSING):
        if key not in section:
            problems.append(f"partition.{key}: required by scheme {scheme}")
            return None
    if scheme == "paired_clusters" and isinstance(clients, int):
        if section["num_pairs"] * 2 != clients:
            problems.append(
                f"partition.num_pairs: {section['num_pairs']} pairs need "
                f"{section['num_pairs'] * 2} clients, config has {clients}"
            )
    if "seed" in section and (not isinstance(section["seed"], int) or section["seed"] < 0):
        problems.append("partition.seed: expected a nonnegative integer")
    return section


def parse_config(path=None, overrides=None) -> ExperimentConfig:
    """Resolve a JSON config file plus flag overrides into an ExperimentConfig.

    Overrides use the same keys as the file and win over it.  Raises
    ValidationError listing every violation, or ParseError for unreadable JSON.
    """
    raw = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ParseError(f"{p}: no such config file")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{p}: line {exc.lineno}: {exc.msg}") from None
        if not isinstance(raw, dict):
            raise ParseError(f"{p}: top level must be a JSON object")
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}

    problems = []
    for key in sorted(set(raw) - TOP_KEYS):
        problems.append(f"{key}: unknown key")

    method = _expect(raw, "method", str, problems)
    clients = _expect(raw, "clients", int, problems)
    rounds = _expect(raw, "rounds", int, problems)
    branches = _expect(raw, "branches", int, problems)
    lr_alpha = _expect(raw, "lr_alpha", (int, float), problems)
    lr_w = _expect(raw, "lr_w", (int, float), problems)
    shared_alpha = _expect(raw, "shared_alpha", bool, problems)
    seed = _expect(raw, "seed", int, problems)
    local_epochs = _expect(
        raw, "local_epochs", int, problems, required=False, default=DEFAULT_LOCAL_EPOCHS
    )
    batch_size = _expect(
        raw, "batch_size", int, problems, required=False, default=DEFAULT_BATCH_SIZE
    )
    threads = _expect(raw, "threads", int, problems, required=False, default=1)

    if method is not None and method not in METHODS:
        problems.append(f"method: {method!r} is not one of {list(METHODS)}")
    for name, value, minimum in (
        ("clients", clients, 1),
        ("rounds", rounds, 0),
        ("branches", branches, 1),
        ("local_epochs", local_epochs, 1),
        ("batch_size", batch_size, 1),
        ("threads", threads, 1),
        ("seed", seed, 0),
    ):
        if value is not None and value < minimum:
            problems.append(f"{name}: must be >= {minimum}, got {value}")
    for name, value in (("lr_alpha", lr_alpha), ("lr_w", lr_w)):
        if value is not None and value < 0:
            problems.append(f"{name}: must be >= 0, got {value}")
    if method == "fedavg" and branches is not None and branches != 1:
        problems.append(f"branches: method fedavg requires branches=1, got {branches}")

    hidden_dims = raw.get("hidden_dims")
    if hidden_dims is None:
        problems.append("hidden_dims: required field is missing")
        hidden_dims = ()
    elif not isinstance(hidden_dims, list) or any(
        isinstance(d, bool) or not isinstance(d, int) or d < 1 for d in hidden_dims
    ):
        problems.append(f"hidden_dims: expected a list of positive ints, got {hidden_dims!r}")
        hidden_dims = ()

    # participation fraction and explicit sample size are two spellings of S
    sample_size = None
    if "sample_size" in raw and "participation" in raw:
        problems.append("sample_size: give either sample_size or participation, not both")
    elif "participation" in raw:
        frac = raw["participation"]
        if isinstance(frac, bool) or not isinstance(frac, (int, float)) or not 0 < frac <= 1:
            problems.append(f"participation: expected a fraction in (0, 1], got {frac!r}")
        elif clients is not None:
            sample_size = max(1, round(frac * clients))
    elif "sample_size" in raw:
        sample_size = _expect(raw, "sample_size", int, problems)
    else:
        problems.append("participation: required (or give sample_size)")
    if sample_size is not None and clients is not None and not 1 <= sample_size <= clients:
        problems.append(
            f"sample_size: must lie in [1, {clients}], got {sample_size}"
        )

    data_section = None
    if "data" in raw:
        data_section = _validate_data_section(raw["data"], problems)
    else:
        problems.append("data: required field is missing")

    partition_section = None
    if "partition" in raw:
        partition_section = _validate_partition_section(raw["partition"], clients, problems)
    else:
        problems.append("partition: required field is missing")

    output_dir = raw.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV)
    if output_dir is None:
        problems.append(
            f"output_dir: set it in the config, pass --out, or export {OUTPUT_DIR_ENV}"
        )
    elif not isinstance(output_dir, str):
        problems.append(f"output_dir: expected a path string, got {output_dir!r}")

    if problems:
        raise ValidationError(sorted(problems))

    return ExperimentConfig(
        method=method,
        clients=clients,
        sample_size=sample_size,
        rounds=rounds,
        branches=branches,
        lr_alpha=float(lr_alpha),
        lr_w=float(lr_w),
        shared_alpha=shared_alpha,
        hidden_dims=tuple(hidden_dims),
        data=data_section,
        partition=partition_section,
        seed=seed,
        output_dir=output_dir,
        local_epochs=local_epochs,
        batch_size=batch_size,
        threads=threads,
    )
