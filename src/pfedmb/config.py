"""Experiment configuration: JSON file + flag overrides -> validated config.

Only the two hyperparameters with established defaults are defaulted
(local_epochs=5, batch_size=64); every experiment-defining field must be
explicit.  ExperimentConfig checks its rules when it is constructed and
reports every violation at once, each under its dotted key; parse_config
only loads the file, merges the flag overrides and resolves participation.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from . import data as datamod
from .errors import ParseError, ValidationError, field_violations
from .federation import FEDAVG, STRATEGY_FOR_METHOD

METHODS = tuple(STRATEGY_FOR_METHOD)

OUTPUT_DIR_ENV = "PFEDMB_OUT"

DEFAULT_LOCAL_EPOCHS = 5
DEFAULT_BATCH_SIZE = 64

# smallest allowed value of each numeric ExperimentConfig field
MINIMUMS = {
    "clients": 1, "sample_size": 1, "rounds": 0, "branches": 1, "lr_alpha": 0, "lr_w": 0,
    "seed": 0, "local_epochs": 1, "batch_size": 1, "threads": 1,
}

def _build(cls, section: dict):
    """cls(**section) after rejecting unknown keys; a missing key is passed as MISSING."""
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(section) - defaults.keys())
    if unknown:
        raise ValidationError([f"{key}: unknown key" for key in unknown])
    return cls(**{**defaults, **section})


def _file_under(prefix: str, build, problems: dict):
    """build(), or None after filing each violation it raises under prefix + its key."""
    try:
        return build()
    except ValidationError as exc:
        for violation in exc.violations:
            problems.setdefault(prefix + violation.split(":", 1)[0], prefix + violation)
        return None


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description; a pure function of file + flags.

    Construction checks every rule, those of the data and partition sections
    included, and raises one ValidationError naming each violation's key.  The
    section specs it builds to do so are kept as synthetic_spec (None for CSV
    data) and partition_spec, and the dataset and partition are built from them;
    change a field with dataclasses.replace, which checks and builds them again.
    """

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

    def __post_init__(self):
        problems = field_violations(self, MINIMUMS)
        self.synthetic_spec = self.partition_spec = None
        valid = problems.keys().isdisjoint
        if valid({"method"}) and self.method not in METHODS:
            problems["method"] = f"method: {self.method!r} is not one of {list(METHODS)}"
        if valid({"method", "branches"}) and self.method == FEDAVG and self.branches != 1:
            problems["branches"] = (
                f"branches: method fedavg requires branches=1, got {self.branches}"
            )
        if valid({"clients", "sample_size"}) and self.sample_size > self.clients:
            problems["sample_size"] = (
                f"sample_size: must lie in [1, {self.clients}], got {self.sample_size}"
            )
        dims = self.hidden_dims
        if valid({"hidden_dims"}) and not all(type(d) is int and d >= 1 for d in dims):
            problems["hidden_dims"] = (
                f"hidden_dims: expected a list of positive ints, got {self.hidden_dims!r}"
            )
        if valid({"data", "seed"}):
            if len(self.data) != 1 or not self.data.keys() & {"synthetic", "csv"}:
                problems["data"] = (
                    "data: must be exactly one of {'synthetic': {...}} or {'csv': path}"
                )
            elif "csv" in self.data:
                if not isinstance(self.data["csv"], str):
                    problems["data.csv"] = "data.csv: expected a file path string"
            elif not isinstance(self.data["synthetic"], dict):
                problems["data.synthetic"] = "data.synthetic: expected an object"
            else:
                self.synthetic_spec = _file_under("data.synthetic.", lambda: _build(
                    datamod.SyntheticTaskSpec, {"seed": self.seed, **self.data["synthetic"]}
                ), problems)
        if valid({"partition", "clients", "seed"}):
            self.partition_spec = _file_under("partition.", self._build_partition_spec, problems)
        if problems:
            raise ValidationError(sorted(problems.values()))
        self.lr_alpha, self.lr_w = float(self.lr_alpha), float(self.lr_w)
        self.hidden_dims = tuple(self.hidden_dims)

    def semantic_dict(self) -> dict:
        """Everything that determines results; excludes output_dir and the no-op threads."""
        semantic = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("output_dir", "threads")
        }
        semantic["hidden_dims"] = list(self.hidden_dims)
        return semantic

    def make_dataset(self) -> datamod.LabeledDataset:
        if self.synthetic_spec is not None:
            return datamod.generate_synthetic(self.synthetic_spec)
        return datamod.load_csv(self.data["csv"])

    def _build_partition_spec(self) -> datamod.PartitionSpec:
        params = dict(self.partition)
        scheme = params.pop("scheme", None)
        if not isinstance(scheme, str) or scheme not in datamod.SCHEMES:
            raise ValidationError(
                f"scheme: unknown scheme {scheme!r}; choose from {sorted(datamod.SCHEMES)}"
            )
        seed = params.pop("seed", self.seed)
        scheme_spec = _build(datamod.SCHEMES[scheme], params)
        return datamod.PartitionSpec(scheme_spec, num_clients=self.clients, seed=seed)

    def layer_dims(self, input_dim: int, num_classes: int) -> list:
        return [input_dim, *self.hidden_dims, num_classes]


# the keys a config file or a flag override may set; participation is the
# fractional spelling of sample_size
TOP_KEYS = frozenset(f.name for f in fields(ExperimentConfig)) | {"participation"}


def parse_config(path=None, overrides=None) -> ExperimentConfig:
    """Resolve a JSON config file plus flag overrides into an ExperimentConfig.

    Overrides use the same keys as the file and win over it; participation or
    sample_size among them replaces both spellings in the file.  Raises
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
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    spellings = {"participation", "sample_size"}  # the two spellings of S
    if overrides.keys() & spellings:  # an override of either replaces the file's
        raw = {k: v for k, v in raw.items() if k not in spellings}
    raw = {**raw, **overrides}

    problems = [f"{key}: unknown key" for key in sorted(set(raw) - TOP_KEYS)]
    # MISSING makes ExperimentConfig report a required field as missing
    values = {f.name: raw.get(f.name, f.default) for f in fields(ExperimentConfig)}

    # participation fraction and explicit sample size are two spellings of S
    if "participation" in raw:
        frac, clients = raw["participation"], raw.get("clients")
        if "sample_size" in raw:
            problems.append("sample_size: give either sample_size or participation, not both")
        elif isinstance(frac, bool) or not isinstance(frac, (int, float)) or not 0 < frac <= 1:
            problems.append(f"participation: expected a fraction in (0, 1], got {frac!r}")
        elif type(clients) is int:
            values["sample_size"] = max(1, round(frac * clients))
    elif "sample_size" not in raw:
        problems.append("participation: required (or give sample_size)")

    values["output_dir"] = raw.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV)
    if values["output_dir"] is None:
        problems.append(
            f"output_dir: set it in the config, pass --out, or export {OUTPUT_DIR_ENV}"
        )
    # stand-ins for values whose absence a violation above already reports
    if values["sample_size"] is MISSING:
        values["sample_size"] = 1
    if values["output_dir"] is None:
        values["output_dir"] = ""

    try:
        config = ExperimentConfig(**values)
    except ValidationError as exc:
        problems += exc.violations
    if problems:
        raise ValidationError(sorted(problems))
    return config
