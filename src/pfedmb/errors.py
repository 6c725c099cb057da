"""Exception hierarchy for the pfedmb package, and the field check behind ValidationError."""

from __future__ import annotations

import math
from dataclasses import MISSING, fields


class PfedmbError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(PfedmbError):
    """Structurally invalid inputs: shape mismatches, infeasible specs."""


class UsageError(PfedmbError):
    """A call that is malformed at runtime, e.g. an empty batch."""


class NumericError(PfedmbError):
    """Non-finite values encountered during computation."""


class ParseError(PfedmbError):
    """Malformed input file; the message names the offending location."""


class PartitionError(PfedmbError):
    """A partitioner could not produce a usable split."""


class ValidationError(ConfigurationError):
    """Invalid experiment configuration; lists every violation found.

    Each violation reads "<key>: <what is wrong>".
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# annotation name -> (accepted types, the name messages use, as in JSON)
_FIELD_TYPES = {
    "int": (int, "int"),
    "float": ((int, float), "float"),
    "bool": (bool, "bool"),
    "str": (str, "str"),
    "tuple": ((tuple, list), "list"),
    "dict": (dict, "object"),
}


def _is_finite(number) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an int too large for a float
        return False


def field_violations(obj, minimums: dict) -> dict:
    """{field name: violation} for the fields of a dataclass instance.

    A field's type comes from its annotation: a bool never passes as a number,
    a float must be finite, and MISSING marks a required field left out.  A
    field of the right type is then held to its entry in `minimums`.
    """
    problems = {}
    for f in fields(obj):
        if f.type not in _FIELD_TYPES:
            continue
        value = getattr(obj, f.name)
        accepted, label = _FIELD_TYPES[f.type]
        if value is MISSING:
            problems[f.name] = f"{f.name}: required field is missing"
        elif (isinstance(value, bool) and f.type != "bool") or not isinstance(value, accepted):
            problems[f.name] = f"{f.name}: expected {label}, got {value!r}"
        elif f.type == "float" and not _is_finite(value):
            problems[f.name] = f"{f.name}: must be finite, got {value!r}"
        elif f.name in minimums and value < minimums[f.name]:
            problems[f.name] = f"{f.name}: must be >= {minimums[f.name]}, got {value!r}"
    return problems
