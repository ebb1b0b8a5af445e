"""Exception hierarchy shared across the package, and check_fields, the one
checker of the typed fields of every JSON document divseed reads (manifest,
points line, checkpoint meta, config, ablation grid) and its predicates: a
bool is not an integer or a number, and a float is not an integer.

`cli.main` maps these onto process exit codes, the `EXIT_*` constants in
cli.py: ConfigError 2, DataError 3, NumericError 4, TensorFormatError 5
(like OSError), any other DivseedError 3.
"""

import math
import sys


class DivseedError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DivseedError):
    """Invalid or inconsistent configuration / arguments."""


class DataError(DivseedError):
    """Dataset, manifest, or label problems (missing models, bad tags, ...)."""


class NumericError(DivseedError):
    """Non-finite values encountered where finiteness is guaranteed."""


class TensorFormatError(DivseedError):
    """Malformed tensor file: bad magic, truncation, unsupported dims."""


def check_fields(doc, rows, where: str, error: type[DivseedError]) -> list:
    """The values of doc's fields, one per (key, check, want) row in row
    order. A dot in a key reaches into an object. Raises error naming where
    and the key when a field is missing or check(value) is false."""
    values = []
    for key, valid, want in rows:
        value = doc
        for part in key.split("."):
            if not isinstance(value, dict) or part not in value:
                raise error(f"{where}: missing key {key!r}")
            value = value[part]
        if not valid(value):
            raise error(f"{where}: {key!r} must be {want}, got {value!r}")
        values.append(value)
    return values


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A float, or an integer a float can hold."""
    return isinstance(value, float) or (is_int(value) and abs(value) <= sys.float_info.max)


def is_count(value) -> bool:
    return is_int(value) and value >= 1


def is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(is_int, value))


def require_count(name: str, value) -> None:
    """ConfigError unless value is at least 1."""
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value!r}")


def require_rate(name: str, value) -> None:
    """ConfigError unless value is a positive finite number."""
    if not (is_number(value) and math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")
