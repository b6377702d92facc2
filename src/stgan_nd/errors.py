"""Exception types shared across the package, and the one rule and the one
JSON reader for every value a command reads back: a flag, a manifest, a
preprocessing file or a checkpoint. Each reader states its file's table
once and calls ``check``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path


class StganError(Exception):
    """Base class for all library errors."""


class SpecError(StganError, ValueError):
    """An argument, layer spec, or configuration violates its contract."""


class ShapeError(StganError, ValueError):
    """Array dimensions do not line up at runtime."""


class StateError(StganError, RuntimeError):
    """An object is used in the wrong state (wrong mode, foreign cache, ...)."""


class DataError(StganError, ValueError):
    """A data file or data array has invalid content."""


class NumericError(StganError, ArithmeticError):
    """Training produced NaN/inf values."""


@dataclass(frozen=True)
class Leaf:
    """The rule of one value: what it must be, and the test of it."""
    what: str
    ok: Callable[[object], bool]


def _leaf(what: str, is_type: Callable[[object], bool], bounds: str) -> Leaf:
    """``what`` within ``bounds``: "", "> 0", ">= 1", or an interval like "[0, 1)"."""
    if bounds[:1] in ("[", "("):
        low, high = map(float, bounds[1:-1].split(","))
        closed = bounds[0] == "[", bounds[-1] == "]"
        what += " in"
    else:  # one bound, or none
        op, limit = bounds.split() if bounds else (">=", "-inf")
        low, high, closed = float(limit), math.inf, (op == ">=", True)
    return Leaf(f"{what} {bounds}".rstrip(), lambda v: is_type(v) and (
        low <= v if closed[0] else low < v) and (v <= high if closed[1] else v < high))


# the rule: an int is a JSON integer and never a bool; a number is a finite
# int or float and never a bool
def integer(bounds: str = "") -> Leaf:
    return _leaf("an integer", lambda v: type(v) is int, bounds)


def number(bounds: str = "") -> Leaf:
    return _leaf("a number", lambda v: type(v) in (int, float) and math.isfinite(v), bounds)


def _float(text):
    try:
        return float(text) if type(text) is str else None
    except ValueError:
        return None


def decimal(bounds: str = "") -> Leaf:
    rule = number(bounds)
    return Leaf(f"the decimal string of {rule.what}", lambda v: rule.ok(_float(v)))


def either(first: Leaf, second: Leaf) -> Leaf:
    return Leaf(f"{first.what} or {second.what}", lambda v: first.ok(v) or second.ok(v))


def one_of(*options: str) -> Leaf:
    return Leaf(f"one of {', '.join(options)}", lambda v: type(v) is str and v in options)


def retired(**values) -> dict:
    """The table of keys of an earlier version that a reader ignores: each
    may be missing, or hold its one value, a number (never a bool)."""
    return {f"{key}?": Leaf(repr(value), lambda v, value=value: type(v) in (int, float)
                            and v == value) for key, value in values.items()}


STRING = Leaf("a string", lambda v: type(v) is str)
BOOL = Leaf("true or false", lambda v: type(v) is bool)
TRUE = Leaf("true", lambda v: v is True)
ANY = Leaf("any value", lambda v: True)
NULL = Leaf("null", lambda v: v is None)


# rules that depend on the value: each returns the rule to check it by
def nullable(rule):
    return lambda v: NULL if v is None else rule


def list_of(item, nonempty: bool = False):
    """A list, non-empty if so marked, whose every item keeps ``item``."""
    refused = Leaf("a non-empty list" if nonempty else "a list", lambda v: False)
    return lambda v: [item] * len(v) if type(v) is list and (v or not nonempty) else refused


def map_of(rule):
    """An object of any keys, each value keeping ``rule``."""
    return lambda v: dict.fromkeys(v, rule) if type(v) is dict else {}


def by(key: str, tables: dict):
    """The table of an object whose ``key`` names one of ``tables``: that
    key, and the keys of the table it names."""
    named = {key: one_of(*tables)}
    tables = {name: {**named, **table} for name, table in tables.items()}
    return lambda v: next((table for name, table in tables.items()
                           if type(v) is dict and v.get(key) == name), named)


def check(value, rule, where: str, error: type = DataError, path: str = "") -> None:
    """Raise ``error`` at the first part of ``value`` that ``rule`` refuses,
    naming ``where`` (a file, or a config class) and the key path in it. A
    rule is a ``Leaf``; a dict, the table of an object's keys (each must be
    there, except those whose name ends in ``?``, and no other may); a list,
    of a list of one item per rule; or a function of the value that returns
    the rule to check it by."""
    while callable(rule):
        rule = rule(value)
    subject = f"{where}: {path}" if path else where
    if isinstance(rule, Leaf):
        ok, what = rule.ok(value), rule.what
    elif isinstance(rule, dict):
        ok, what = type(value) is dict, "an object"
    else:
        ok, what = type(value) is list and len(value) == len(rule), f"a list of {len(rule)}"
    if not ok:
        shown = json.dumps(value, default=repr)
        shown = shown if len(shown) <= 60 else shown[:56] + " ..."
        raise error(f"{subject} must be {what}, got {shown}")
    if isinstance(rule, list):
        for i, (item, sub) in enumerate(zip(value, rule)):
            check(item, sub, where, error, f"{path}[{i}]")
    elif isinstance(rule, dict):
        keys = {name.rstrip("?"): sub for name, sub in rule.items()}
        missing = [name for name in rule if name not in value and not name.endswith("?")]
        if missing:
            raise error(f"{subject} lacks {', '.join(map(repr, missing))}")
        for key, sub in keys.items():
            if key in value:
                check(value[key], sub, where, error, f"{path}.{key}" if path else key)
        unknown = [key for key in value if key not in keys]
        if unknown:
            raise error(f"{subject} has unknown keys {', '.join(map(repr, unknown))}")


def setting(*default, rule):
    """A config dataclass field whose value keeps ``rule``, and its default if given."""
    return field(metadata={"rule": rule}, **({"default": default[0]} if default else {}))


def table(config_class) -> dict:
    """The table of a config dataclass: the rule of each field."""
    return {f.name: f.metadata["rule"] for f in fields(config_class)}


def check_config(config) -> None:
    """Raise SpecError unless each field of ``config`` keeps its rule."""
    check(asdict(config), table(type(config)), type(config).__name__, SpecError)


def read_json(path: Path):
    """The JSON document of ``path``; a file that cannot be read or is not
    JSON text raises DataError naming it."""
    try:
        return json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise DataError(f"{path} is not JSON text: {exc}") from None
