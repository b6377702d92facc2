"""Exception types shared across the package, and the field-type check of
its config dataclasses."""

import math
from dataclasses import fields


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


def check_field_types(config) -> None:
    """Raise SpecError unless each field of the config dataclass holds its
    annotated type: an int (not a bool), or a finite int or float.
    The annotations are read as strings, so the config's module must use
    ``from __future__ import annotations``. A manifest or a command-line
    flag can carry any value into these fields."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int":
            ok = type(value) is int
        else:
            ok = type(value) in (int, float) and math.isfinite(value)
        if not ok:
            raise SpecError(f"{type(config).__name__}.{f.name} must be {f.type}, got {value!r}")
