"""Declarative descriptions of dense feed-forward networks.

A ``NetworkSpec`` lists the input heads, an ordered trunk of layer specs,
and the output heads (each a dense layer plus activation). Widths of the
non-dense layers are inferred when the network is built.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

from ..errors import SpecError

LAYER_KINDS = (
    "dense",
    "relu",
    "sigmoid",
    "softmax",
    "linear",
    "gaussian_noise",
    "batch_norm",
    "dropout",
)

HEAD_ACTIVATIONS = ("sigmoid", "softmax", "linear", "relu")


def _width(value, field: str) -> int:
    """``value`` as an int if it is a positive Python or numpy integer, never a
    bool: a checkpoint's spec can carry any JSON value into a width."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise SpecError(f"{field} must be a positive integer, got {value!r}")
    return int(value)


def _finite(value, field: str):
    """``value`` if it is a finite Python or numpy int or float, never a bool."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise SpecError(f"{field} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    out_width: int | None = None  # dense only
    stddev: float | None = None   # gaussian_noise only
    rate: float | None = None     # dropout only

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise SpecError(f"unknown layer kind {self.kind!r}")
        if self.kind == "dense":
            object.__setattr__(self, "out_width", _width(self.out_width, "LayerSpec.out_width"))
        if self.kind == "gaussian_noise":
            if _finite(self.stddev, "LayerSpec.stddev") < 0:
                raise SpecError("gaussian_noise needs stddev >= 0")
        if self.kind == "dropout":
            if not 0.0 <= _finite(self.rate, "LayerSpec.rate") < 1.0:
                raise SpecError("dropout rate must lie in [0, 1)")


def dense(out_width: int) -> LayerSpec:
    return LayerSpec("dense", out_width=int(out_width))


def relu() -> LayerSpec:
    return LayerSpec("relu")


def sigmoid() -> LayerSpec:
    return LayerSpec("sigmoid")


def softmax() -> LayerSpec:
    return LayerSpec("softmax")


def linear() -> LayerSpec:
    return LayerSpec("linear")


def gaussian_noise(stddev: float) -> LayerSpec:
    return LayerSpec("gaussian_noise", stddev=float(stddev))


def batch_norm() -> LayerSpec:
    return LayerSpec("batch_norm")


def dropout(rate: float) -> LayerSpec:
    return LayerSpec("dropout", rate=float(rate))


@dataclass(frozen=True)
class NetworkSpec:
    """Input widths, trunk layers, and (width, activation) output heads."""

    input_widths: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    output_heads: tuple[tuple[int, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "input_widths", tuple(
            _width(w, "NetworkSpec.input_widths") for w in self.input_widths))
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "output_heads", tuple(
            (_width(w, "NetworkSpec.output_heads width"), str(a)) for w, a in self.output_heads))
        if not self.input_widths:
            raise SpecError("network needs at least one input head")
        if not self.output_heads:
            raise SpecError("network needs at least one output head")
        for _, activation in self.output_heads:
            if activation not in HEAD_ACTIVATIONS:
                raise SpecError(f"unknown head activation {activation!r}")
        for layer in self.layers:
            if not isinstance(layer, LayerSpec):
                raise SpecError("layers must be LayerSpec instances")

    @property
    def total_input_width(self) -> int:
        return sum(self.input_widths)

    def to_dict(self) -> dict:
        return {
            "input_widths": list(self.input_widths),
            "layers": [{k: v for k, v in asdict(spec).items() if v is not None}
                       for spec in self.layers],
            "output_heads": [[w, a] for w, a in self.output_heads],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NetworkSpec":
        layers = tuple(
            LayerSpec(
                entry["kind"],
                out_width=entry.get("out_width"),
                stddev=entry.get("stddev"),
                rate=entry.get("rate"),
            )
            for entry in payload["layers"]
        )
        heads = tuple((w, a) for w, a in payload["output_heads"])
        return cls(tuple(payload["input_widths"]), layers, heads)
