"""Declarative descriptions of dense feed-forward networks.

A ``NetworkSpec`` lists the input heads, an ordered trunk of layer specs,
and the output heads (each a dense layer plus activation). Widths of the
non-dense layers are inferred when the network is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..errors import SpecError, by, check, integer, list_of, number, one_of

# each layer kind's settings, and nothing else, in a spec's layer entry
SETTINGS = {
    "dense": {"out_width": integer(">= 1")}, "relu": {}, "sigmoid": {}, "softmax": {},
    "linear": {}, "gaussian_noise": {"stddev": number(">= 0")}, "batch_norm": {},
    "dropout": {"rate": number("[0, 1)")},
}
LAYER_KINDS = tuple(SETTINGS)
HEAD_ACTIVATIONS = ("sigmoid", "softmax", "linear", "relu")
_LAYER = by("kind", SETTINGS)

# the table of a spec's JSON form, as ``NetworkSpec.to_dict`` writes it
TABLE = {
    "input_widths": list_of(integer(">= 1"), nonempty=True),
    "layers": list_of(_LAYER),
    "output_heads": list_of([integer(">= 1"), one_of(*HEAD_ACTIVATIONS)], nonempty=True),
}


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    out_width: int | None = None  # dense only
    stddev: float | None = None   # gaussian_noise only
    rate: float | None = None     # dropout only

    def __post_init__(self):
        check(self.to_dict(), _LAYER, "LayerSpec", SpecError)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _constructor(kind: str):
    """The spec of a ``kind`` layer, given its settings in ``SETTINGS`` order."""
    return lambda *settings: LayerSpec(kind, **dict(zip(SETTINGS[kind], settings, strict=True)))


# dense(out_width), gaussian_noise(stddev), dropout(rate); the others take none
dense, relu, sigmoid, softmax, linear, gaussian_noise, batch_norm, dropout = map(
    _constructor, LAYER_KINDS)


@dataclass(frozen=True)
class NetworkSpec:
    """Input widths, trunk layers, and (width, activation) output heads."""

    input_widths: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    output_heads: tuple[tuple[int, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "input_widths", tuple(self.input_widths))
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "output_heads", tuple(map(tuple, self.output_heads)))
        if not all(isinstance(layer, LayerSpec) for layer in self.layers):
            raise SpecError("layers must be LayerSpec instances")
        check(self.to_dict(), TABLE, "NetworkSpec", SpecError)

    @property
    def total_input_width(self) -> int:
        return sum(self.input_widths)

    def to_dict(self) -> dict:
        return {
            "input_widths": list(self.input_widths),
            "layers": [layer.to_dict() for layer in self.layers],
            "output_heads": [list(head) for head in self.output_heads],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NetworkSpec":
        """The spec of a JSON form that keeps ``TABLE``."""
        return cls(payload["input_widths"], [LayerSpec(**entry) for entry in payload["layers"]],
                   payload["output_heads"])
