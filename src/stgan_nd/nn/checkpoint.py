"""Single-file JSON checkpoints, in one of two formats.

Both hold one document, the spec, each layer's arrays as ``{"shape", ...}``
entries, the Adam state or null, and the seed, and reload bit-identically.
They differ in how an array's float64 values are stored:

- ``stgan-nd-checkpoint-v1``, saved without optimizer state (the model
  files, whose ``values`` readers outside this package parse): ``"values"``,
  JSON numbers in shortest-repr form. Files of earlier versions, each value
  and optimizer scalar a decimal string, load the same way.
- ``stgan-nd-checkpoint-v2``, saved with it (the periodic resume files):
  ``"base64"``, the little-endian float64 bytes; half the size, and about
  30 times faster to save.

The loader checks the document against its format's table before it
builds anything, so a missing or unknown key, a value of the wrong type or
range (``learning_rate`` and ``epsilon`` > 0, ``beta1`` and ``beta2`` in
[0, 1), ``decay`` >= 0, ``step_count`` an int >= 0), a bool or non-finite
array value, or arrays that do not fit the spec raise a DataError that
names the file and the key path. A save streams the document, ``_CHUNK``
values at a time, as the bytes of one ``json.dumps(doc, separators=(",",
":"))``, to a temporary file that then replaces the target: a failed
save leaves the previous file, or none, never a truncated one.
"""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path

import numpy as np

from ..errors import (
    STRING, DataError, Leaf, by, check, decimal, either, integer, list_of, map_of, nullable,
    number, read_json,
)
from .adam import AdamState
from .network import Network, init_network
from .specs import TABLE as SPEC_TABLE, NetworkSpec

FORMAT_V1 = "stgan-nd-checkpoint-v1"
FORMAT_V2 = "stgan-nd-checkpoint-v2"
_ARRAY_KEYS = {FORMAT_V1: "values", FORMAT_V2: "base64"}  # each format's array key
# array values encoded per write; 3072 float64 values are 24576 bytes, a
# multiple of 3, so the chunks' base64 strings join into the whole array's
_CHUNK = 3072
_SEPARATORS = (",", ":")

# the tables of a document, per format. numpy decodes each array's values
# in one call, and refuses what is not finite float64 values fitting the
# shape; a bool it would read as 1.0, so the table refuses it first
_SHAPE = list_of(integer(">= 1"))
_ARRAY_TABLES = {
    FORMAT_V1: {"shape": _SHAPE, "values": Leaf(
        "a list of numbers or their decimal strings",
        lambda v: type(v) is list and bool not in map(type, v))},
    FORMAT_V2: {"shape": _SHAPE, "base64": STRING},
}
# the bounds of the optimizer's scalars; files of earlier versions (v1)
# hold each one as its decimal string
_RATES = {"learning_rate": "> 0", "beta1": "[0, 1)", "beta2": "[0, 1)", "epsilon": "> 0",
          "decay": ">= 0"}


def _document_table(format_: str) -> dict:
    array = _ARRAY_TABLES[format_]
    rate = number if format_ == FORMAT_V2 else (lambda b: either(number(b), decimal(b)))
    optimizer = {**{name: rate(bounds) for name, bounds in _RATES.items()},
                 "step_count": integer(">= 0"), "first_moment": [array],
                 "second_moment": [array]}
    return {
        "spec": SPEC_TABLE,
        "layers": list_of({"kind": STRING, "arrays": map_of(array)}),
        "heads": list_of({"activation": STRING, "arrays": map_of(array)}),
        "optimizer": nullable(optimizer),
        "rng_seed": nullable(integer(">= 0")),
    }


_DOCUMENT = by("format", {format_: _document_table(format_) for format_ in _ARRAY_KEYS})


def _encode_array(arr: np.ndarray, key: str) -> dict:
    # the flat float64 view; _write_json writes its values chunk by chunk
    return {"shape": list(arr.shape), key: np.asarray(arr, dtype=float).ravel(order="C")}


def _encode_chunk(values: np.ndarray) -> str:
    """The JSON numbers of ``values`` joined by commas, without brackets."""
    return json.dumps(values.tolist(), separators=_SEPARATORS)[1:-1]


def _encode_base64_chunk(values: np.ndarray) -> str:
    """The base64 text of the little-endian float64 bytes of ``values``."""
    return base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode("ascii")


def _write_array(write, key: str, values: np.ndarray) -> None:
    """Write a flat array as ``json.dumps`` writes its list (``values``) or
    its base64 string (``base64``), ``_CHUNK`` values at a time."""
    chunks = (values[start:start + _CHUNK] for start in range(0, values.size, _CHUNK))
    if key == "base64":
        write('"')
        for chunk in chunks:
            write(_encode_base64_chunk(chunk))
        write('"')
    else:
        write("[")
        for i, chunk in enumerate(chunks):
            if i:
                write(",")
            write(_encode_chunk(chunk))
        write("]")


def _write_json(write, node) -> None:
    """Write ``node`` as ``json.dumps(node, separators=_SEPARATORS)`` does,
    with each flat array written by ``_write_array``."""
    if isinstance(node, dict):
        write("{")
        for i, (key, value) in enumerate(node.items()):
            if i:
                write(",")
            write(json.dumps(key) + ":")
            if isinstance(value, np.ndarray):
                _write_array(write, key, value)
            else:
                _write_json(write, value)
        write("}")
    elif isinstance(node, list):
        write("[")
        for i, value in enumerate(node):
            if i:
                write(",")
            _write_json(write, value)
        write("]")
    else:
        write(json.dumps(node, separators=_SEPARATORS))


def _decode_array(entry: dict, key: str, name: str = "array") -> np.ndarray:
    """The array of one ``{"shape", key}`` entry that keeps its format's table:
    ``values`` holds numbers or decimal strings, ``base64`` float64 bytes."""
    try:
        if key == "base64":
            raw = base64.b64decode(entry[key], validate=True)
            # a writable native copy: Adam updates its moments in place
            values = np.frombuffer(raw, dtype="<f8").astype(float)
        else:
            values = np.array(entry[key], dtype=float)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        values = None
    if values is None or values.ndim != 1 or not np.isfinite(values).all():
        raise DataError(f"{name}: bad checkpoint array: {key} must hold finite float64 values"
                        + ", as a flat list" * (key == "values"))
    if values.size != np.prod(entry["shape"]):
        raise DataError(f"{name}: bad checkpoint array of {values.size} values "
                        f"does not fit shape {entry['shape']}")
    return values.reshape(entry["shape"])


def _layer_arrays(layer) -> dict:
    return {name: getattr(layer, name) for name in layer.param_names + layer.state_names}


def _restore(target: np.ndarray, entry: dict, key: str, name: str) -> None:
    value = _decode_array(entry, key, name)
    if value.shape != target.shape:
        raise DataError(f"{name} has shape {value.shape}, expected {target.shape}")
    target[...] = value  # in place: parameters are views of the flat buffer


def _restore_layer(layer, arrays: dict, key: str, name: str) -> None:
    current = _layer_arrays(layer)
    if set(arrays) != set(current):
        raise DataError(f"{name} holds {sorted(arrays)}; a {layer.kind} layer holds "
                        f"{sorted(current)}")
    for array_name, entry in arrays.items():
        _restore(current[array_name], entry, key, f"{name}.{array_name}")


def _document(net: Network, optimizer: AdamState | None, rng_seed: int | None) -> dict:
    """The checkpoint document, each array left as its flat float64 view:
    v2 with optimizer state, v1 without."""
    format_ = FORMAT_V1 if optimizer is None else FORMAT_V2
    key = _ARRAY_KEYS[format_]

    def arrays(layer) -> dict:
        return {k: _encode_array(v, key) for k, v in _layer_arrays(layer).items()}
    doc = {
        "format": format_,
        "spec": net.spec.to_dict(),
        "layers": [{"kind": layer.kind, "arrays": arrays(layer)} for layer in net.trunk],
        "heads": [{"activation": activation, "arrays": arrays(dense)}
                  for (dense, _), (_, activation) in zip(net.heads, net.spec.output_heads)],
        "optimizer": None,
        "rng_seed": rng_seed,
    }
    if optimizer is not None:
        doc["optimizer"] = {
            **{name: float(getattr(optimizer, name)) for name in _RATES},
            "step_count": optimizer.step_count,
            # each moment is a one-element list, as in files of earlier versions
            "first_moment": [_encode_array(optimizer.first_moment, key)],
            "second_moment": [_encode_array(optimizer.second_moment, key)],
        }
    return doc


def save_checkpoint(path, net: Network, optimizer: AdamState | None = None,
                    rng_seed: int | None = None) -> None:
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="ascii") as handle:
            _write_json(handle.write, _document(net, optimizer, rng_seed))
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[Network, AdamState | None, int | None]:
    """Rebuild (network, optimizer state, rng seed) from a checkpoint file; any
    other document raises a DataError naming the file and the key path."""
    doc = read_json(path)
    check(doc, _DOCUMENT, str(path))
    key = _ARRAY_KEYS[doc["format"]]
    net = init_network(NetworkSpec.from_dict(doc["spec"]), seed=0)  # arrays are overwritten
    kinds = [e["kind"] for e in doc["layers"]], [e["activation"] for e in doc["heads"]]
    if kinds != ([layer.kind for layer in net.trunk], [a for _, a in net.spec.output_heads]):
        raise DataError(f"{path}: layer kinds and head activations {kinds} differ from its spec's")
    layers = [(f"layers[{i}]", layer) for i, layer in enumerate(net.trunk)]
    layers += [(f"heads[{i}]", dense) for i, (dense, _) in enumerate(net.heads)]
    for (name, layer), entry in zip(layers, doc["layers"] + doc["heads"]):
        _restore_layer(layer, entry["arrays"], key, f"{path}: {name}.arrays")
    opt, optimizer = doc["optimizer"], None
    if opt is not None:
        moments = {name: np.empty_like(net.flat_parameters())
                   for name in ("first_moment", "second_moment")}
        for name, moment in moments.items():
            _restore(moment, opt[name][0], key, f"{path}: optimizer.{name}[0]")
        # one numpy decode of the scalars, numbers or the decimal strings of v1
        rates = np.array([opt[name] for name in _RATES], dtype=float).tolist()
        optimizer = AdamState(**moments, **dict(zip(_RATES, rates)),
                              step_count=opt["step_count"])
    return net, optimizer, doc["rng_seed"]
