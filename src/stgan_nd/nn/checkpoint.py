"""Single-file JSON checkpoints.

Float64 values are written as JSON numbers in their shortest-repr decimal
form, which round-trips exactly, so a reloaded network is bit-identical to
the saved one. Files of earlier versions hold each value as a decimal
string; they load the same way.

A save streams the document to a temporary file in the target's directory,
each array in chunks of ``_CHUNK`` values, so its memory does not grow with
the network; the bytes are those of ``json.dumps(doc, separators=(",", ":"))``
of the whole document. The file then replaces the target in one step, so a
save that fails leaves the previous file, or none, never a truncated one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ..errors import DataError, StganError
from . import layers as L
from .adam import AdamState
from .network import Network, init_network
from .specs import NetworkSpec

FORMAT = "stgan-nd-checkpoint-v1"
_CHUNK = 4096  # array values encoded per write
_SEPARATORS = (",", ":")


def _encode_array(arr: np.ndarray) -> dict:
    # the flat float64 view; _write_json writes its values chunk by chunk
    return {"shape": list(arr.shape), "values": np.asarray(arr, dtype=float).ravel(order="C")}


def _encode_chunk(values: np.ndarray) -> str:
    """The JSON numbers of ``values`` joined by commas, without brackets."""
    return json.dumps(values.tolist(), separators=_SEPARATORS)[1:-1]


def _write_json(write, node) -> None:
    """Write ``node`` as ``json.dumps(node, separators=_SEPARATORS)`` does,
    with each flat array's values encoded ``_CHUNK`` at a time."""
    if isinstance(node, np.ndarray):
        write("[")
        for start in range(0, node.size, _CHUNK):
            if start:
                write(",")
            write(_encode_chunk(node[start:start + _CHUNK]))
        write("]")
    elif isinstance(node, dict):
        write("{")
        for i, (key, value) in enumerate(node.items()):
            if i:
                write(",")
            write(json.dumps(key) + ":")
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


def _decode_array(payload: dict) -> np.ndarray:
    """The array of one ``{"shape", "values"}`` entry; values may be JSON
    numbers or decimal strings."""
    try:
        values = np.array(payload["values"], dtype=float)
        shape = tuple(payload["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad checkpoint array: {exc}") from None
    if values.ndim != 1 or not np.isfinite(values).all():
        raise DataError("checkpoint array values must be a flat list of finite numbers")
    try:
        return values.reshape(shape)
    except (TypeError, ValueError):
        raise DataError(f"checkpoint array of {values.size} values "
                        f"does not fit shape {list(shape)}") from None


def _decode_moment(entries: list, net: Network) -> np.ndarray:
    if len(entries) != 1:
        raise DataError(f"optimizer moment holds {len(entries)} arrays, expected 1")
    moment = _decode_array(entries[0])
    if moment.shape != net.flat_parameters().shape:
        raise DataError(
            f"optimizer moment has shape {moment.shape}, "
            f"expected {net.flat_parameters().shape}"
        )
    return moment


def _layer_arrays(layer) -> dict:
    if isinstance(layer, L.Dense):
        return {"weight": layer.weight, "bias": layer.bias}
    if isinstance(layer, L.BatchNorm):
        return {
            "gamma": layer.gamma,
            "beta": layer.beta,
            "running_mean": layer.running_mean,
            "running_var": layer.running_var,
        }
    return {}


def _restore_layer(layer, arrays: dict) -> None:
    current = _layer_arrays(layer)
    if set(arrays) != set(current):
        raise DataError(f"a {layer.kind} layer holds {sorted(current)}, got {sorted(arrays)}")
    for name, entry in arrays.items():
        value = _decode_array(entry)
        if current[name].shape != value.shape:
            raise DataError(
                f"checkpoint array {name!r} has shape {value.shape}, "
                f"expected {current[name].shape}"
            )
        if name in layer.param_names:
            current[name][...] = value  # keep the flat-buffer aliasing intact
        else:
            setattr(layer, name, value)


def _document(net: Network, optimizer: AdamState | None, rng_seed: int | None) -> dict:
    """The checkpoint document, each array left as its flat float64 view."""
    doc = {
        "format": FORMAT,
        "spec": net.spec.to_dict(),
        "layers": [
            {
                "kind": layer.kind,
                "arrays": {k: _encode_array(v) for k, v in _layer_arrays(layer).items()},
            }
            for layer in net.trunk
        ],
        "heads": [
            {
                "activation": net.spec.output_heads[i][1],
                "arrays": {k: _encode_array(v) for k, v in _layer_arrays(dense).items()},
            }
            for i, (dense, _) in enumerate(net.heads)
        ],
        "optimizer": None,
        "rng_seed": rng_seed,
    }
    if optimizer is not None:
        doc["optimizer"] = {
            "learning_rate": float(optimizer.learning_rate),
            "beta1": float(optimizer.beta1),
            "beta2": float(optimizer.beta2),
            "epsilon": float(optimizer.epsilon),
            "decay": float(optimizer.decay),
            "step_count": optimizer.step_count,
            # each moment is a one-element list, as in files of earlier versions
            "first_moment": [_encode_array(optimizer.first_moment)],
            "second_moment": [_encode_array(optimizer.second_moment)],
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
    """Rebuild (network, optimizer state, rng seed) from a checkpoint file;
    any document ``save_checkpoint`` does not write raises DataError."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        return _from_document(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # DataError and SpecError are ValueErrors and say what is wrong
        detail = exc if isinstance(exc, StganError) else repr(exc)
        raise DataError(f"bad checkpoint {path}: {detail}") from None


def _from_document(doc: dict) -> tuple[Network, AdamState | None, int | None]:
    if doc.get("format") != FORMAT:
        raise DataError(f"not a {FORMAT} file")
    spec = NetworkSpec.from_dict(doc["spec"])
    net = init_network(spec, seed=0)  # parameters are overwritten below
    if len(doc["layers"]) != len(net.trunk) or len(doc["heads"]) != len(net.heads):
        raise DataError("checkpoint layer count does not match its own spec")
    for layer, entry in zip(net.trunk, doc["layers"]):
        if entry["kind"] != layer.kind:
            raise DataError(f"layer kind mismatch: {entry['kind']} vs {layer.kind}")
        _restore_layer(layer, entry["arrays"])
    for (dense, _), (_, activation), entry in zip(net.heads, spec.output_heads, doc["heads"]):
        if entry["activation"] != activation:
            raise DataError(f"head activation mismatch: {entry['activation']} vs {activation}")
        _restore_layer(dense, entry["arrays"])

    opt, seed = doc["optimizer"], doc["rng_seed"]
    if seed is not None and type(seed) is not int:
        raise DataError(f"rng_seed must be an integer or null, got {seed!r}")
    optimizer = None
    if opt is not None:
        optimizer = AdamState(
            learning_rate=float(opt["learning_rate"]),
            first_moment=_decode_moment(opt["first_moment"], net),
            second_moment=_decode_moment(opt["second_moment"], net),
            beta1=float(opt["beta1"]),
            beta2=float(opt["beta2"]),
            epsilon=float(opt["epsilon"]),
            decay=float(opt["decay"]),
            step_count=int(opt["step_count"]),
        )
    return net, optimizer, seed
