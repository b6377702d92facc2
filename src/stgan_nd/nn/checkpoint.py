"""Single-file JSON checkpoints, in one of two formats.

Both hold the same document: the spec, each layer's arrays as
``{"shape", ...}`` entries, the Adam state or null, and the seed. They
differ only in how an array's float64 values are stored, and either way a
reloaded network is bit-identical to the saved one. Which one a save
writes follows from what it saves:

- ``stgan-nd-checkpoint-v1``, without optimizer state: ``"values"``, a list
  of JSON numbers in shortest-repr decimal form. The model files of a run,
  ``generator.json`` and ``discriminator.json``, are v1, because readers
  outside this package parse their ``values`` lists.
- ``stgan-nd-checkpoint-v2``, with optimizer state: ``"base64"``, one
  string of the array's little-endian float64 bytes. The periodic resume
  files ``checkpoints/*_eNNNN.json`` are v2: at the paper's widths the
  discriminator's takes 3.13 MB against 6.43 MB as v1, and saves about
  30 times faster.

The loader reads either one by its format tag. Files of earlier versions,
v1 with each value a decimal string, load the same way.

A save streams the document to a temporary file in the target's directory,
each array in chunks of ``_CHUNK`` values, so its memory does not grow with
the network; the bytes are those of ``json.dumps(doc, separators=(",", ":"))``
of the whole document, each array as its whole list or base64 string. The
file then replaces the target in one step, so a save that fails leaves the
previous file, or none, never a truncated one.
"""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path

import numpy as np

from ..errors import DataError, StganError
from .adam import AdamState
from .network import Network, init_network
from .specs import NetworkSpec

FORMAT_V1 = "stgan-nd-checkpoint-v1"
FORMAT_V2 = "stgan-nd-checkpoint-v2"
_ARRAY_KEYS = {FORMAT_V1: "values", FORMAT_V2: "base64"}  # each format's array key
# array values encoded per write; 3072 float64 values are 24576 bytes, a
# multiple of 3, so the chunks' base64 strings join into the whole array's
_CHUNK = 3072
_SEPARATORS = (",", ":")


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


def _decode_array(payload: dict, key: str) -> np.ndarray:
    """The array of one ``{"shape", key}`` entry: ``values`` holds JSON
    numbers or decimal strings, ``base64`` little-endian float64 bytes."""
    try:
        shape = tuple(payload["shape"])
        if key == "base64":
            raw = base64.b64decode(payload[key], validate=True)
            # a writable native copy: Adam updates its moments in place
            values = np.frombuffer(raw, dtype="<f8").astype(float)
        else:
            values = np.array(payload[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise DataError(f"bad checkpoint array: {exc}") from None
    if values.ndim != 1 or not np.isfinite(values).all():
        raise DataError("checkpoint array values must be a flat list of finite numbers")
    try:
        return values.reshape(shape)
    except (TypeError, ValueError):
        raise DataError(f"checkpoint array of {values.size} values "
                        f"does not fit shape {list(shape)}") from None


def _decode_moment(entries: list, key: str, net: Network) -> np.ndarray:
    if len(entries) != 1:
        raise DataError(f"optimizer moment holds {len(entries)} arrays, expected 1")
    moment = _decode_array(entries[0], key)
    if moment.shape != net.flat_parameters().shape:
        raise DataError(
            f"optimizer moment has shape {moment.shape}, "
            f"expected {net.flat_parameters().shape}"
        )
    return moment


def _layer_arrays(layer) -> dict:
    return {name: getattr(layer, name) for name in layer.param_names + layer.state_names}


def _restore_layer(layer, arrays: dict, key: str) -> None:
    current = _layer_arrays(layer)
    if set(arrays) != set(current):
        raise DataError(f"a {layer.kind} layer holds {sorted(current)}, got {sorted(arrays)}")
    for name, entry in arrays.items():
        value = _decode_array(entry, key)
        if current[name].shape != value.shape:
            raise DataError(
                f"checkpoint array {name!r} has shape {value.shape}, "
                f"expected {current[name].shape}"
            )
        current[name][...] = value  # in place: parameters are views of the flat buffer


def _document(net: Network, optimizer: AdamState | None, rng_seed: int | None) -> dict:
    """The checkpoint document, each array left as its flat float64 view:
    v2 with optimizer state, v1 without."""
    format_ = FORMAT_V1 if optimizer is None else FORMAT_V2
    key = _ARRAY_KEYS[format_]
    doc = {
        "format": format_,
        "spec": net.spec.to_dict(),
        "layers": [
            {
                "kind": layer.kind,
                "arrays": {k: _encode_array(v, key) for k, v in _layer_arrays(layer).items()},
            }
            for layer in net.trunk
        ],
        "heads": [
            {
                "activation": net.spec.output_heads[i][1],
                "arrays": {k: _encode_array(v, key) for k, v in _layer_arrays(dense).items()},
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
    key = _ARRAY_KEYS.get(doc.get("format"))
    if key is None:
        raise DataError(f"not a {FORMAT_V1} or {FORMAT_V2} file")
    spec = NetworkSpec.from_dict(doc["spec"])
    net = init_network(spec, seed=0)  # parameters are overwritten below
    if len(doc["layers"]) != len(net.trunk) or len(doc["heads"]) != len(net.heads):
        raise DataError("checkpoint layer count does not match its own spec")
    for layer, entry in zip(net.trunk, doc["layers"]):
        if entry["kind"] != layer.kind:
            raise DataError(f"layer kind mismatch: {entry['kind']} vs {layer.kind}")
        _restore_layer(layer, entry["arrays"], key)
    for (dense, _), (_, activation), entry in zip(net.heads, spec.output_heads, doc["heads"]):
        if entry["activation"] != activation:
            raise DataError(f"head activation mismatch: {entry['activation']} vs {activation}")
        _restore_layer(dense, entry["arrays"], key)

    opt, seed = doc["optimizer"], doc["rng_seed"]
    if seed is not None and type(seed) is not int:
        raise DataError(f"rng_seed must be an integer or null, got {seed!r}")
    optimizer = None
    if opt is not None:
        optimizer = AdamState(
            learning_rate=float(opt["learning_rate"]),
            first_moment=_decode_moment(opt["first_moment"], key, net),
            second_moment=_decode_moment(opt["second_moment"], key, net),
            beta1=float(opt["beta1"]),
            beta2=float(opt["beta2"]),
            epsilon=float(opt["epsilon"]),
            decay=float(opt["decay"]),
            step_count=int(opt["step_count"]),
        )
    return net, optimizer, seed
