"""Span tracer for stgan-nd commands, kept entirely outside the package.

Run as a program, it replaces the ``stgan-nd`` entry point:

    python3 perfbench/tracing.py SPANS_PREFIX SPAWN_NS -- <stgan-nd arguments>

It imports the package, wraps the public functions of every traced module
(and the forward/backward methods of the network and its layers) in
timing wrappers, then calls ``stgan_nd.cli.main``. Spans are kept in
memory as (id, parent, name, start_ns, end_ns, attrs) and written to
``SPANS_PREFIX.<pid>.json`` when the command ends. (Spans of process-pool
workers are not collected: the benchmark runs ``evaluate --jobs 1``.)

Times come from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), which
is shared by every process on the machine, so ``SPAWN_NS`` taken by the
benchmark just before it starts the command gives the start-up time.

Imported as a module, it provides ``load_spans`` and ``Trace`` for the
analysis in ``run.py``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from pathlib import Path

# the layers of the package, by the names the benchmark reports them under
MODULES = (
    "cli", "experiments", "gan", "nn.network", "nn.layers", "nn.losses",
    "nn.adam", "nn.checkpoint", "data", "evaluate", "synth",
)
# methods traced besides module-level functions
METHODS = {
    "nn.network": {"Network": ("forward", "backward"), "Gradients": ("flat",)},
    "nn.layers": {cls: ("forward", "backward") for cls in (
        "Dense", "ReLU", "Sigmoid", "Softmax", "Linear", "GaussianNoise",
        "Dropout", "BatchNorm",
    )},
}
# private functions traced too: the per-variant evaluation job
PRIVATE = {"cli": ("_evaluate_one",)}


class _Recorder:
    """In-memory span store of one process."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.ids = itertools.count(1)

    def wrap(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self.ids)
            parent = self.stack[-1] if self.stack else 0
            self.stack.append(sid)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                attrs = describe(args, kwargs, result) if describe else None
                self.spans.append((sid, parent, name, start, end, attrs))

        return traced

    def flush(self) -> None:
        with open(f"{self.prefix}.{os.getpid()}.json", "w") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)


def _batch(args, kwargs, result):
    net, inputs = args[0], args[1]
    first = inputs if hasattr(inputs, "shape") else inputs[0]
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    return {"n_inputs": len(net.spec.input_widths), "batch": int(first.shape[0]),
            "mode": mode or net.mode}


def _backward(args, kwargs, result):
    net, cache = args[0], args[1]
    return {"n_inputs": len(net.spec.input_widths), "batch": int(cache.batch_size)}


def _layer_forward(args, kwargs, result):
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    return {"batch": int(args[1].shape[0]), "mode": mode}


def _layer_backward(args, kwargs, result):
    return {"batch": int(args[2].shape[0])}


def _file_size(args, kwargs, result):
    try:
        return {"bytes": os.path.getsize(args[0])}
    except OSError:
        return None


def _baseline_epochs(args, kwargs, result):
    return {"epochs": len(result[1])} if result else None


def _pairs(args, kwargs, result):
    return {"pairs": int(len(args[0]) * len(args[1]))}


def _variant(args, kwargs, result):
    return {"variant": args[1]}


def _job_variant(args, kwargs, result):
    return {"variant": args[0][1]}


DESCRIBE = {
    "nn.network.Network.forward": _batch,
    "nn.network.Network.backward": _backward,
    "nn.checkpoint.save_checkpoint": _file_size,
    "nn.checkpoint.load_checkpoint": _file_size,
    "gan.train_baseline": _baseline_epochs,
    "evaluate.pairwise_set_distance": _pairs,
    "experiments.train_variant": _variant,
    "cli._evaluate_one": _job_variant,
}


def install(recorder: _Recorder) -> None:
    """Wrap the traced functions of every layer module in place.

    Modules bind each other's functions by name (``from .gan import
    train_gan``), so every binding of a wrapped function in every package
    module is replaced, not only the defining one.
    """
    modules = {short: importlib.import_module(f"stgan_nd.{short}") for short in MODULES}
    replaced = {}
    for short, module in modules.items():
        names = [n for n, v in vars(module).items()
                 if callable(v) and not isinstance(v, type) and not n.startswith("_")
                 and getattr(v, "__module__", None) == module.__name__]
        for name in names + list(PRIVATE.get(short, ())):
            fn = getattr(module, name)
            span = f"{short}.{name}"
            replaced[id(fn)] = (fn, recorder.wrap(span, fn, DESCRIBE.get(span)))
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(module, cls_name)
            for method in methods:
                span = f"{short}.{cls_name}.{method}"
                if short == "nn.layers":
                    describe = _layer_forward if method == "forward" else _layer_backward
                else:
                    describe = DESCRIBE.get(span)
                setattr(cls, method, recorder.wrap(span, cls.__dict__[method], describe))
    for name, module in list(sys.modules.items()):
        if not name.startswith("stgan_nd"):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
            elif isinstance(value, dict):  # dispatch tables such as cli._COMMANDS
                for key, entry in list(value.items()):
                    hit = replaced.get(id(entry))
                    if hit is not None and hit[0] is entry:
                        value[key] = hit[1]


def _main(argv: list[str]) -> int:
    prefix, spawn_ns, sep, *cli_args = argv
    if sep != "--":
        print("usage: tracing.py SPANS_PREFIX SPAWN_NS -- ARGS...", file=sys.stderr)
        return 1
    recorder = _Recorder(prefix)
    import stgan_nd.cli as cli

    install(recorder)
    recorder.spans.append((0, 0, "cli.startup", int(spawn_ns), time.perf_counter_ns(), None))
    try:
        return cli.main(cli_args)
    finally:
        recorder.flush()


# --- analysis ---------------------------------------------------------------


def load_spans(prefix: Path) -> list[dict]:
    """Every span written under ``prefix``, with its process id attached."""
    spans = []
    for path in sorted(prefix.parent.glob(prefix.name + ".*.json")):
        doc = json.loads(path.read_text())
        for sid, parent, name, start, end, attrs in doc["spans"]:
            spans.append({"pid": doc["pid"], "id": sid, "parent": parent, "name": name,
                          "start": start, "end": end, "attrs": attrs or {}})
    return spans


class Trace:
    """Spans of one traced workload round, indexed for the per-layer metrics."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_key = {(s["pid"], s["id"]): s for s in spans}
        self.children: dict[tuple, list[dict]] = {}
        for s in spans:
            if s["parent"]:
                self.children.setdefault((s["pid"], s["parent"]), []).append(s)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def parent(self, span: dict) -> dict | None:
        return self.by_key.get((span["pid"], span["parent"])) if span["parent"] else None

    def has_ancestor(self, span: dict, name: str) -> bool:
        node = self.parent(span)
        while node is not None:
            if node["name"] == name:
                return True
            node = self.parent(node)
        return False

    def child_spans(self, span: dict) -> list[dict]:
        return self.children.get((span["pid"], span["id"]), [])

    def self_ns(self, span: dict) -> int:
        """Duration minus the part of it that direct child spans cover."""
        covered = sum(c["end"] - c["start"] for c in self.child_spans(span))
        return span["end"] - span["start"] - covered


def duration_ns(span: dict) -> int:
    return span["end"] - span["start"]


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
