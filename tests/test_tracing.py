"""The benchmark's span tracer still finds every method it wraps.

``perfbench/tracing.py`` wraps the ``forward`` and ``backward`` of each
layer class, ``Gradients.flat`` and ``Network.forward`` by name, and reads
``Network.forward``'s ``mode`` argument. An untraced run cannot notice a
renamed method; this test runs two small traced commands and checks that
each of those spans is there.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracing.py"
LAYER_CLASSES = ("Dense", "ReLU", "Sigmoid", "Softmax", "Linear", "GaussianNoise",
                 "Dropout", "BatchNorm")


def _traced(tmp_path: Path, *args) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, str(TRACER), str(tmp_path / "spans"),
               str(time.perf_counter_ns()), "--", *map(str, args)]
    done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def test_traced_train_and_generate_cover_every_wrapped_method(tmp_path):
    model = tmp_path / "model"
    _traced(tmp_path, "train", "--synth-spec", "5,24,6", "--synth-seed", "3",
            "--novel-classes", "4", "--variant", "test_3", "--epochs", "2",
            "--batch-size", "8", "--seed", "7", "--out", model)
    _traced(tmp_path, "generate", "--model", model, "--class", "1", "-n", "20",
            "--seed", "7", "--out", tmp_path / "samples.csv")

    files = sorted(tmp_path.glob("spans.*.json"))  # one per traced process
    assert len(files) == 2
    spans = [span for path in files for span in json.loads(path.read_text())["spans"]]
    names = {name for _, _, name, _, _, _ in spans}
    expected = {f"nn.layers.{cls}.{method}" for cls in LAYER_CLASSES
                for method in ("forward", "backward")}
    expected |= {"nn.network.Gradients.flat", "nn.network.Network.forward"}
    assert expected <= names, sorted(expected - names)
    modes = {(attrs or {}).get("mode") for _, _, name, _, _, attrs in spans
             if name == "nn.network.Network.forward"}
    assert modes == {"train", "infer"}


def _job_children(spans: list) -> list[tuple[str, dict]]:
    """The name and attributes of each span directly inside the one job span."""
    [(job, attrs)] = [(sid, attrs) for sid, _, name, _, _, attrs in spans
                      if name == "cli._evaluate_one"]
    assert attrs == {"variant": ["baseline_a"]}
    return [(name, attrs or {}) for _, parent, name, _, _, attrs in spans if parent == job]


def test_traced_evaluate_records_its_job_training_and_checkpoint_spans(tmp_path):
    # cli.worker_busy_share reads the job spans, and nn.checkpoint.* the save
    # and load spans; the second run reuses the model the first one trained
    args = ["evaluate", "--synth-spec", "5,24,6", "--synth-seed", "3", "--novel-classes", "4",
            "--variants", "baseline_a", "--epochs", "2", "--seed", "7", "--out", tmp_path / "ev"]
    children = {}
    for run in ("train", "reuse"):
        (tmp_path / run).mkdir()
        _traced(tmp_path / run, *args)
        [path] = (tmp_path / run).glob("spans.*.json")
        children[run] = _job_children(json.loads(path.read_text())["spans"])
    names = {run: [name for name, _ in inside] for run, inside in children.items()}
    assert {"experiments.train_variant", "nn.checkpoint.save_checkpoint"} <= set(names["train"])
    assert "nn.checkpoint.load_checkpoint" not in names["train"]
    assert "nn.checkpoint.load_checkpoint" in names["reuse"]
    assert "experiments.train_variant" not in names["reuse"]
    for name, attrs in children["train"] + children["reuse"]:
        if name.startswith("nn.checkpoint."):
            assert attrs["bytes"] > 0
