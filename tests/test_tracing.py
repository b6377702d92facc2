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
