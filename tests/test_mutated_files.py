"""One-leaf mutations of the files a command reads back.

A small real run directory (a 50-epoch ``train --synth-spec``, which saves
its one periodic checkpoint at epoch 50) has one leaf of one file changed: a type
swap, a bool, NaN or inf, a negative number or zero, a missing key or an
extra key. Each command that reads the file must then either exit 1, with
an ``error:`` line naming the file and nothing written, or exit 0 and write
the bytes of the unmutated run. No command reads the periodic (v2) files,
so ``load_checkpoint`` must either raise a DataError naming the file or
return the unmutated arrays and optimizer.
"""

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgan_nd import cli
from stgan_nd.errors import DataError
from stgan_nd.nn import load_checkpoint

DATA = ["--synth-spec", "4,30,6", "--novel-classes", "0", "--seed", "0"]
PERIODIC = "checkpoints/generator_e0050.json"
FILES = ("manifest.json", "preprocessing.json", "generator.json", PERIODIC)


def _main(*args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in args])
    return code, err.getvalue()


def _commands(model: Path, name: str, out: Path) -> dict[str, list]:
    """The commands that read ``name`` of ``model``, each writing under ``out / <command>``."""
    if name == "manifest.json":
        return {"train": ["train", "--manifest", model / name, "--out", out / "train" / "t"]}
    return {"generate": ["generate", "--model", model, "--class", "1", "-n", "50",
                         "--seed", "0", "--out", out / "generate" / "s.csv"],
            "distances": ["distances", *DATA, "--model", model,
                          "--out", out / "distances" / "d"]}


def _written(directory: Path) -> dict[str, bytes]:
    """Every file under ``directory``. A distances manifest records the SHA-256
    of the generator file it read, whose bytes a mutation changes, so that
    one entry is left out."""
    files = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("generator_sha256", None)
            data = json.dumps(manifest).encode()
        files[str(path.relative_to(directory))] = data
    return files


def _run_commands(model: Path, name: str, out: Path) -> dict[str, tuple[int, str, dict]]:
    results = {}
    for command, args in _commands(model, name, out).items():
        (out / command).mkdir(parents=True)
        code, err = _main(*args)
        results[command] = code, err, _written(out / command)
    return results


def _loaded(path: Path) -> list:
    """Every array and optimizer value a checkpoint loads, as comparable values."""
    net, optimizer, seed = load_checkpoint(path)
    arrays = [net.flat_parameters()] + [a for bn in net.batch_norm_layers()
                                       for a in (bn.running_mean, bn.running_var)]
    arrays += [optimizer.first_moment, optimizer.second_moment]
    scalars = [optimizer.learning_rate, optimizer.beta1, optimizer.beta2, optimizer.epsilon,
               optimizer.decay, optimizer.step_count, seed]
    return [np.asarray(a, dtype=float).view(np.uint64).tolist() for a in arrays] + scalars


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    model = root / "model"
    # the periodic checkpoints come every 50 epochs
    assert _main("train", *DATA, "--variant", "test_2", "--epochs", "50", "--out", model)[0] == 0
    expected = {}
    for name in FILES[:3]:
        results = _run_commands(model, name, root / "expected" / name)
        assert all(code == 0 for code, _, _ in results.values()), results
        expected[name] = {command: files for command, (_, _, files) in results.items()}
    return {"root": root, "model": model, "expected": expected,
            "texts": {name: (model / name).read_text() for name in FILES},
            "periodic": _loaded(model / PERIODIC)}


def _nodes(node, path=()):
    """The path of every object, list and leaf in ``node``; of a list longer
    than four items, its first and last items only."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for i in range(len(node)) if len(node) <= 4 else (0, len(node) - 1):
            yield from _nodes(node[i], path + (i,))


def _mutations(path: tuple, value) -> list[tuple[str, object]]:
    """The (operation, argument) mutations of the node ``value`` at ``path``."""
    if isinstance(value, dict):  # a type swap, each missing key, an extra key
        return [("set", [])] + [("delete", key) for key in value] + [("add", ("zz", 1))]
    if isinstance(value, list):
        return [("set", {})]
    if value is None or isinstance(value, (str, bool)):
        return [("set", 0), ("set", float("nan"))]
    swaps = [("set", str(value)), ("set", True), ("set", float("nan")), ("set", float("inf"))]
    if type(value) is int:
        swaps += [("set", float(value)), ("set", -value - 1)]
        if path[-1] != "step_count":  # zero steps is a valid optimizer state
            swaps.append(("set", 0))
    elif "values" not in path:  # a weight may be any finite number
        swaps.append(("set", -abs(value) - 1))
    return swaps


def _mutated(text: str, path: tuple, operation: str, argument):
    doc = json.loads(text)
    if operation == "set" and not path:
        return argument
    parent = doc
    for key in path[:-1] if operation == "set" else path:
        parent = parent[key]
    if operation == "set":
        parent[path[-1]] = argument
    elif operation == "delete":
        del parent[argument]
    else:
        parent[argument[0]] = argument[1]
    return doc


def _check_mutation(run, name: str, path: tuple, operation: str, argument) -> None:
    target = run["model"] / name
    target.write_text(json.dumps(_mutated(run["texts"][name], path, operation, argument)))
    out = run["root"] / "mutated"
    try:
        if name == PERIODIC:
            try:
                loaded = _loaded(target)
            except DataError as exc:
                assert str(target) in str(exc)
            else:
                assert loaded == run["periodic"]
            return
        for command, (code, err, files) in _run_commands(run["model"], name, out).items():
            if code == 1:
                assert err.startswith("error: ") and str(target) in err, (command, err)
                assert files == {}, command
            else:
                assert code == 0 and files == run["expected"][name][command], (command, err)
    finally:
        target.write_text(run["texts"][name])
        shutil.rmtree(out, ignore_errors=True)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_leaf_mutation_exits_one_naming_the_file_or_changes_nothing(run, data):
    name = data.draw(st.sampled_from(FILES))
    doc = json.loads(run["texts"][name])
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    node = doc
    for key in path:
        node = node[key]
    operation, argument = data.draw(st.sampled_from(_mutations(path, node)))
    _check_mutation(run, name, path, operation, argument)


# the probes that loaded before each file had its table: junk settings on a
# relu layer, an extra key at the top and in a layer entry, a bool in a v1
# values list and in the standardizer, and coerced optimizer values
_PROBES = {
    "relu-junk-settings": ("generator.json", ("spec", "layers", 2), "add", ("rate", True)),
    "relu-out-width": ("generator.json", ("spec", "layers", 2), "add", ("out_width", "x")),
    "top-level-extra-key": ("generator.json", (), "add", ("extra", 1)),
    "layer-extra-key": ("generator.json", ("layers", 0), "add", ("extra", 1)),
    "true-in-values": ("generator.json", ("layers", 0, "arrays", "weight", "values", 0),
                       "set", True),
    "true-in-standardizer": ("preprocessing.json", ("standardizer", "mean", 0), "set", True),
    "learning-rate-true": (PERIODIC, ("optimizer", "learning_rate"), "set", True),
    "beta1-nan-string": (PERIODIC, ("optimizer", "beta1"), "set", "nan"),
    "step-count-float": (PERIODIC, ("optimizer", "step_count"), "set", 3.7),
    "decay-negative": (PERIODIC, ("optimizer", "decay"), "set", -5),
    "periodic-top-level-extra-key": (PERIODIC, (), "add", ("extra", 1)),
    "periodic-layer-extra-key": (PERIODIC, ("layers", 0), "add", ("extra", 1)),
    "manifest-extra-key": ("manifest.json", ("gan",), "add", ("extra", 1)),
}


@pytest.mark.parametrize("name,path,operation,argument", list(_PROBES.values()),
                         ids=list(_PROBES))
def test_probe_exits_one_naming_the_file(run, capsys, name, path, operation, argument):
    target = run["model"] / name
    target.write_text(json.dumps(_mutated(run["texts"][name], path, operation, argument)))
    try:
        if name == PERIODIC:
            with pytest.raises(DataError, match="^" + re.escape(str(target))):
                load_checkpoint(target)
            return
        out = run["root"] / "probe"
        for command, (code, err, files) in _run_commands(run["model"], name, out).items():
            assert code == 1 and err.startswith(f"error: {target}") and files == {}, err
        shutil.rmtree(out)
    finally:
        target.write_text(run["texts"][name])
