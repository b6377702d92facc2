"""Golden digests of a small fixed command matrix.

The matrix: ``synth --spec 5,30,6``, ``evaluate`` of all four variants at
3 epochs with ``--jobs 1`` and with ``--jobs 2``, ``distances`` with the
``test_2`` model, and two ``generate`` commands; then one ``distances``
and one ``generate`` whose inference runs in several row blocks
(``INFER_BLOCK_ROWS``); then ``train`` of ``baseline_a`` on a raw-sample
manifest, whose recordings vary in length, with a subset of channels.
Every output file is hashed: checkpoints by their arrays' float64 bits and
the rest of their document; manifests parsed, without their
``environment`` and with the scratch root replaced by a fixed token; every
other file by its bytes. A change to the outputs that is meant updates
``golden_digests.json`` by running this file, which prints the names of
the digests it added, changed or removed:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from stgan_nd import blas, cli

DIGESTS = Path(__file__).with_name("golden_digests.json")
VARIANTS = "baseline_a,test_1a,test_2,test_3"
DATA = ["--novel-classes", "4", "--seed", "5"]


def _run(*args) -> None:
    code = cli.main([str(a) for a in args])
    assert code == 0, args


def _run_matrix(root: Path) -> None:
    data = root / "data.csv"
    _run("synth", "--spec", "5,30,6", "--seed", "0", "--out", data)
    for jobs in ("1", "2"):
        _run("evaluate", "--dataset", data, *DATA, "--variants", VARIANTS, "--epochs", "3",
             "--batch-size", "8", "--jobs", jobs, "--out", root / f"ev{jobs}")
    _run("distances", "--dataset", data, *DATA, "--model", root / "ev1" / "test_2",
         "--n-generated", "40", "--out", root / "dist")
    _run("generate", "--model", root / "ev1" / "test_2", "--class", "2", "-n", "50",
         "--seed", "3", "--out", root / "class2.csv")
    _run("generate", "--model", root / "ev1" / "test_3", "--target", "0.4,0.3,0.2,0.1",
         "-n", "50", "--seed", "4", "--out", root / "mixture.csv")
    _run("distances", "--dataset", data, *DATA, "--model", root / "ev1" / "test_2",
         "--n-generated", "1100", "--out", root / "dist_blocks")
    _run("generate", "--model", root / "ev1" / "test_2", "--class", "1", "-n", "1300",
         "--seed", "6", "--out", root / "class1_blocks.csv")
    _run("train", "--dataset", _write_raw_manifest(root / "raw"), "--channels", "0,2,3",
         "--novel-classes", "1", "--seed", "7", "--variant", "baseline_a", "--epochs", "2",
         "--out", root / "raw_run")


def _write_raw_manifest(folder: Path) -> Path:
    """Six recordings per class of three classes, each t rows of 5 channels
    with t between 5 and 29, written with ``repr``; returns the manifest."""
    rng = np.random.default_rng(11)
    folder.mkdir()
    rows = []
    for i in range(18):
        label = i % 3
        sample = (label + 1.0) * rng.standard_normal((int(rng.integers(5, 30)), 5))
        (folder / f"s{i}.csv").write_text(
            "".join(",".join(map(repr, row)) + "\n" for row in sample.tolist()))
        rows.append(f"s{i}.csv,{label}\n")
    manifest = folder / "manifest.csv"
    manifest.write_text("path,label\n" + "".join(rows))
    return manifest


def _arrays_as_bits(node):
    """``node`` with every ``{"shape", "values"}`` array replaced by the
    SHA-256 of its float64 bits, so the digest does not depend on how a
    checkpoint writes its numbers."""
    if isinstance(node, dict):
        if set(node) == {"shape", "values"}:
            bits = np.array(node["values"], dtype=np.float64).tobytes()
            return {"shape": node["shape"], "float64": hashlib.sha256(bits).hexdigest()}
        return {k: _arrays_as_bits(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_arrays_as_bits(v) for v in node]
    return node


def _digest(path: Path, root: Path) -> str:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        del manifest["environment"]  # the machine's, not the run's
        canonical = json.dumps(manifest, sort_keys=True)
        # the manifests record resolved paths; the root itself may be a link
        for prefix in (str(root.resolve()), str(root)):
            canonical = canonical.replace(prefix, "<root>")
        return hashlib.sha256(canonical.encode()).hexdigest()
    if path.suffix == ".json" and path.name not in ("report.json", "preprocessing.json"):
        canonical = json.dumps(_arrays_as_bits(json.loads(path.read_text())), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def matrix_digests(root: Path) -> dict:
    _run_matrix(root)
    return {str(p.relative_to(root)): _digest(p, root) for p in sorted(root.rglob("*"))
            if p.is_file()}


def _environment() -> dict:
    return {"numpy": np.__version__, "blas": blas.environment()["blas"]}


def test_outputs_match_the_golden_digests(tmp_path):
    stored = json.loads(DIGESTS.read_text())
    digests = matrix_digests(tmp_path)
    changed = sorted(k for k in set(digests) | set(stored["digests"])
                     if digests.get(k) != stored["digests"].get(k))
    assert not changed, (
        f"outputs differ from the golden digests in {changed}; recorded with "
        f"{stored['environment']}, run with {_environment()} (another numpy or "
        "BLAS kernel can change the last bits)"
    )


if __name__ == "__main__":
    import tempfile

    stored = json.loads(DIGESTS.read_text())["digests"] if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as scratch:
        payload = {"environment": _environment(), "digests": matrix_digests(Path(scratch))}
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    digests = payload["digests"]
    for what, names in (("added", set(digests) - set(stored)),
                        ("changed", {k for k in set(digests) & set(stored)
                                     if digests[k] != stored[k]}),
                        ("removed", set(stored) - set(digests))):
        for name in sorted(names):
            print(f"{what}: {name}", file=sys.stderr)
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
