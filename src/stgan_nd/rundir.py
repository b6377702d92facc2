"""The run directory: the files a run writes, clears, copies and may reuse.

A run directory holds one trained variant, ``RUN_FILES``, and loses them
all (other files stay) before it trains, so a failed run leaves no model
of another configuration and its periodic checkpoints are its own. An
evaluate's root holds ``EVALUATION_FILES`` beside one run directory per
variant. The experiments load only where a run trains.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from . import blas
from .data import Standardizer
from .errors import DataError, check, decimal, integer, list_of, map_of, read_json
from .nn import Network, load_checkpoint, save_checkpoint

if TYPE_CHECKING:
    from .cli import DataConfig, RunConfig
    from .experiments import PreparedData, TrainedModel
    from .gan import GanBundle

# manifest keys: the run environment, which replay and reuse ignore, and the
# command of a manifest that train and evaluate did not write
ENVIRONMENT, COMMAND = "environment", "command"
MANIFEST, PREPROCESSING = "manifest.json", "preprocessing.json"
DISCRIMINATOR, GENERATOR, LOSSES = "discriminator.json", "generator.json", "losses.csv"
# names and glob patterns; train_gan writes checkpoints/{name}_e{epoch:04d}.json
RUN_FILES = (MANIFEST, PREPROCESSING, DISCRIMINATOR, GENERATOR, LOSSES,
             "retrain_losses.csv", "roc.csv", "checkpoints/*_e*.json")
# one adversarial run's files, copied to a GAN variant trained from its bundle
GAN_FILES = (GENERATOR, LOSSES, RUN_FILES[-1])
EVALUATION_FILES = (MANIFEST, "report.json", "accuracy.csv")


def _files(root: Path, patterns) -> list[Path]:
    return [path for pattern in patterns for path in root.glob(pattern)]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([header, *rows])


def _write_losses(path: Path, history) -> None:
    _write_csv(path, type(history[0])._fields,
               ([epoch, *map(repr, losses)] for epoch, *losses in history))


def write_manifest(out: Path, config: DataConfig, evaluated: dict | None = None,
                   command: str | None = None, **inputs) -> None:
    """``config``, the data or run configuration read, and the environment.
    An evaluate gives what it ``evaluated``, its variants and target GCAs,
    written in place of ``variant``; another command its name and the
    ``inputs`` it read."""
    items = []
    for key, value in asdict(config).items():
        items += evaluated.items() if evaluated and key == "variant" else [(key, value)]
    head = {} if command is None else {COMMAND: command}
    payload = {**head, **dict(items), **inputs, ENVIRONMENT: blas.environment()}
    (out / MANIFEST).write_text(json.dumps(payload, indent=1))


# the table of preprocessing.json: the standardizer as ``to_dict`` writes it,
# and the class map from each original label (a string) to its dense one
PREPROCESSING_FIELDS = {
    "standardizer": {"mean": list_of(decimal(), nonempty=True),
                     "std": list_of(decimal("> 0"), nonempty=True)},
    "class_map": map_of(integer(">= 0")),
    "n_features": integer(">= 1"),
    "n_classes": integer(">= 1"),
}


def _preprocessing(prep: PreparedData) -> dict:
    return {"standardizer": prep.standardizer.to_dict(),
            "class_map": {str(k): v for k, v in prep.class_map.items()},
            "n_features": prep.n_features, "n_classes": prep.n_classes}


class RunDir:
    """The directory of one trained variant."""

    def __init__(self, path):
        self.path = Path(path)

    def clear(self) -> None:
        for path in _files(self.path, RUN_FILES):
            path.unlink()

    def matches(self, config: RunConfig, prep: PreparedData) -> bool:
        """Whether this holds a model trained for ``config`` on ``prep``'s data."""
        try:
            manifest, stored = (read_json(self.path / name) for name in (MANIFEST, PREPROCESSING))
            manifest.pop(ENVIRONMENT, None)
        except (AttributeError, DataError):
            return False
        expected = json.loads(json.dumps([asdict(config), _preprocessing(prep)]))
        return (self.path / DISCRIMINATOR).exists() and [manifest, stored] == expected

    def train(self, config: RunConfig, prep: PreparedData,
              gan: tuple[GanBundle, RunDir] | None = None) -> TrainedModel:
        """Clear, write the manifest, train ``config.variant`` on ``prep``,
        and write the model. Given ``gan``, the bundle and directory of a GAN
        variant trained here for the same configuration, a GAN variant starts
        from that bundle and copies that directory's GAN files byte for byte.
        """
        from .experiments import train_variant

        self.path.mkdir(parents=True, exist_ok=True)
        self.clear()
        write_manifest(self.path, config)
        bundle, source = gan or (None, None)
        model = train_variant(prep, config.variant, config.gan, config.baseline,
                              checkpoint_dir=self.path / "checkpoints", bundle=bundle)
        (self.path / PREPROCESSING).write_text(json.dumps(_preprocessing(prep), indent=1))
        if model.bundle is None:
            _write_losses(self.path / LOSSES, model.history)
        elif source is None:
            # the network only, as for the discriminator: the Adam moments
            # stay in the periodic checkpoints, and no command reads them
            save_checkpoint(self.path / GENERATOR, model.bundle.generator, rng_seed=config.seed)
            _write_losses(self.path / LOSSES, model.bundle.loss_history)
        else:
            (self.path / "checkpoints").mkdir(exist_ok=True)
            for path in _files(source.path, GAN_FILES):
                shutil.copyfile(path, self.path / path.relative_to(source.path))
        if config.variant == "test_3":
            _write_losses(self.path / "retrain_losses.csv", model.history)
        save_checkpoint(self.path / DISCRIMINATOR, model.network, rng_seed=config.seed)
        print(f"{config.variant}: trained, outputs in {self.path}")
        return model

    def load_discriminator(self) -> Network:
        return load_checkpoint(self.path / DISCRIMINATOR)[0]

    def write_roc(self, points) -> None:
        _write_csv(self.path / "roc.csv", ["fpr", "tpr", "threshold"],
                   ([repr(float(v)) for v in point] for point in points))

    def generator_sha256(self) -> str | None:
        path = self.path / GENERATOR
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None

    def load_generator(self, prep: PreparedData | None = None
                       ) -> tuple[Network, Standardizer]:
        """The generator and the standardizer it was trained against, checked
        against each other and, given ``prep``, against ``prep``'s data."""
        payload = read_json(self.path / PREPROCESSING)
        check(payload, PREPROCESSING_FIELDS, str(self.path / PREPROCESSING))
        standardizer = Standardizer.from_dict(payload["standardizer"])
        n_features, n_classes = payload["n_features"], payload["n_classes"]
        class_map = payload["class_map"]
        if prep is not None:
            expected = _preprocessing(prep)
            for key in ("n_features", "class_map"):
                if payload[key] != expected[key]:
                    raise DataError(f"{self.path / PREPROCESSING}: the run was trained on "
                                    f"other data: its {key} is {payload[key]}, the data's is "
                                    f"{expected[key]}")
        generator, _, _ = load_checkpoint(self.path / GENERATOR)
        # a generator maps (latent, class target) inputs to one head of features
        widths = (list(generator.spec.input_widths[1:]),
                  [w for w, _ in generator.spec.output_heads])
        if (widths != ([n_classes], [n_features]) or len(class_map) != n_classes
                or set(class_map.values()) != set(range(generator.spec.input_widths[-1]))
                or not standardizer.mean.size == standardizer.std.size == n_features):
            raise DataError(f"{self.path / GENERATOR}, of class and feature widths {widths}, "
                            f"does not fit {self.path / PREPROCESSING}: {n_classes!r} "
                            f"classes, class map {class_map}, {n_features!r} features, "
                            f"standardizer widths {standardizer.mean.size} and "
                            f"{standardizer.std.size}")
        return generator, standardizer


def clear_evaluation(root: Path) -> None:
    for path in _files(root, EVALUATION_FILES):
        path.unlink()


def write_evaluation(root: Path, config: RunConfig, variants: list[str],
                     target_gca: list[float], results: list[dict]) -> None:
    """An evaluate's report, manifest and accuracy table, in the published
    layout: a row per variant, a column group per tau=0 and tuned target."""
    header = ["variant"]
    for i, tag in enumerate(["tau0"] + [f"p{target:g}" for target in target_gca]):
        header += [f"{tag}_class", f"{tag}_others", f"{tag}_mean_balanced",
                   f"{tag}_mean_weighted"] + [f"{tag}_tau"] * (i > 0)
    rows = []
    for result in results:
        cells = [result["variant"]]
        for i, row in enumerate(result["rows"]):
            cells += [f"{100.0 * row[key]:.1f}"
                      for key in ("gca", "nda", "mean_balanced", "mean_weighted")]
            cells += [repr(row["tau"])] * (i > 0)
        rows.append(cells + [repr(result["auc"])])
    _write_csv(root / "accuracy.csv", header + ["auc"], rows)
    (root / "report.json").write_text(json.dumps(results, indent=1))
    write_manifest(root, config, {"variants": variants, "target_gca": target_gca})
