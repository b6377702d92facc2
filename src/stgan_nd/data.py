"""Dataset ingestion, splitting, feature extraction, and target encoding.

Feature datasets are CSV files with a ``ch0,...,ch{d-1},label`` header.
Raw time-series datasets are a manifest CSV (``path,label``) pointing at
one numeric CSV per sample (t rows by d channels, no header); each sample
is reduced to its feature vector on load.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, SpecError
from .rng import substream

TRAIN, VAL, TEST = 0, 1, 2


@dataclass
class Dataset:
    """Labelled samples: an (n, d) feature matrix and one label per row."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.ndim != 1:
            raise DataError("labels must be a flat vector")
        if np.any(self.labels < 0):
            raise DataError("labels must be non-negative")
        if self.features.ndim != 2:
            raise DataError("features must form a 2-D matrix")
        if self.n_samples != self.labels.size:
            raise DataError(f"{self.n_samples} samples but {self.labels.size} labels")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


def _parse_cell(text: str, path: Path, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{path}: row {row}, column {col}: {text!r} is not numeric") from None
    if not math.isfinite(value):
        raise DataError(f"{path}: row {row}, column {col}: {text!r} is not finite")
    return value


def _csv_rows(path: Path):
    """The rows of a CSV file; bytes that are not text raise DataError naming it."""
    try:
        with open(path, newline="") as handle:
            yield from csv.reader(handle)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not {exc.encoding} text: {exc.reason}") from None


def _read_numeric_csv(path: Path, skip_header: bool) -> np.ndarray:
    rows = []
    width = None
    for i, cells in enumerate(_csv_rows(path)):
        if i == 0 and skip_header:
            continue
        if not cells:
            continue
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DataError(f"{path}: row {i} has {len(cells)} columns, expected {width}")
        rows.append([_parse_cell(c, path, i, j) for j, c in enumerate(cells)])
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def load_dataset(path, channels: list[int] | None = None) -> Dataset:
    """Load a feature CSV or a raw-sample manifest CSV.

    ``channels`` optionally restricts raw samples (and feature columns) to
    the given column indices, for datasets where only a subset of the
    recorded channels is meaningful.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    header = next(_csv_rows(path), None)
    if header is None:
        raise DataError(f"{path}: empty file")

    if [h.strip() for h in header] == ["path", "label"]:
        return _load_raw_manifest(path, channels)

    expected = [f"ch{i}" for i in range(len(header) - 1)] + ["label"]
    if [h.strip() for h in header] != expected:
        raise DataError(
            f"{path}: header must be ch0,...,ch{{d-1}},label or path,label, got {header}"
        )
    table = _read_numeric_csv(path, skip_header=True)
    features, labels = table[:, :-1], table[:, -1]
    if np.any(labels != np.round(labels)):
        raise DataError(f"{path}: labels must be integers")
    features = _select_channels(features, channels, path)
    return Dataset(features, labels.astype(int))


def _select_channels(matrix: np.ndarray, channels: list[int] | None, path) -> np.ndarray:
    if channels is None:
        return matrix
    width = matrix.shape[1]
    bad = [c for c in channels if not 0 <= c < width]
    if bad:
        raise DataError(f"{path}: channel indices {bad} outside 0..{width - 1}")
    return matrix[:, list(channels)]


def _load_raw_manifest(path: Path, channels: list[int] | None) -> Dataset:
    """Each listed recording reduced to its feature vector as it is read."""
    features, labels = [], []
    rows = _csv_rows(path)
    next(rows)  # header
    for i, cells in enumerate(rows, start=1):
        if not cells:
            continue
        if len(cells) != 2:
            raise DataError(f"{path}: manifest row {i} needs exactly path,label")
        sample_path = (path.parent / cells[0]).resolve()
        if not sample_path.exists():
            raise DataError(f"{path}: row {i} points at missing file {cells[0]}")
        sample = _read_numeric_csv(sample_path, skip_header=False)
        sample = _select_channels(sample, channels, sample_path)
        try:
            vector = extract_features(sample)
        except DataError as exc:
            raise DataError(f"{path}: row {i} ({cells[0]}): {exc}") from None
        if features and vector.size != features[0].size:
            raise DataError(f"{path}: row {i} sample has {vector.size} channels, "
                            f"the first has {features[0].size}")
        features.append(vector)
        label = _parse_cell(cells[1], path, i, 1)
        if label != round(label):
            raise DataError(f"{path}: row {i} label must be an integer")
        labels.append(int(label))
    if not features:
        raise DataError(f"{path}: manifest lists no samples")
    return Dataset(np.array(features), np.array(labels))


def save_dataset(ds: Dataset, path) -> None:
    """Write a feature dataset in the standard CSV format."""
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"ch{i}" for i in range(ds.n_features)] + ["label"])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(x)) for x in row] + [int(label)])


def extract_features(sample: np.ndarray) -> np.ndarray:
    """Per-channel standard deviation along time (population divisor)."""
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 2 or sample.shape[0] < 2:
        raise DataError("raw sample must be a (t, d) matrix with t >= 2")
    return sample.std(axis=0)


def split_dataset(ds: Dataset, seed: int) -> np.ndarray:
    """Stratified 60/20/20 split, deterministic in (dataset, seed): the
    TRAIN, VAL or TEST tag of each sample."""
    rng = substream(seed, "split")
    tags = np.empty(ds.n_samples, dtype=np.int8)
    for cls in sorted(set(ds.labels.tolist())):
        idx = np.flatnonzero(ds.labels == cls)
        n = idx.size
        if n < 5:
            raise DataError(f"class {cls} has only {n} samples; need at least 5")
        n_val = int(np.floor(0.2 * n + 0.5))
        n_test = int(np.floor(0.2 * n + 0.5))
        n_train = n - n_val - n_test
        order = rng.permutation(idx)
        tags[order[:n_train]] = TRAIN
        tags[order[n_train:n_train + n_val]] = VAL
        tags[order[n_train + n_val:]] = TEST
    return tags


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    def transform(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        return (features - self.mean) / self.std

    def inverse(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        return features * self.std + self.mean

    def to_dict(self) -> dict:
        return {
            "mean": [repr(float(x)) for x in self.mean],
            "std": [repr(float(x)) for x in self.std],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Standardizer":
        """The standardizer of the decimal strings ``to_dict`` writes."""
        return cls(*(np.array(payload[key], dtype=float) for key in ("mean", "std")))


def fit_standardizer(train_features: np.ndarray) -> Standardizer:
    """Per-feature mean/std from training rows only; rejects constant features."""
    train_features = np.asarray(train_features, dtype=float)
    if train_features.ndim != 2 or train_features.shape[0] < 2:
        raise DataError("need a (n, d) matrix with n >= 2 to fit a standardizer")
    mean = train_features.mean(axis=0)
    std = train_features.std(axis=0)
    degenerate = np.flatnonzero(std == 0.0)
    if degenerate.size:
        raise DataError(f"zero-variance features at indices {degenerate.tolist()}")
    return Standardizer(mean=mean, std=std)


def one_hot_batch(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise SpecError(f"class indices outside [0, {n_classes})")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def stochastic_target_batch(labels, n_classes: int, p_primes) -> np.ndarray:
    """One stochastic target per label, with its own peak p' at the true
    class and the rest spread uniformly over the other classes.

    p' must lie in (1/n_classes, 1] and exceed the off-peak value it
    leaves, so that the encoded class stays the strict argmax (a p' within
    rounding of 1/n_classes does not).
    """
    labels = np.asarray(labels, dtype=int)
    p_primes = np.broadcast_to(np.asarray(p_primes, dtype=float), labels.shape)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise SpecError(f"class indices outside [0, {n_classes})")
    rest = (1.0 - p_primes) / (n_classes - 1)
    if np.any(p_primes <= 1.0 / n_classes) or np.any(p_primes > 1.0) or np.any(rest >= p_primes):
        raise SpecError(
            f"p' values must lie in (1/{n_classes}, 1] and exceed (1 - p') / {n_classes - 1}"
        )
    out = np.repeat(rest[:, None], n_classes, axis=1)
    out[np.arange(labels.size), labels] = p_primes
    return out


@dataclass
class HoldOut:
    """Trained view with densely relabelled classes, plus the novel pool."""

    trained: Dataset
    novel: Dataset
    class_map: dict[int, int] = field(default_factory=dict)  # original -> dense label


def hold_out_novel(ds: Dataset, novel_classes) -> HoldOut:
    """Remove novel classes from the trainable view.

    The novel view keeps every one of its samples (they are evaluation-only
    and never enter train or validation splits).
    """
    novel = set(int(c) for c in novel_classes)
    present = set(ds.labels.tolist())
    if not novel:
        raise SpecError("novel class set is empty")
    if not novel <= present:
        raise SpecError(f"novel classes {sorted(novel - present)} not in dataset")
    if novel >= present:
        raise SpecError("novel classes cover the whole dataset")

    kept = sorted(present - novel)
    class_map = {old: new for new, old in enumerate(kept)}
    trained_mask = ~np.isin(ds.labels, sorted(novel))
    trained_labels = np.array([class_map[l] for l in ds.labels[trained_mask]])
    trained = Dataset(ds.features[trained_mask], trained_labels)
    novel_ds = Dataset(ds.features[~trained_mask], ds.labels[~trained_mask])
    return HoldOut(trained=trained, novel=novel_ds, class_map=class_map)
