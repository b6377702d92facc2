"""Dataset ingestion, splitting, feature extraction, and target encoding.

Feature datasets are CSV files with a ``ch0,...,ch{d-1},label`` header.
Raw time-series datasets are a manifest CSV (``path,label``) pointing at
one numeric CSV per sample (t rows by d channels, no header).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, SpecError
from .rng import substream

REAL_CSV = "real_csv"
SYNTHETIC = "synthetic"

TRAIN, VAL, TEST = 0, 1, 2
_SPLIT_NAMES = {TRAIN: "train", VAL: "val", TEST: "test"}


@dataclass
class Dataset:
    """Labelled samples: either an (n, d) feature matrix or a list of raw
    (t, d) matrices awaiting feature extraction."""

    samples: np.ndarray | list[np.ndarray]
    labels: np.ndarray
    class_names: list[str] | None = None
    provenance: str = REAL_CSV

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.ndim != 1:
            raise DataError("labels must be a flat vector")
        if np.any(self.labels < 0):
            raise DataError("labels must be non-negative")
        if self.is_raw:
            widths = {s.shape[1] for s in self.samples}
            if len(widths) > 1:
                raise DataError(f"raw samples disagree on channel count: {sorted(widths)}")
            n = len(self.samples)
        else:
            self.samples = np.asarray(self.samples, dtype=float)
            if self.samples.ndim != 2:
                raise DataError("feature samples must form a 2-D matrix")
            n = self.samples.shape[0]
        if n != self.labels.size:
            raise DataError(f"{n} samples but {self.labels.size} labels")

    @property
    def is_raw(self) -> bool:
        return isinstance(self.samples, list)

    @property
    def n_samples(self) -> int:
        return len(self.samples) if self.is_raw else self.samples.shape[0]

    @property
    def n_features(self) -> int:
        if self.is_raw:
            raise DataError("raw dataset has no feature width until extraction")
        return self.samples.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def features(self) -> np.ndarray:
        if self.is_raw:
            raise DataError("extract features from raw samples first")
        return self.samples


@dataclass
class SplitAssignment:
    tags: np.ndarray  # per-sample TRAIN/VAL/TEST
    seed: int

    def mask(self, tag: int) -> np.ndarray:
        return self.tags == tag

    def counts(self) -> dict[str, int]:
        return {name: int(np.sum(self.tags == tag)) for tag, name in _SPLIT_NAMES.items()}


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"row {row}, column {col}: {text!r} is not numeric") from None


def _read_numeric_csv(path: Path, skip_header: bool) -> np.ndarray:
    rows = []
    width = None
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for i, cells in enumerate(reader):
            if i == 0 and skip_header:
                continue
            if not cells:
                continue
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DataError(f"{path}: row {i} has {len(cells)} columns, expected {width}")
            rows.append([_parse_cell(c, i, j) for j, c in enumerate(cells)])
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
    with open(path, newline="") as handle:
        header = next(csv.reader(handle), None)
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
    return Dataset(features, labels.astype(int), provenance=REAL_CSV)


def _select_channels(matrix: np.ndarray, channels: list[int] | None, path) -> np.ndarray:
    if channels is None:
        return matrix
    width = matrix.shape[1]
    bad = [c for c in channels if not 0 <= c < width]
    if bad:
        raise DataError(f"{path}: channel indices {bad} outside 0..{width - 1}")
    return matrix[:, list(channels)]


def _load_raw_manifest(path: Path, channels: list[int] | None) -> Dataset:
    samples, labels = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)  # header
        for i, cells in enumerate(reader, start=1):
            if not cells:
                continue
            if len(cells) != 2:
                raise DataError(f"{path}: manifest row {i} needs exactly path,label")
            sample_path = (path.parent / cells[0]).resolve()
            if not sample_path.exists():
                raise DataError(f"{path}: row {i} points at missing file {cells[0]}")
            sample = _read_numeric_csv(sample_path, skip_header=False)
            sample = _select_channels(sample, channels, sample_path)
            samples.append(sample)
            label = _parse_cell(cells[1], i, 1)
            if label != round(label):
                raise DataError(f"{path}: row {i} label must be an integer")
            labels.append(int(label))
    if not samples:
        raise DataError(f"{path}: manifest lists no samples")
    return Dataset(samples, np.array(labels), provenance=REAL_CSV)


def save_dataset(ds: Dataset, path) -> None:
    """Write a feature dataset in the standard CSV format."""
    features = ds.features()
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"ch{i}" for i in range(ds.n_features)] + ["label"])
        for row, label in zip(features, ds.labels):
            writer.writerow([repr(float(x)) for x in row] + [int(label)])


def extract_features(sample: np.ndarray) -> np.ndarray:
    """Per-channel standard deviation along time (population divisor)."""
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 2 or sample.shape[0] < 2:
        raise DataError("raw sample must be a (t, d) matrix with t >= 2")
    return sample.std(axis=0)


def extract_features_dataset(ds: Dataset) -> Dataset:
    """Map a raw dataset to its feature-vector form."""
    if not ds.is_raw:
        return ds
    features = np.stack([extract_features(s) for s in ds.samples])
    return Dataset(features, ds.labels.copy(), ds.class_names, ds.provenance)


def split_dataset(ds: Dataset, seed: int, novel_classes=()) -> SplitAssignment:
    """Stratified 60/20/20 split, deterministic in (dataset, seed).

    Classes listed in ``novel_classes`` are assigned entirely to the test
    split so they can never leak into fitting.
    """
    novel = set(int(c) for c in novel_classes)
    rng = substream(seed, "split")
    tags = np.empty(ds.n_samples, dtype=np.int8)
    for cls in sorted(set(ds.labels.tolist())):
        idx = np.flatnonzero(ds.labels == cls)
        if cls in novel:
            tags[idx] = TEST
            continue
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
    return SplitAssignment(tags=tags, seed=int(seed))


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
        return cls(
            mean=np.array([float(x) for x in payload["mean"]]),
            std=np.array([float(x) for x in payload["std"]]),
        )


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


def standardize(features: np.ndarray, standardizer: Standardizer) -> np.ndarray:
    return standardizer.transform(features)


def one_hot(label: int, n_classes: int) -> np.ndarray:
    label = int(label)
    if not 0 <= label < n_classes:
        raise SpecError(f"class index {label} outside [0, {n_classes})")
    vec = np.zeros(n_classes)
    vec[label] = 1.0
    return vec


def one_hot_batch(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise SpecError(f"class indices outside [0, {n_classes})")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def stochastic_target(label: int, n_classes: int, p_prime: float) -> np.ndarray:
    """Target with value p' at the true class, the rest spread uniformly.

    p' must exceed 1/n_classes so the encoded class stays the argmax.
    """
    label = int(label)
    if not 0 <= label < n_classes:
        raise SpecError(f"class index {label} outside [0, {n_classes})")
    if not 1.0 / n_classes < p_prime <= 1.0:
        raise SpecError(
            f"p' must lie in (1/{n_classes}, 1], got {p_prime}"
        )
    vec = np.full(n_classes, (1.0 - p_prime) / (n_classes - 1))
    vec[label] = p_prime
    return vec


def stochastic_target_batch(labels, n_classes: int, p_primes) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    p_primes = np.broadcast_to(np.asarray(p_primes, dtype=float), labels.shape)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise SpecError(f"class indices outside [0, {n_classes})")
    if np.any(p_primes <= 1.0 / n_classes) or np.any(p_primes > 1.0):
        raise SpecError(f"p' values must lie in (1/{n_classes}, 1]")
    rest = (1.0 - p_primes) / (n_classes - 1)
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

    def take(mask):
        if ds.is_raw:
            return [s for s, keep in zip(ds.samples, mask) if keep]
        return ds.samples[mask]

    trained_labels = np.array([class_map[l] for l in ds.labels[trained_mask]])
    names = None
    if ds.class_names is not None:
        names = [ds.class_names[old] for old in kept]
    trained = Dataset(take(trained_mask), trained_labels, names, ds.provenance)
    novel_ds = Dataset(take(~trained_mask), ds.labels[~trained_mask], ds.class_names, ds.provenance)
    return HoldOut(trained=trained, novel=novel_ds, class_map=class_map)
