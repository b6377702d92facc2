"""Synthetic feature datasets and the per-class Gaussian comparison sampler.

The synthetic generator emulates muscle-activation feature maps: per class
a sparse non-negative activation pattern (a few strong channels, many
near-silent ones) with diagonal-Gaussian variation, clamped at zero. The
``overlap`` factor blends the last class toward the centroid of the other
patterns, so that holding it out yields novel samples that are not
trivially separated from the trained classes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import SpecError, check_config, integer, number, setting


@dataclass(frozen=True)
class SynthSpec:
    n_classes: int = setting(8, rule=integer(">= 2"))
    samples_per_class: int = setting(110, rule=integer(">= 1"))
    n_features: int = setting(16, rule=integer(">= 1"))
    cluster_mean_scale: float = setting(3.0, rule=number(">= 0"))
    within_class_std: float = setting(0.5, rule=number("> 0"))
    overlap: float = setting(0.6, rule=number("[0, 1]"))
    seed: int = setting(0, rule=integer(">= 0"))

    def __post_init__(self):
        check_config(self)


# share of within-class variance carried by the per-sample intensity factor
_COMMON_MODE_FRACTION = 0.4


def _class_rng(seed: int, cls: int) -> np.random.Generator:
    tag = zlib.crc32(b"synth-class")
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, int(cls)]))


def make_synthetic_dataset(spec: SynthSpec) -> Dataset:
    """Deterministic clustered dataset with the DualMyo-like default shape."""
    rngs = [_class_rng(spec.seed, cls) for cls in range(spec.n_classes)]
    # squared uniform draws skew the activation pattern: a few strong
    # channels per class; the floor keeps every channel well above zero so
    # the clamp below rarely bites
    raw_means = np.stack(
        [spec.cluster_mean_scale * (0.35 + 0.65 * rng.random(spec.n_features) ** 2)
         for rng in rngs]
    )
    stds = np.stack(
        [spec.within_class_std * rng.uniform(0.5, 1.5, spec.n_features) for rng in rngs]
    )
    means = raw_means.copy()
    # the last class is the designated hold-out candidate: park it between
    # two other patterns (leaning toward one) so it is not trivially
    # separable from the trained classes
    if spec.overlap > 0.0 and spec.n_classes >= 3:
        rng = rngs[-1]
        pair = rng.choice(spec.n_classes - 1, size=2, replace=False)
        between = 0.75 * raw_means[pair[0]] + 0.25 * raw_means[pair[1]]
        means[-1] = (1.0 - spec.overlap) * raw_means[-1] + spec.overlap * between

    features = np.empty((spec.n_classes * spec.samples_per_class, spec.n_features))
    labels = np.empty(spec.n_classes * spec.samples_per_class, dtype=int)
    common = np.sqrt(_COMMON_MODE_FRACTION)
    independent = np.sqrt(1.0 - _COMMON_MODE_FRACTION)
    for cls, rng in enumerate(rngs):
        # a per-sample intensity factor couples all channels, as overall
        # contraction strength does in muscle-activation maps
        intensity = rng.standard_normal((spec.samples_per_class, 1))
        noise = rng.standard_normal((spec.samples_per_class, spec.n_features))
        block = means[cls] + stds[cls] * (common * intensity + independent * noise)
        # std-of-activation features cannot be negative
        np.clip(block, 0.0, None, out=block)
        lo = cls * spec.samples_per_class
        features[lo:lo + spec.samples_per_class] = block
        labels[lo:lo + spec.samples_per_class] = cls

    return Dataset(features, labels)


def class_feature_stats(features: np.ndarray, labels) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per-class per-feature (mean, std) over the given rows."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    stats = {}
    for cls in sorted(set(labels.tolist())):
        rows = features[labels == cls]
        stats[cls] = (rows.mean(axis=0), rows.std(axis=0))
    return stats


def gaussian_baseline_sampler(mean, std, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n diagonal-Gaussian feature vectors for one class."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.shape != std.shape:
        raise SpecError("mean and std must have matching shapes")
    if np.any(std < 0):
        raise SpecError("std entries must be non-negative")
    return mean + std * rng.standard_normal((int(n), mean.size))
