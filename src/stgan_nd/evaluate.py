"""Set distances, threshold classification, GCA/NDA, threshold tuning, ROC/AUC."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ShapeError, SpecError

THRESHOLD_GRID = np.arange(1001) / 1000.0  # 0, 0.001, ..., 1.0
# float64 elements in one block of the set-distance broadcast (8 MB)
DISTANCE_BLOCK_ELEMENTS = 1 << 20


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full (len(y), len(x)) matrix of L2 distances."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(f"feature widths differ: {x.shape} vs {y.shape}")
    diff = y[:, None, :] - x[None, :, :]
    return np.sqrt(np.square(diff).sum(axis=2))


def pairwise_set_distance(x: np.ndarray, y: np.ndarray, exclude_self: bool = False) -> np.ndarray:
    """Mean L2 distance from each row of ``y`` to the set ``x``.

    With ``exclude_self`` (intra-class baseline where x and y are the same
    set in the same order), the j == i term is dropped and the divisor
    becomes N - 1.

    Rows of ``y`` are taken in blocks so that the broadcast stays within
    ``DISTANCE_BLOCK_ELEMENTS``; each row's result is computed exactly as
    from the full distance matrix.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(f"feature widths differ: {x.shape} vs {y.shape}")
    n = x.shape[0]
    if n == 0:
        raise SpecError("reference set is empty")
    if exclude_self:
        if y.shape[0] != n:
            raise ShapeError("exclude_self requires x and y to be the same set")
        if n < 2:
            raise SpecError("need at least 2 samples to exclude the self-distance")
    rows = max(1, DISTANCE_BLOCK_ELEMENTS // max(1, n * x.shape[1]))
    out = np.empty(y.shape[0])
    for start in range(0, y.shape[0], rows):
        dists = pairwise_distances(x, y[start:start + rows])
        if exclude_self:
            own = dists[np.arange(dists.shape[0]), np.arange(start, start + dists.shape[0])]
            out[start:start + rows] = (dists.sum(axis=1) - own) / (n - 1)
        else:
            out[start:start + rows] = dists.mean(axis=1)
    return out


def generation_spread(samples: np.ndarray) -> float:
    """Std of all pairwise distances within a sample set (collapse witness)."""
    dists = pairwise_distances(samples, samples)
    iu = np.triu_indices(dists.shape[0], k=1)
    return float(dists[iu].std())


@dataclass
class ClassDistances:
    baseline: tuple[float, float]
    gan: tuple[float, float] | None
    random: tuple[float, float]


@dataclass
class DistanceReport:
    per_class: dict[int, ClassDistances]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["class", "baseline_mean", "baseline_std",
                 "gan_mean", "gan_std", "random_mean", "random_std"]
            )
            for cls in sorted(self.per_class):
                row = self.per_class[cls]
                gan = row.gan if row.gan is not None else ("", "")
                writer.writerow(
                    [cls, repr(row.baseline[0]), repr(row.baseline[1]),
                     "" if gan[0] == "" else repr(gan[0]),
                     "" if gan[1] == "" else repr(gan[1]),
                     repr(row.random[0]), repr(row.random[1])]
                )


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std())


def distance_report(real_by_class: dict, generated_by_class: dict | None,
                    random_by_class: dict) -> DistanceReport:
    """Per-class distance statistics for the three comparisons.

    Baseline: real-vs-real with the self pair excluded. GAN and random:
    each generated/random sample against the real set of its class. The
    GAN column may be omitted by passing None.
    """
    per_class = {}
    for cls in sorted(real_by_class):
        real = np.asarray(real_by_class[cls], dtype=float)
        baseline = _mean_std(pairwise_set_distance(real, real, exclude_self=True))
        gan = None
        if generated_by_class is not None:
            gan = _mean_std(pairwise_set_distance(real, generated_by_class[cls]))
        rand = _mean_std(pairwise_set_distance(real, random_by_class[cls]))
        per_class[cls] = ClassDistances(baseline=baseline, gan=gan, random=rand)
    return DistanceReport(per_class)


@dataclass
class Decision:
    class_index: int | None  # None means "others"
    score: float
    tau: float

    @property
    def is_others(self) -> bool:
        return self.class_index is None


def classify_with_threshold(class_probs: np.ndarray, tau: float) -> list[Decision]:
    """Argmax classification, demoted to "others" when max prob < tau."""
    if not 0.0 <= tau <= 1.0:
        raise SpecError(f"threshold must lie in [0, 1], got {tau}")
    class_probs = np.asarray(class_probs, dtype=float)
    if class_probs.ndim != 2:
        raise ShapeError("class_probs must be a (n, n_classes) matrix")
    winners = class_probs.argmax(axis=1)  # ties resolve to the lowest index
    scores = class_probs.max(axis=1)
    return [
        Decision(int(w) if s >= tau else None, float(s), float(tau))
        for w, s in zip(winners, scores)
    ]


@dataclass
class ConfusionCounts:
    correct_trained: int = 0
    wrong_trained: int = 0
    trained_as_others: int = 0
    novel_as_others: int = 0
    novel_as_class: int = 0

    @property
    def n_trained(self) -> int:
        return self.correct_trained + self.wrong_trained + self.trained_as_others

    @property
    def n_novel(self) -> int:
        return self.novel_as_others + self.novel_as_class


@dataclass
class EvalReport:
    gca: float
    nda: float
    mean_balanced: float
    mean_weighted: float
    tau: float
    counts: ConfusionCounts
    roc_points: list[tuple[float, float, float]] | None = None
    auc: float | None = None

    def to_dict(self) -> dict:
        return {
            "gca": self.gca,
            "nda": self.nda,
            "mean_balanced": self.mean_balanced,
            "mean_weighted": self.mean_weighted,
            "tau": self.tau,
            "counts": vars(self.counts).copy(),
            "auc": self.auc,
        }


def compute_gca_nda(decisions: list[Decision], truths) -> EvalReport:
    """Gesture classification accuracy and novelty detection accuracy.

    ``truths`` holds the trained-class index per sample, or None for a
    novel sample. A trained sample demoted to "others" counts as wrong.
    """
    if len(decisions) != len(truths):
        raise ShapeError("decisions and truths differ in length")
    counts = ConfusionCounts()
    for decision, truth in zip(decisions, truths):
        if truth is None:
            if decision.is_others:
                counts.novel_as_others += 1
            else:
                counts.novel_as_class += 1
        elif decision.is_others:
            counts.trained_as_others += 1
        elif decision.class_index == int(truth):
            counts.correct_trained += 1
        else:
            counts.wrong_trained += 1
    if counts.n_trained == 0:
        raise SpecError("no trained-class samples to score")
    if counts.n_novel == 0:
        raise SpecError("no novel samples: NDA is undefined")
    gca = counts.correct_trained / counts.n_trained
    nda = counts.novel_as_others / counts.n_novel
    weighted = (counts.correct_trained + counts.novel_as_others) / (
        counts.n_trained + counts.n_novel
    )
    tau = decisions[0].tau if decisions else 0.0
    return EvalReport(
        gca=gca,
        nda=nda,
        mean_balanced=(gca + nda) / 2.0,
        mean_weighted=weighted,
        tau=tau,
        counts=counts,
    )


def _grid_accuracies(class_probs: np.ndarray, truths) -> tuple[np.ndarray, np.ndarray]:
    """GCA and NDA over the whole threshold grid, vectorized."""
    class_probs = np.asarray(class_probs, dtype=float)
    scores = class_probs.max(axis=1)
    winners = class_probs.argmax(axis=1)
    is_novel = np.array([t is None for t in truths])
    if is_novel.all() or not is_novel.any():
        raise SpecError("need both trained and novel samples to tune a threshold")
    truth_idx = np.array([-1 if t is None else int(t) for t in truths])
    trained = ~is_novel
    hit = trained & (winners == truth_idx)

    accepted = scores[None, :] >= THRESHOLD_GRID[:, None]  # (grid, n)
    gca = (accepted[:, trained] & hit[None, trained]).sum(axis=1) / trained.sum()
    nda = (~accepted[:, is_novel]).sum(axis=1) / is_novel.sum()
    return gca, nda


def tune_threshold(class_probs: np.ndarray, truths, target_gca: float) -> tuple[float, EvalReport]:
    """Pick the grid threshold that maximizes NDA subject to GCA >= target.

    NDA ties resolve toward the higher GCA (smaller threshold). When no
    threshold reaches the target GCA, the one whose GCA is closest to the
    target wins.
    """
    gca, nda = _grid_accuracies(class_probs, truths)
    feasible = gca >= target_gca - 1e-12
    if feasible.any():
        candidates = np.flatnonzero(feasible)
        best_nda = nda[candidates].max()
        tied = candidates[nda[candidates] == best_nda]
        best = tied[np.argmax(gca[tied])]
    else:
        gap = np.abs(gca - target_gca)
        tied = np.flatnonzero(gap == gap.min())
        best = tied[np.argmax(nda[tied])]
    tau = float(THRESHOLD_GRID[best])
    report = compute_gca_nda(classify_with_threshold(class_probs, tau), truths)
    return tau, report


def roc_auc(novelty_scores, is_novel) -> tuple[list[tuple[float, float, float]], float]:
    """ROC curve (novel = positive class) and its trapezoidal AUC.

    Samples with equal scores move together, so ties produce a single ROC
    point and the AUC matches the Mann-Whitney rank statistic exactly.
    """
    scores = np.asarray(novelty_scores, dtype=float)
    flags = np.asarray(is_novel, dtype=bool)
    if scores.shape != flags.shape or scores.ndim != 1:
        raise ShapeError("scores and flags must be matching vectors")
    n_pos = int(flags.sum())
    n_neg = int(flags.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise SpecError("ROC needs at least one novel and one trained sample")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_flags = flags[order]

    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    i = 0
    n = scores.size
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            if sorted_flags[j]:
                tp += 1
            else:
                fp += 1
            j += 1
        points.append((fp / n_neg, tp / n_pos, float(sorted_scores[i])))
        i = j

    auc = 0.0
    for (fpr0, tpr0, _), (fpr1, tpr1, _) in zip(points, points[1:]):
        auc += (fpr1 - fpr0) * (tpr0 + tpr1) / 2.0
    return points, float(auc)


def novelty_scores(class_probs: np.ndarray) -> np.ndarray:
    """Score in [0, 1): one minus the maximum class probability."""
    return 1.0 - np.asarray(class_probs, dtype=float).max(axis=1)


def write_roc_csv(points, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["fpr", "tpr", "threshold"])
        for fpr, tpr, thr in points:
            writer.writerow([repr(float(fpr)), repr(float(tpr)), repr(float(thr))])
