"""Set distances, threshold classification, GCA/NDA, threshold tuning, ROC/AUC."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .blas import single_thread
from .errors import ShapeError, SpecError

# entries in one block of a set's (rows, len(x)) distance matrix (8 MB)
DISTANCE_BLOCK_ELEMENTS = 1 << 20
# An entry at or below this share of its centred rows' squared norms is
# recomputed from the row difference. Above it, |y|^2 + |x|^2 - 2 y.x over k
# features errs by at most 2 gamma(k+2) (|y|^2 + |x|^2), gamma(m) ~ m 2**-53
# (Higham, "Accuracy and Stability of Numerical Algorithms", ch. 3), so a
# distance is within (k + 2) 2**-53 / NEAR_SHARE relative: 2e-13 at 16 features.
NEAR_SHARE = 1e-2


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full (len(y), len(x)) matrix of L2 distances, from one matrix product.

    Centred on ``x``'s column mean, each squared distance is taken as
    |y|^2 + |x|^2 - 2 y.x; entries where that cancels (see ``NEAR_SHARE``)
    are recomputed from the row difference, so identical rows give exactly
    0.0. The last bits of the others depend on the shape of the product.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(f"feature widths differ: {x.shape} vs {y.shape}")
    centre = x.mean(axis=0)
    xc, yc = x - centre, y - centre
    norms = np.einsum("ij,ij->i", yc, yc)[:, None] + np.einsum("ij,ij->i", xc, xc)
    dists = yc @ (-2.0 * xc.T)
    dists += norms
    norms *= NEAR_SHARE
    near = dists <= norms
    if near.any():
        rows, cols = np.nonzero(near)
        diff = y[rows] - x[cols]
        dists[rows, cols] = np.einsum("ij,ij->i", diff, diff)
    return np.sqrt(dists, out=dists)


def pairwise_set_distance(x: np.ndarray, y: np.ndarray, exclude_self: bool = False) -> np.ndarray:
    """Mean L2 distance from each row of ``y`` to the set ``x``.

    With ``exclude_self`` (intra-class baseline where x and y are the same
    set in the same order), the j == i term, exactly 0.0, is dropped and
    the divisor becomes N - 1.

    Rows of ``y`` are taken in blocks of at most ``DISTANCE_BLOCK_ELEMENTS``
    distances; a set that fits one block gets the bits of
    ``pairwise_distances(x, y)``.
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
    rows = max(1, DISTANCE_BLOCK_ELEMENTS // n)
    out = np.empty(y.shape[0])
    for start in range(0, y.shape[0], rows):
        dists = pairwise_distances(x, y[start:start + rows])
        out[start:start + rows] = dists.sum(axis=1) / (n - 1 if exclude_self else n)
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


def _set_distance_stats(x: np.ndarray, y: np.ndarray, exclude_self: bool = False
                        ) -> tuple[float, float]:
    """Mean and std of ``pairwise_set_distance(x, y, exclude_self)``."""
    values = pairwise_set_distance(x, y, exclude_self)
    return float(values.mean()), float(values.std())


def distance_report(real_by_class: dict, generated_by_class: dict | None,
                    random_by_class: dict) -> DistanceReport:
    """Per-class distance statistics for the three comparisons.

    Baseline: real-vs-real with the self pair excluded. GAN and random:
    each generated/random sample against the real set of its class. The
    GAN column may be omitted by passing None.

    The sets are computed in turn on the calling thread, with OpenBLAS
    pinned to one thread: the last bits of a matrix product depend on the
    BLAS thread count, so the table is the same on any machine.
    """
    with single_thread():
        return DistanceReport({
            cls: ClassDistances(
                _set_distance_stats(real, real, True),
                None if generated_by_class is None
                else _set_distance_stats(real, generated_by_class[cls]),
                _set_distance_stats(real, random_by_class[cls]))
            for cls, real in sorted(real_by_class.items())
        })


# decision or truth code for "others": a demoted decision, or a novel sample
OTHERS = -1


def classify_with_threshold(class_probs: np.ndarray, tau: float) -> np.ndarray:
    """Argmax class per row, demoted to ``OTHERS`` when max prob < tau,
    for one threshold ``tau`` in [0, 1]."""
    if not 0.0 <= tau <= 1.0:
        raise SpecError(f"threshold must lie in [0, 1], got {tau}")
    class_probs = np.asarray(class_probs, dtype=float)
    if class_probs.ndim != 2:
        raise ShapeError("class_probs must be a (n, n_classes) matrix")
    # ties resolve to the lowest index
    return np.where(class_probs.max(axis=1) >= tau, class_probs.argmax(axis=1), OTHERS)


def _truth_codes(truths) -> np.ndarray:
    """Trained-class index per sample, with a None truth (novel) as OTHERS."""
    codes = np.asarray(truths)
    if codes.dtype == object:
        codes = np.where(np.equal(codes, None), OTHERS, codes)
    return codes.astype(int)


@dataclass
class ConfusionCounts:
    correct_trained: int
    wrong_trained: int
    trained_as_others: int
    novel_as_others: int
    novel_as_class: int


@dataclass
class EvalReport:
    gca: float
    nda: float
    mean_balanced: float
    mean_weighted: float
    tau: float
    counts: ConfusionCounts
    auc: float | None = None


def _confusion_counts(decisions: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """The five ``ConfusionCounts`` fields, in order, of one vector of
    decisions against its truths."""
    if decisions.shape != truths.shape:
        raise ShapeError("decisions and truths differ in length")
    novel = truths == OTHERS
    n_novel = int(novel.sum())
    n_trained = novel.size - n_novel
    if n_trained == 0:
        raise SpecError("no trained-class samples to score")
    if n_novel == 0:
        raise SpecError("no novel samples: NDA is undefined")
    others = decisions == OTHERS
    correct = ((decisions == truths) & ~novel).sum()
    trained_as_others = (others & ~novel).sum()
    novel_as_others = (others & novel).sum()
    return np.array([
        correct, n_trained - correct - trained_as_others, trained_as_others,
        novel_as_others, n_novel - novel_as_others,
    ])


def _gca_nda(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GCA and NDA of confusion counts laid out along the last axis."""
    return counts[..., 0] / counts[..., :3].sum(axis=-1), counts[..., 3] / counts[..., 3:].sum(axis=-1)


def _report(counts: np.ndarray, tau: float) -> EvalReport:
    """The report of the confusion counts at one threshold."""
    gca, nda = (float(a) for a in _gca_nda(counts))
    counts = counts.tolist()
    return EvalReport(gca=gca, nda=nda, mean_balanced=(gca + nda) / 2.0,
                      mean_weighted=(counts[0] + counts[3]) / sum(counts),
                      tau=float(tau), counts=ConfusionCounts(*counts))


def compute_gca_nda(decisions: np.ndarray, truths, tau: float = 0.0) -> EvalReport:
    """Gesture classification accuracy and novelty detection accuracy.

    ``decisions`` comes from ``classify_with_threshold`` at threshold
    ``tau``, which the report records. ``truths`` holds the trained-class
    index per sample, and ``OTHERS`` or None for a novel sample. A trained
    sample demoted to "others" counts as wrong.
    """
    return _report(_confusion_counts(np.asarray(decisions), _truth_codes(truths)), tau)


def tune_threshold(class_probs: np.ndarray, truths, target_gca: float) -> tuple[float, EvalReport]:
    """Pick the threshold that maximizes NDA subject to GCA >= target.

    The candidates are 0, each distinct max class probability and 1.0:
    every tau in [0, 1] splits the rows as one of them does. Sorting the
    max probabilities once gives the rows each candidate demotes, and
    running sums over them give the confusion counts at every candidate.
    NDA ties resolve toward the higher GCA, then the smaller threshold.
    When no candidate reaches the target GCA, the one closest to it wins.
    """
    class_probs = np.asarray(class_probs, dtype=float)
    codes = _truth_codes(truths)
    decisions = classify_with_threshold(class_probs, 0.0)
    kept = _confusion_counts(decisions, codes)
    top = class_probs.max(axis=1)
    order = np.argsort(top)
    taus = np.unique(np.r_[0.0, top, 1.0])
    demoted = np.searchsorted(top[order], taus)  # rows with max < tau
    novel = codes[order] == OTHERS
    correct = (decisions[order] == codes[order]) & ~novel
    # row k: correct trained, wrong trained and novel rows among the k lowest maxima
    moved = np.cumsum(np.stack([correct, ~novel & ~correct, novel], axis=1), axis=0)
    c, w, n = np.r_[np.zeros((1, 3), dtype=int), moved][demoted].T
    counts = kept + np.stack([-c, -w, c + w, n, -n], axis=1)
    gca, nda = _gca_nda(counts)
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
    tau = float(taus[best])
    return tau, _report(counts[best], tau)


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
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], scores.size] - 1
    tp = np.cumsum(flags[order])[ends]
    fpr = np.r_[0.0, (ends + 1 - tp) / n_neg]
    tpr = np.r_[0.0, tp / n_pos]
    points = list(zip(fpr.tolist(), tpr.tolist(), [float("inf")] + sorted_scores[starts].tolist()))

    # cumsum adds the trapezoids one after another, left to right
    auc = np.cumsum((fpr[1:] - fpr[:-1]) * (tpr[:-1] + tpr[1:]) / 2.0)[-1]
    return points, float(auc)


def novelty_scores(class_probs: np.ndarray) -> np.ndarray:
    """Score in [0, 1): one minus the maximum class probability."""
    return 1.0 - np.asarray(class_probs, dtype=float).max(axis=1)
