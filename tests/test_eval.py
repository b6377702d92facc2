import numpy as np
import pytest

import stgan_nd.evaluate as evaluate_module
from stgan_nd.errors import ShapeError, SpecError
from stgan_nd.evaluate import (
    THRESHOLD_GRID,
    classify_with_threshold,
    compute_gca_nda,
    distance_report,
    generation_spread,
    novelty_scores,
    pairwise_distances,
    pairwise_set_distance,
    roc_auc,
    tune_threshold,
)


# ------------------------------------------------------------- distances

def brute_force_set_distance(x, y, exclude_self=False):
    out = np.zeros(len(y))
    for i in range(len(y)):
        total = 0.0
        count = 0
        for j in range(len(x)):
            if exclude_self and j == i:
                continue
            total += np.sqrt(((x[j] - y[i]) ** 2).sum())
            count += 1
        out[i] = total / count
    return out


@pytest.mark.parametrize("block_elements,n_x,n_y", [
    (5 * 7 * 3, 7, 23),                                  # blocks of 5 rows, 3 left over
    (7 * 3, 7, 7),                                       # one row per block
    (evaluate_module.DISTANCE_BLOCK_ELEMENTS, 110, 1200),  # the real budget: 595 + 595 + 10
])
def test_blocked_set_distance_equals_the_full_matrix_bit_for_bit(
        monkeypatch, block_elements, n_x, n_y):
    width = 3 if n_x < 100 else 16
    monkeypatch.setattr(evaluate_module, "DISTANCE_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(n_y)
    x = rng.normal(size=(n_x, width)) * 3.0
    y = rng.normal(size=(n_y, width))
    full = pairwise_distances(x, y)
    np.testing.assert_array_equal(pairwise_set_distance(x, y), full.mean(axis=1))
    own = pairwise_distances(y, y)
    np.testing.assert_array_equal(pairwise_set_distance(y, y, exclude_self=True),
                                  (own.sum(axis=1) - np.diag(own)) / (n_y - 1))


def test_distance_to_identical_single_row_is_zero():
    x = np.array([[1.0, 2.0, 3.0]])
    assert pairwise_set_distance(x, x.copy())[0] == 0.0


def test_distance_analytic_example():
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    y = np.array([[1.0, 0.0]])
    np.testing.assert_allclose(pairwise_set_distance(x, y), [1.0])


def test_distance_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n, m, f = rng.integers(1, 8), rng.integers(1, 8), rng.integers(1, 5)
        x = rng.standard_normal((n, f))
        y = rng.standard_normal((m, f))
        np.testing.assert_allclose(
            pairwise_set_distance(x, y), brute_force_set_distance(x, y), atol=1e-12
        )


def test_self_excluded_distance_matches_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((9, 4))
    np.testing.assert_allclose(
        pairwise_set_distance(x, x, exclude_self=True),
        brute_force_set_distance(x, x, exclude_self=True),
        atol=1e-12,
    )


def test_distance_invariant_under_reference_permutation():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal((6, 3))
    base = pairwise_set_distance(x, y)
    shuffled = pairwise_set_distance(x[rng.permutation(12)], y)
    np.testing.assert_allclose(base, shuffled, atol=1e-12)


def test_distance_error_cases():
    with pytest.raises(ShapeError):
        pairwise_set_distance(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(SpecError):
        pairwise_set_distance(np.zeros((0, 3)), np.zeros((2, 3)))
    with pytest.raises(SpecError):
        pairwise_set_distance(np.zeros((1, 3)), np.zeros((1, 3)), exclude_self=True)
    with pytest.raises(ShapeError):
        pairwise_set_distance(np.zeros((3, 2)), np.zeros((2, 2)), exclude_self=True)


def test_distance_report_columns():
    rng = np.random.default_rng(1)
    real = {0: rng.standard_normal((30, 4)), 1: rng.standard_normal((25, 4)) + 3.0}
    random_samples = {0: rng.standard_normal((30, 4)), 1: rng.standard_normal((25, 4))}
    report = distance_report(real, {0: real[0].copy(), 1: real[1].copy()}, random_samples)
    for cls in (0, 1):
        row = report.per_class[cls]
        assert row.baseline[0] >= 0 and row.random[0] >= 0
        # a generator that reproduced the real set exactly lands on the
        # baseline up to the self-pair: the plain mean divides by N instead
        # of N-1, shrinking each entry by (N-1)/N
        n = len(real[cls])
        np.testing.assert_allclose(row.gan[0], row.baseline[0] * (n - 1) / n, rtol=1e-12)

    no_gan = distance_report(real, None, random_samples)
    assert no_gan.per_class[0].gan is None


def test_generation_spread_zero_for_collapsed_samples():
    collapsed = np.tile([1.0, 2.0], (40, 1))
    assert generation_spread(collapsed) == 0.0
    rng = np.random.default_rng(0)
    assert generation_spread(rng.standard_normal((40, 2))) > 0.0


# ------------------------------------------------------------- thresholding

def test_classify_threshold_semantics():
    probs = np.array([[0.95, 0.05], [0.5, 0.5], [0.2, 0.8]])
    decisions = classify_with_threshold(probs, 0.9)
    assert decisions[0].class_index == 0
    assert decisions[1].is_others
    assert decisions[2].is_others

    at_zero = classify_with_threshold(probs, 0.0)
    assert not any(d.is_others for d in at_zero)
    # ties break toward the lowest class index
    assert at_zero[1].class_index == 0


def test_classify_rejects_bad_tau():
    with pytest.raises(SpecError):
        classify_with_threshold(np.array([[1.0]]), 1.5)


def test_gca_nda_perfect_case():
    probs = np.array([[0.99, 0.01], [0.01, 0.99], [0.55, 0.45]])
    truths = [0, 1, None]
    report = compute_gca_nda(classify_with_threshold(probs, 0.9), truths)
    assert report.gca == 1.0
    assert report.nda == 1.0
    assert report.mean_balanced == 1.0
    assert report.mean_weighted == 1.0


def test_gca_nda_partition_invariant():
    rng = np.random.default_rng(7)
    raw = rng.uniform(0.01, 1.0, (60, 5))
    probs = raw / raw.sum(axis=1, keepdims=True)
    truths = [int(t) if t < 5 else None for t in rng.integers(0, 7, 60)]
    report = compute_gca_nda(classify_with_threshold(probs, 0.4), truths)
    counts = report.counts
    n_trained = sum(t is not None for t in truths)
    n_novel = len(truths) - n_trained
    assert counts.correct_trained + counts.wrong_trained + counts.trained_as_others == n_trained
    assert counts.novel_as_others + counts.novel_as_class == n_novel
    expected_weighted = (counts.correct_trained + counts.novel_as_others) / 60
    assert abs(report.mean_weighted - expected_weighted) < 1e-12


def test_tau_zero_forces_nda_zero_and_argmax_gca():
    rng = np.random.default_rng(11)
    raw = rng.uniform(0.01, 1.0, (40, 4))
    probs = raw / raw.sum(axis=1, keepdims=True)
    truths = [int(t) if t < 4 else None for t in rng.integers(0, 6, 40)]
    report = compute_gca_nda(classify_with_threshold(probs, 0.0), truths)
    assert report.nda == 0.0
    trained = [i for i, t in enumerate(truths) if t is not None]
    plain = np.mean([probs[i].argmax() == truths[i] for i in trained])
    assert abs(report.gca - plain) < 1e-12


def test_gca_nda_requires_both_populations():
    probs = np.array([[0.9, 0.1]])
    with pytest.raises(SpecError):
        compute_gca_nda(classify_with_threshold(probs, 0.0), [0])
    with pytest.raises(SpecError):
        compute_gca_nda(classify_with_threshold(probs, 0.0), [None])


def test_tune_threshold_on_separable_scores():
    probs = np.array([[0.99, 0.01], [0.98, 0.02], [0.6, 0.4], [0.55, 0.45]])
    truths = [0, 0, None, None]
    tau, report = tune_threshold(probs, truths, 0.95)
    assert report.gca == 1.0
    assert report.nda == 1.0
    assert 0.6 < tau <= 0.98


def test_threshold_monotonicity_over_grid():
    rng = np.random.default_rng(23)
    raw = rng.uniform(0.01, 1.0, (120, 6))
    probs = raw / raw.sum(axis=1, keepdims=True)
    truths = [int(t) if t < 6 else None for t in rng.integers(0, 8, 120)]
    gcas, ndas = [], []
    for tau in THRESHOLD_GRID[::50]:
        report = compute_gca_nda(classify_with_threshold(probs, float(tau)), truths)
        gcas.append(report.gca)
        ndas.append(report.nda)
    assert all(a >= b - 1e-12 for a, b in zip(gcas, gcas[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(ndas, ndas[1:]))


def test_tune_threshold_falls_back_to_closest_gca():
    # every threshold keeps GCA at 0.5: the target 0.99 is unreachable and
    # the closest-GCA rule applies
    probs = np.array([[0.9, 0.1], [0.4, 0.6], [0.3, 0.7]])
    truths = [0, 0, None]
    tau, report = tune_threshold(probs, truths, 0.99)
    assert report.gca == 0.5
    assert report.nda == 1.0  # within the tie, NDA is maximized


def test_tune_threshold_requires_novel_samples():
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(SpecError):
        tune_threshold(probs, [0, 1], 0.9)


# ------------------------------------------------------------------- ROC

def mann_whitney_auc(scores, flags):
    pos = scores[flags]
    neg = scores[~flags]
    wins = 0.0
    for p in pos:
        wins += (p > neg).sum() + 0.5 * (p == neg).sum()
    return wins / (len(pos) * len(neg))


def test_roc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    flags = np.array([True, True, False, False])
    points, auc = roc_auc(scores, flags)
    assert auc == 1.0
    assert points[0] == (0.0, 0.0, float("inf"))
    assert points[-1][:2] == (1.0, 1.0)


def test_roc_identical_scores_is_half():
    scores = np.full(10, 0.5)
    flags = np.array([True] * 4 + [False] * 6)
    _, auc = roc_auc(scores, flags)
    assert auc == 0.5


def test_roc_matches_rank_statistic_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.random(n), 2)  # rounding forces ties
        flags = rng.random(n) < 0.4
        if flags.all() or not flags.any():
            continue
        _, auc = roc_auc(scores, flags)
        assert abs(auc - mann_whitney_auc(scores, flags)) < 1e-12


def test_roc_invariant_under_monotone_transform():
    rng = np.random.default_rng(13)
    scores = rng.random(60)
    flags = rng.random(60) < 0.5
    _, auc1 = roc_auc(scores, flags)
    _, auc2 = roc_auc(np.exp(3.0 * scores) + 7.0, flags)
    assert abs(auc1 - auc2) < 1e-12


def test_roc_requires_both_classes():
    with pytest.raises(SpecError):
        roc_auc(np.array([0.1, 0.2]), np.array([True, True]))


def test_novelty_scores_are_one_minus_max():
    probs = np.array([[0.7, 0.3], [0.5, 0.5]])
    np.testing.assert_allclose(novelty_scores(probs), [0.3, 0.5])
