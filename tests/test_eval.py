import os
import threading
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import stgan_nd.evaluate as evaluate_module
from stgan_nd.errors import ShapeError, SpecError
from stgan_nd.evaluate import (
    OTHERS,
    ConfusionCounts,
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


def exact_distances(x, y):
    """The (len(y), len(x)) distances in long double, from the differences."""
    diff = y.astype(np.longdouble)[:, None, :] - x.astype(np.longdouble)[None, :, :]
    return np.sqrt(np.square(diff).sum(axis=2))


@pytest.mark.parametrize("block_elements,n_x,n_y", [
    (5 * 7, 7, 23),                                          # blocks of 5 rows, 3 left over
    (7, 7, 7),                                               # one row per block
    (23 * 7, 7, 23),                                         # one block
    (evaluate_module.DISTANCE_BLOCK_ELEMENTS, 110, 10000),   # the real budget: 9532 + 468
])
def test_blocked_set_distance_matches_the_full_matrix(monkeypatch, block_elements, n_x, n_y):
    # a matrix product rounds differently in blocks of different shapes, so
    # blocked and full agree to the kernel's accuracy, and bit for bit
    # where one block covers the set
    width = 3 if n_x < 100 else 16
    monkeypatch.setattr(evaluate_module, "DISTANCE_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(n_y)
    x = rng.normal(size=(n_x, width)) * 3.0
    y = rng.normal(size=(n_y, width))

    def check(got, expected, pairs):
        if pairs <= block_elements:
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    check(pairwise_set_distance(x, y), pairwise_distances(x, y).mean(axis=1), n_x * n_y)
    own = pairwise_distances(x, x)
    check(pairwise_set_distance(x, x, exclude_self=True),
          (own.sum(axis=1) - np.diag(own)) / (n_x - 1), n_x * n_x)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(n_x=st.integers(1, 30), n_y=st.integers(0, 30), width=st.integers(1, 40),
       offset=st.floats(-1e6, 1e6), log_scale=st.floats(-3.0, 3.0),
       copies=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
@example(n_x=1, n_y=5, width=16, offset=0.0, log_scale=0.0, copies=1, seed=0)  # a GEMV
@example(n_x=6, n_y=1, width=16, offset=3.0, log_scale=0.0, copies=0, seed=1)  # a GEMV
@example(n_x=4, n_y=0, width=16, offset=0.0, log_scale=0.0, copies=0, seed=2)  # empty y
def test_pairwise_distances_match_a_long_double_oracle(
        n_x, n_y, width, offset, log_scale, copies, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    x = rng.normal(size=(n_x, width)) * scale + offset
    y = rng.normal(size=(n_y, width)) * scale + offset
    # exact copies of rows of x, then the same rows moved by 1e-9 of the scale
    k = min(copies, n_y // 2)
    copied = rng.integers(0, n_x, size=k)
    y[:k] = x[copied]
    y[k:2 * k] = x[copied] + 1e-9 * scale * rng.normal(size=(k, width))

    got = pairwise_distances(x, y)
    exact = exact_distances(x, y)
    assert got.shape == (n_y, n_x)
    assert np.all(np.abs(got - exact) <= 1e-12 * exact)
    assert np.all(got[np.arange(k), copied] == 0.0)
    assert np.all(np.diag(pairwise_distances(x, x)) == 0.0)


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


def test_distance_report_equals_the_sets_computed_one_by_one():
    rng = np.random.default_rng(2)
    real = {cls: rng.standard_normal((20 + 3 * cls, 5)) + cls for cls in range(7)}
    generated = {cls: rng.standard_normal((40, 5)) for cls in range(7)}
    random_samples = {cls: rng.standard_normal((35, 5)) for cls in range(7)}
    report = distance_report(real, generated, random_samples)
    assert list(report.per_class) == list(range(7))
    for cls, row in report.per_class.items():
        for got, values in (
                (row.baseline, pairwise_set_distance(real[cls], real[cls], exclude_self=True)),
                (row.gan, pairwise_set_distance(real[cls], generated[cls])),
                (row.random, pairwise_set_distance(real[cls], random_samples[cls]))):
            assert got == (float(values.mean()), float(values.std()))
    # a set's error reaches the caller
    random_samples[5] = rng.standard_normal((35, 4))
    with pytest.raises(ShapeError):
        distance_report(real, generated, random_samples)


def test_distance_report_runs_its_products_on_the_calling_thread_and_one_blas_thread(
        monkeypatch):
    from stgan_nd import blas

    lib = blas.openblas()
    if lib is None:
        pytest.skip("numpy is not using an OpenBLAS here")
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS runs one thread on one CPU")
    seen = []
    real_distances = evaluate_module.pairwise_distances

    def spy(x, y):
        seen.append((threading.get_ident(), lib.get_num_threads()))
        return real_distances(x, y)

    def no_thread(self):
        raise AssertionError("distance_report started a thread")

    monkeypatch.setattr(evaluate_module, "pairwise_distances", spy)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    rng = np.random.default_rng(4)
    real = {cls: rng.standard_normal((20, 5)) for cls in range(3)}
    original = lib.get_num_threads()
    try:
        lib.set_num_threads(2)
        distance_report(real, real, real)
        assert lib.get_num_threads() == 2
    finally:
        lib.set_num_threads(original)
    assert seen == [(threading.get_ident(), 1)] * 9


def test_generation_spread_zero_for_collapsed_samples():
    collapsed = np.tile([1.0, 2.0], (40, 1))
    assert generation_spread(collapsed) == 0.0
    rng = np.random.default_rng(0)
    assert generation_spread(rng.standard_normal((40, 2))) > 0.0


# ------------------------------------------------------------- thresholding

def test_classify_threshold_semantics():
    probs = np.array([[0.95, 0.05], [0.5, 0.5], [0.2, 0.8]])
    assert classify_with_threshold(probs, 0.9).tolist() == [0, OTHERS, OTHERS]
    # ties break toward the lowest class index
    assert classify_with_threshold(probs, 0.0).tolist() == [0, 0, 1]


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
    for tau in np.arange(0, 1001, 50) / 1000.0:
        report = compute_gca_nda(classify_with_threshold(probs, float(tau)), truths)
        gcas.append(report.gca)
        ndas.append(report.nda)
    assert all(a >= b - 1e-12 for a, b in zip(gcas, gcas[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(ndas, ndas[1:]))


def test_tune_threshold_demotes_rows_between_0_999_and_1():
    # a 0.001 grid keeps every row from 0.501 to 0.999 (GCA 1.0, NDA 0.5)
    # and demotes every unsaturated row at 1.0 (GCA 0.4): it overshoots
    # the 0.8 target, where tau 0.9999 demotes both near-certain novel rows
    top = [1.0] * 4 + [0.9999] * 4 + [0.9992] * 2 + [0.9995, 0.9995, 0.5, 0.5]
    probs = np.array([[p, 1.0 - p] for p in top])
    truths = [0] * 10 + [None] * 4
    tau, report = tune_threshold(probs, truths, 0.8)
    assert tau == 0.9999
    assert (report.gca, report.nda) == (0.8, 1.0)


def test_tune_threshold_at_1_demotes_every_unsaturated_row():
    # the novel row holds the largest max probability, so only tau 1.0
    # reaches NDA 1, which the unconstrained target 0 prefers
    probs = np.array([[0.4, 0.6], [0.7, 0.3]])
    tau, report = tune_threshold(probs, [1, None], 0.0)
    assert tau == 1.0
    assert (report.gca, report.nda) == (0.0, 1.0)


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


@st.composite
def _scored_samples(draw):
    """Class probabilities rounded to two decimals, so that maxima tie
    within rows, across rows and with grid thresholds, some rows saturated
    at exactly 1.0; truths with both trained and novel (None) samples."""
    n_classes = draw(st.integers(1, 5))
    n = draw(st.integers(2, 40))
    raw = np.array(draw(st.lists(st.integers(1, 9), min_size=n * n_classes,
                                 max_size=n * n_classes)), dtype=float)
    raw = raw.reshape(n, n_classes)
    probs = np.round(raw / raw.sum(axis=1, keepdims=True), 2)
    saturated = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    probs[saturated] = np.eye(n_classes)[probs[saturated].argmax(axis=1)]
    truths = draw(st.lists(st.none() | st.integers(0, n_classes - 1), min_size=n, max_size=n))
    assume(None in truths and any(t is not None for t in truths))
    return probs, truths


def brute_force_counts(probs, tau, truths) -> ConfusionCounts:
    counts = ConfusionCounts(0, 0, 0, 0, 0)
    for row, truth in zip(probs.tolist(), truths):
        winner = row.index(max(row))  # the lowest index among tied maxima
        accepted = row[winner] >= tau
        if truth is None:
            counts.novel_as_class += accepted
            counts.novel_as_others += not accepted
        elif not accepted:
            counts.trained_as_others += 1
        elif winner == truth:
            counts.correct_trained += 1
        else:
            counts.wrong_trained += 1
    return counts


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_scored_samples(), st.data())
def test_gca_nda_matches_a_count_over_the_rows(samples, data):
    probs, truths = samples
    tau = data.draw(st.sampled_from(sorted(set(probs.max(axis=1).tolist()) | {0.0, 1.0}))
                    | st.floats(0.0, 1.0))
    report = compute_gca_nda(classify_with_threshold(probs, tau), truths, tau)
    want = brute_force_counts(probs, tau, truths)
    assert report.counts == want
    n_trained = want.correct_trained + want.wrong_trained + want.trained_as_others
    n_novel = want.novel_as_others + want.novel_as_class
    assert report.gca == want.correct_trained / n_trained
    assert report.nda == want.novel_as_others / n_novel
    assert report.mean_weighted == (want.correct_trained + want.novel_as_others) / len(truths)
    assert report.tau == tau


def threshold_candidates(probs) -> list[float]:
    """0, each distinct max class probability and 1.0, in increasing order."""
    return sorted({0.0, 1.0} | set(probs.max(axis=1).tolist()))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_scored_samples(), st.sampled_from([0.0, 0.5, 0.8, 0.9, 0.95, 1.0]))
def test_tuned_threshold_is_a_candidate_reported_as_compute_gca_nda(samples, target):
    probs, truths = samples
    tau, report = tune_threshold(probs, truths, target)
    assert tau in threshold_candidates(probs)
    at_tau = compute_gca_nda(classify_with_threshold(probs, tau), truths, tau)
    assert asdict(report) == asdict(at_tau)
    # among the grid thresholds that reach the target, none has a higher
    # NDA, nor at the same NDA a higher GCA; when none reaches it, none
    # comes closer to it
    feasible = report.gca >= target - 1e-12
    for other in np.arange(0, 1001, 20) / 1000.0:
        r = compute_gca_nda(classify_with_threshold(probs, other), truths)
        if feasible:
            assert r.gca < target - 1e-12 or (r.nda, r.gca) <= (report.nda, report.gca)
        else:
            assert abs(r.gca - target) >= abs(report.gca - target)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_scored_samples())
def test_tuned_threshold_equals_a_brute_force_loop_over_the_candidates(samples):
    probs, truths = samples
    reports = [compute_gca_nda(classify_with_threshold(probs, tau), truths, tau)
               for tau in threshold_candidates(probs)]
    for target in [0.0, 0.5, 0.8, 0.9, 0.95, 1.0]:
        best, best_key = None, None
        for r in reports:
            if r.gca >= target - 1e-12:
                key = (True, r.nda, r.gca)
            else:
                key = (False, -abs(r.gca - target), r.nda)
            if best_key is None or key > best_key:  # a tie keeps the smaller tau
                best, best_key = r, key
        tau, report = tune_threshold(probs, truths, target)
        assert tau == best.tau
        assert asdict(report) == asdict(best)


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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_scored_samples())
def test_roc_is_monotone_and_its_auc_is_the_rank_statistic(samples):
    probs, truths = samples
    scores = novelty_scores(probs)
    flags = np.array([t is None for t in truths])
    points, auc = roc_auc(scores, flags)
    assert abs(auc - mann_whitney_auc(scores, flags)) < 1e-12
    curve = np.array(points)
    assert points[0] == (0.0, 0.0, float("inf"))
    assert points[-1][:2] == (1.0, 1.0)
    assert (np.diff(curve[:, :2], axis=0) >= 0).all()
    # one point per distinct score, thresholds falling
    assert len(points) == len(set(scores.tolist())) + 1
    assert (np.diff(curve[:, 2]) < 0).all()


def test_novelty_scores_are_one_minus_max():
    probs = np.array([[0.7, 0.3], [0.5, 0.5]])
    np.testing.assert_allclose(novelty_scores(probs), [0.3, 0.5])
