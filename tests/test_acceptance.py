"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Criterion 6 trains the full experiment matrix on four seeds and
dominates the runtime (roughly ten minutes on two cores).

The real-data check (criterion 9) runs only when the environment variable
STGAN_ND_DUALMYO_CSV points at the DualMyo feature CSV; it is skipped
otherwise.
"""

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from stgan_nd.data import load_dataset, stochastic_target_batch
from stgan_nd.evaluate import (
    classify_with_threshold,
    compute_gca_nda,
    generation_spread,
    novelty_scores,
    pairwise_set_distance,
    roc_auc,
)
from stgan_nd.experiments import (
    distance_tables,
    evaluate_model,
    prepare_data,
    train_variant,
)
from stgan_nd.gan import BaselineConfig, GanConfig, generate_samples
from stgan_nd.nn import (
    AdamState,
    TRAIN,
    NetworkSpec,
    adam_step,
    binary_cross_entropy,
    categorical_cross_entropy,
    composite_loss,
    init_network,
)
from stgan_nd.nn.specs import (
    batch_norm,
    dense,
    dropout,
    gaussian_noise,
    linear,
    relu,
    sigmoid,
    softmax,
)
from stgan_nd.rng import substream
from stgan_nd.synth import SynthSpec, make_synthetic_dataset

SEEDS = (1, 2, 3, 4)
TARGET_GCA = 0.90


def report(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


# ----------------------------------------------------------------- 1

def _random_trunk(rng):
    pool = [
        lambda: dense(int(rng.integers(2, 6))),
        relu,
        sigmoid,
        softmax,
        linear,
        lambda: gaussian_noise(float(rng.uniform(0.05, 0.3))),
        batch_norm,
        lambda: dropout(float(rng.uniform(0.1, 0.5))),
    ]
    picks = rng.integers(0, len(pool), size=int(rng.integers(2, 5)))
    return tuple(pool[i]() for i in picks)


def test_criterion_1_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    # every layer kind shows up once in the first eight trunks, then random
    guaranteed = [dense(4), relu(), sigmoid(), softmax(), linear(),
                  gaussian_noise(0.2), batch_norm(), dropout(0.3)]
    for trial in range(20):
        if trial < len(guaranteed):
            trunk = (dense(5), guaranteed[trial], relu())
        else:
            trunk = _random_trunk(rng)
        n_inputs = int(rng.integers(1, 3))
        widths = tuple(int(rng.integers(2, 5)) for _ in range(n_inputs))
        n_c = int(rng.integers(2, 5))
        spec = NetworkSpec(widths, trunk, ((1, "sigmoid"), (n_c, "softmax")))
        net = init_network(spec, seed=trial)
        batch = int(rng.integers(2, 5))
        inputs = [rng.standard_normal((batch, w)) for w in widths]
        target_c = np.zeros((batch, n_c))
        target_c[np.arange(batch), rng.integers(0, n_c, batch)] = 1.0
        target_v = rng.integers(0, 2, (batch, 1)).astype(float)
        w1, w2 = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5))

        def loss(seed=trial * 7 + 1):
            lrng = np.random.default_rng(seed)
            (v, y), cache = net.forward(inputs, TRAIN, rng=lrng, update_stats=False)
            comp = composite_loss(
                binary_cross_entropy(v, target_v),
                categorical_cross_entropy(y, target_c), w1, w2,
            )
            return comp, cache

        comp, cache = loss()
        grads = net.backward(cache, comp.gradient)
        arrays = list(zip(grads.params, net.parameters())) + list(zip(grads.inputs, inputs))
        for analytic, array in arrays:
            it = np.nditer(array, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = array[idx]
                array[idx] = orig + 1e-5
                plus = loss()[0].scalar
                array[idx] = orig - 1e-5
                minus = loss()[0].scalar
                array[idx] = orig
                numeric = (plus - minus) / 2e-5
                err = abs(analytic[idx] - numeric) / max(abs(analytic[idx]) + abs(numeric), 1e-8)
                worst = max(worst, err)
                it.iternext()
    elapsed = time.time() - started
    report(1, worst < 1e-4 and elapsed < 30.0,
           f"max rel err {worst:.2e} over 20 nets in {elapsed:.1f}s "
           "(every layer kind, both losses)")


# ----------------------------------------------------------------- 2

def test_criterion_2_adam_oracle():
    lr, beta1, beta2, eps = 0.003, 0.5, 0.999, 1e-8
    param = np.array([0.25, -1.0])
    grad = np.array([0.8, -0.1])
    state = AdamState.for_params(param, lr, beta1=beta1, beta2=beta2, epsilon=eps)
    adam_step(state, param, grad)
    worst = 0.0
    for p, g, w0 in zip(param, grad, (0.25, -1.0)):
        m = (1 - beta1) * g
        v = (1 - beta2) * g ** 2
        expected = w0 - lr * (m / (1 - beta1)) / (math.sqrt(v / (1 - beta2)) + eps)
        worst = max(worst, abs(p - expected))
    report(2, worst < 1e-10, f"hand-computed single step, max |diff| {worst:.2e}")


# ----------------------------------------------------------------- 3

def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(7)
    worst_dist = 0.0
    for _ in range(50):
        n, m, f = (int(rng.integers(1, 9)) for _ in range(3))
        x, y = rng.standard_normal((n, max(f, 1))), rng.standard_normal((m, max(f, 1)))
        got = pairwise_set_distance(x, y)
        want = np.array([
            np.mean([np.linalg.norm(xi - yi) for xi in x]) for yi in y
        ])
        worst_dist = max(worst_dist, np.abs(got - want).max())

    worst_auc = 0.0
    trials = 0
    while trials < 50:
        n = int(rng.integers(4, 50))
        scores = np.round(rng.random(n), 2)
        flags = rng.random(n) < 0.5
        if flags.all() or not flags.any():
            continue
        trials += 1
        _, auc = roc_auc(scores, flags)
        pos, neg = scores[flags], scores[~flags]
        u = sum((p > neg).sum() + 0.5 * (p == neg).sum() for p in pos)
        worst_auc = max(worst_auc, abs(auc - u / (len(pos) * len(neg))))
    report(3, worst_dist < 1e-12 and worst_auc < 1e-12,
           f"distance vs brute force {worst_dist:.2e}, AUC vs rank statistic {worst_auc:.2e}")


# ----------------------------------------------------------------- 4

def test_criterion_4_threshold_semantics():
    rng = np.random.default_rng(12)
    ok = True
    for _ in range(5):
        raw = rng.uniform(0.01, 1.0, (80, 5))
        probs = raw / raw.sum(axis=1, keepdims=True)
        truths = [int(t) if t < 5 else None for t in rng.integers(0, 7, 80)]
        zero = compute_gca_nda(classify_with_threshold(probs, 0.0), truths)
        trained = [i for i, t in enumerate(truths) if t is not None]
        argmax_acc = float(np.mean([probs[i].argmax() == truths[i] for i in trained]))
        ok &= zero.nda == 0.0
        ok &= abs(zero.gca - argmax_acc) < 1e-12
        last_gca, last_nda = 2.0, -1.0
        for tau in np.arange(0, 1001, 10) / 1000.0:
            r = compute_gca_nda(classify_with_threshold(probs, float(tau)), truths)
            ok &= r.gca <= last_gca + 1e-12 and r.nda >= last_nda - 1e-12
            last_gca, last_nda = r.gca, r.nda
    report(4, ok, "tau=0 gives NDA=0 and argmax GCA; GCA/NDA monotone over the grid")


# ----------------------------------------------------------------- 5

def test_criterion_5_stochastic_target_law():
    rng = substream(99, "acceptance-targets")
    n = 10 ** 4
    labels = rng.integers(0, 7, n)
    peaks = rng.uniform(0.9, 1.0, n)
    targets = stochastic_target_batch(labels, 7, peaks)
    sums_ok = np.abs(targets.sum(axis=1) - 1.0).max() < 1e-9
    argmax_ok = bool((targets.argmax(axis=1) == labels).all())
    report(5, sums_ok and argmax_ok,
           f"{n} sampled targets: sums within 1e-9, argmax preserved")


# ----------------------------------------------------------------- 6-8

def _run_seed(seed):
    ds = make_synthetic_dataset(SynthSpec())
    prep = prepare_data(ds, [7], seed=seed)
    started = time.time()
    gan_config = GanConfig()                  # 300 epochs; the batch size is 32
    baseline_config = BaselineConfig()
    t2 = train_variant(prep, "test_2", gan_config, baseline_config, seed=seed)
    base = train_variant(prep, "baseline_a", gan_config, baseline_config, seed=seed)
    ev2 = evaluate_model(t2.network, prep, [TARGET_GCA])
    evb = evaluate_model(base.network, prep, [TARGET_GCA])
    elapsed = time.time() - started

    distances = distance_tables(prep, t2.bundle.generator, seed)
    gan_wins = sum(
        1 for row in distances.per_class.values() if row.gan[0] < row.random[0]
    )
    spread_rng = substream(seed, "acceptance-spread")
    spreads_ok = all(
        generation_spread(
            prep.standardizer.inverse(
                generate_samples(t2.bundle.generator, cls, 100, spread_rng)
            )
        ) > 0.05 * distances.per_class[cls].baseline[0]
        for cls in range(prep.n_classes)
    )
    tuned = ev2.rows[1]
    return {
        "seed": seed,
        "gca": tuned.gca,
        "nda": tuned.nda,
        "auc_t2": ev2.auc,
        "auc_base": evb.auc,
        "elapsed": elapsed,
        "gan_wins": gan_wins,
        "n_classes": prep.n_classes,
        "spreads_ok": spreads_ok,
    }


@pytest.fixture(scope="module")
def synthetic_runs():
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(_run_seed, SEEDS))


def test_criterion_6_synthetic_end_to_end(synthetic_runs):
    passing = [
        r for r in synthetic_runs
        if r["gca"] >= 0.85 and r["nda"] >= 0.70
        and r["auc_t2"] - r["auc_base"] >= 0.10
    ]
    runtime_ok = all(r["elapsed"] <= 600.0 for r in synthetic_runs)
    detail = "; ".join(
        f"seed {r['seed']}: GCA {r['gca']:.3f} NDA {r['nda']:.3f} "
        f"AUC {r['auc_t2']:.3f} vs {r['auc_base']:.3f} ({r['elapsed']:.0f}s)"
        for r in synthetic_runs
    )
    report(6, len(passing) >= 3 and runtime_ok,
           f"{len(passing)}/4 seeds pass (need 3) - {detail}")


def test_criterion_7_generator_beats_random(synthetic_runs):
    good = [r for r in synthetic_runs if r["gan_wins"] >= 5]
    detail = ", ".join(f"seed {r['seed']}: {r['gan_wins']}/{r['n_classes']}"
                       for r in synthetic_runs)
    report(7, len(good) >= 3,
           f"GAN mean distance beats random on >=5/7 classes for {len(good)}/4 seeds "
           f"({detail})")


def test_criterion_8_mode_collapse_guard(synthetic_runs):
    good = sum(r["spreads_ok"] for r in synthetic_runs)
    report(8, good == len(synthetic_runs),
           f"generation spread > 5% of baseline mean for all classes on {good}/4 seeds")


# ----------------------------------------------------------------- 9

TABLE2_BASELINE_MEANS = [1.43, 3.20, 2.28, 4.03, 2.32, 1.95, 2.44]


def test_criterion_9_real_data_check():
    path = os.environ.get("STGAN_ND_DUALMYO_CSV")
    if not path:
        pytest.skip("criterion 9 skipped: STGAN_ND_DUALMYO_CSV not set")
    ds = load_dataset(path)
    prep = prepare_data(ds, [7], seed=1)
    distances = distance_tables(prep, None, seed=1)
    diffs = [
        abs(distances.per_class[cls].baseline[0] - TABLE2_BASELINE_MEANS[cls])
        for cls in range(7)
    ]
    base = train_variant(prep, "baseline_a", GanConfig(), BaselineConfig(), seed=1)
    ev = evaluate_model(base.network, prep, [])
    zero = ev.rows[0]
    ok = (
        max(diffs) <= 0.05
        and abs(zero.gca - 1.0) <= 0.02
        and abs(zero.mean_weighted - 0.585) <= 0.02
    )
    report(9, ok,
           f"baseline distances max diff {max(diffs):.3f}; tau=0 GCA {zero.gca:.3f}, "
           f"weighted mean {zero.mean_weighted:.3f}")


# ----------------------------------------------------------------- 10

def test_criterion_10_manifest_replay_determinism(tmp_path):
    from stgan_nd import cli

    first = tmp_path / "first"
    args = ["train", "--synth-spec", "5,30,6", "--synth-seed", "2",
            "--novel-classes", "4", "--variant", "test_2", "--epochs", "4",
            "--batch-size", "8", "--latent-size", "3", "--seed", "11",
            "--out", str(first)]
    assert cli.main(args) == 0
    replay = tmp_path / "replay"
    assert cli.main(["train", "--manifest", str(first / "manifest.json"),
                     "--out", str(replay)]) == 0
    identical = (first / "losses.csv").read_bytes() == (replay / "losses.csv").read_bytes()
    report(10, identical, "losses.csv reproduced bit-identically from the manifest")
