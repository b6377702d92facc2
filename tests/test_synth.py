import numpy as np
import pytest

from stgan_nd.errors import SpecError
from stgan_nd.experiments import evaluate_model, prepare_data, train_variant
from stgan_nd.gan import BaselineConfig, GanConfig
from stgan_nd.synth import (
    SynthSpec,
    class_feature_stats,
    gaussian_baseline_sampler,
    make_synthetic_dataset,
)


def test_default_shape_mirrors_dualmyo():
    ds = make_synthetic_dataset(SynthSpec(seed=5))
    assert ds.n_samples == 880
    assert ds.n_features == 16
    values, counts = np.unique(ds.labels, return_counts=True)
    np.testing.assert_array_equal(counts, np.full(8, 110))


def test_same_seed_is_identical_different_seed_is_not():
    a = make_synthetic_dataset(SynthSpec(seed=4))
    b = make_synthetic_dataset(SynthSpec(seed=4))
    c = make_synthetic_dataset(SynthSpec(seed=6))
    np.testing.assert_array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_features_are_finite_and_non_negative():
    ds = make_synthetic_dataset(SynthSpec(seed=2))
    assert np.all(np.isfinite(ds.features))
    assert ds.features.min() >= 0.0


def test_spec_validation():
    with pytest.raises(SpecError):
        SynthSpec(n_classes=1)
    with pytest.raises(SpecError):
        SynthSpec(within_class_std=0.0)
    with pytest.raises(SpecError):
        SynthSpec(overlap=1.5)
    with pytest.raises(SpecError):
        SynthSpec(samples_per_class=0)


def test_well_separated_clusters_are_easy_to_classify():
    # wide cluster spacing, no overlap: a quick supervised run should nail
    # the trained classes
    spec = SynthSpec(
        n_classes=8, samples_per_class=60, n_features=16,
        cluster_mean_scale=8.0, within_class_std=0.3, overlap=0.0, seed=11,
    )
    ds = make_synthetic_dataset(spec)
    prep = prepare_data(ds, [7], seed=3)
    model = train_variant(
        prep, "baseline_a", GanConfig(seed=3), BaselineConfig(seed=3, max_epochs=60)
    )
    evaluation = evaluate_model(model.network, prep, [])
    assert evaluation.rows[0].gca > 0.99


def test_class_feature_stats():
    features = np.array([[0.0, 1.0], [2.0, 3.0], [10.0, 10.0]])
    labels = np.array([0, 0, 1])
    stats = class_feature_stats(features, labels)
    np.testing.assert_allclose(stats[0][0], [1.0, 2.0])
    np.testing.assert_allclose(stats[0][1], [1.0, 1.0])
    np.testing.assert_allclose(stats[1][1], [0.0, 0.0])


def test_gaussian_sampler_zero_std_returns_mean():
    rng = np.random.default_rng(0)
    mean = np.array([1.0, -2.0, 3.0])
    samples = gaussian_baseline_sampler(mean, np.zeros(3), 10, rng)
    np.testing.assert_array_equal(samples, np.tile(mean, (10, 1)))


def test_gaussian_sampler_monte_carlo_moments():
    rng = np.random.default_rng(1)
    mean = np.array([5.0, -3.0])
    std = np.array([0.5, 2.0])
    samples = gaussian_baseline_sampler(mean, std, 10 ** 5, rng)
    assert np.abs(samples.mean(axis=0) - mean).max() < np.abs(mean).max() * 0.01
    np.testing.assert_allclose(samples.std(axis=0), std, rtol=0.02)


def test_gaussian_sampler_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(SpecError):
        gaussian_baseline_sampler(np.zeros(3), np.zeros(2), 5, rng)
    with pytest.raises(SpecError):
        gaussian_baseline_sampler(np.zeros(2), np.array([-1.0, 0.0]), 5, rng)
