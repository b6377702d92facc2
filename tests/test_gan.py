import math
import os

import numpy as np
import pytest

import stgan_nd.gan as gan_module
from stgan_nd.errors import NumericError, ShapeError, SpecError
from stgan_nd.evaluate import generation_spread
from stgan_nd.gan import (
    BaselineConfig,
    GanConfig,
    augment_offline,
    build_discriminator,
    build_generator,
    generate_samples,
    sample_class_indices,
    sample_noise,
    train_baseline,
    train_discriminator_step,
    train_gan,
    train_generator_step,
)
from stgan_nd.nn import INFER, TRAIN
from stgan_nd.synth import SynthSpec, make_synthetic_dataset
from stgan_nd.experiments import prepare_data


def small_training_data(n_classes=4, per_class=40, width=6, seed=0):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, width)) * 3.0
    x = np.concatenate([means[c] + rng.standard_normal((per_class, width))
                        for c in range(n_classes)])
    y = np.repeat(np.arange(n_classes), per_class)
    return x, y


def small_config(**overrides):
    values = dict(epochs=2, batch_size=8, latent_size=3, seed=1)
    values.update(overrides)
    return GanConfig(**values)


# ------------------------------------------------------------- builders

def test_generator_output_shape_and_inputs():
    gen = build_generator(n_features=16, n_classes=7, latent_size=8, seed=0)
    assert gen.spec.input_widths == (8, 7)
    z = np.random.default_rng(0).standard_normal((5, 8))
    t = np.full((5, 7), 1.0 / 7.0)
    (out,), _ = gen.forward([z, t], INFER)
    assert out.shape == (5, 16)


def test_generator_infer_is_deterministic():
    gen = build_generator(4, 3, 2, seed=1)
    z = np.random.default_rng(5).standard_normal((6, 2))
    t = np.tile([1.0, 0.0, 0.0], (6, 1))
    (a,), _ = gen.forward([z, t], INFER)
    (b,), _ = gen.forward([z, t], INFER)
    np.testing.assert_array_equal(a, b)


def test_discriminator_heads():
    disc = build_discriminator(n_features=16, n_classes=19, seed=2)
    x = np.random.default_rng(1).standard_normal((9, 16))
    (validity, classes), _ = disc.forward([x], INFER)
    assert validity.shape == (9, 1)
    assert classes.shape == (9, 19)
    assert np.all((validity > 0) & (validity < 1))
    np.testing.assert_allclose(classes.sum(axis=1), 1.0, atol=1e-9)


# ------------------------------------------------------------- sampling

def test_noise_moments():
    rng = np.random.default_rng(3)
    draws = sample_noise(10 ** 5, 1, rng)
    assert -0.02 <= draws.mean() <= 0.02
    assert 0.97 <= draws.var() <= 1.03


def test_noise_reproducible_and_shaped():
    a = sample_noise(16, 8, np.random.default_rng(11))
    b = sample_noise(16, 8, np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (16, 8)


def test_class_index_frequencies():
    rng = np.random.default_rng(4)
    draws = sample_class_indices(7 * 10 ** 4, 7, rng)
    assert draws.max() < 7 and draws.min() >= 0
    freq = np.bincount(draws, minlength=7) / draws.size
    assert np.all((freq >= 0.13) & (freq <= 0.155))
    np.testing.assert_array_equal(sample_class_indices(50, 1, rng), 0)


# ------------------------------------------------------------- stages

def _fresh_bundle(x, y, n_classes, config):
    # one-epoch run assembles the bundle with its optimizer states
    short = GanConfig(**{**vars(config), "epochs": 1})
    return train_gan(x, y, n_classes, short)


def test_discriminator_step_leaves_generator_untouched():
    x, y = small_training_data()
    config = small_config()
    bundle = _fresh_bundle(x, y, 4, config)
    g_before = bundle.generator.flat_parameters().copy()
    d_before = bundle.discriminator.flat_parameters().copy()
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    train_discriminator_step(bundle, (x[:4], y[:4]), config, rng_a, rng_b)
    np.testing.assert_array_equal(bundle.generator.flat_parameters(), g_before)
    assert not np.array_equal(bundle.discriminator.flat_parameters(), d_before)


def test_generator_step_leaves_discriminator_untouched():
    x, y = small_training_data()
    config = small_config()
    bundle = _fresh_bundle(x, y, 4, config)
    d_before = bundle.discriminator.flat_parameters().copy()
    g_before = bundle.generator.flat_parameters().copy()
    record = train_generator_step(bundle, config, np.random.default_rng(0),
                                  np.random.default_rng(1))
    np.testing.assert_array_equal(bundle.discriminator.flat_parameters(), d_before)
    assert not np.array_equal(bundle.generator.flat_parameters(), g_before)
    assert {"g_loss", "g_validity", "g_class"} <= record.keys()


def test_generator_step_keeps_generator_batchnorm_stats_updating():
    x, y = small_training_data()
    config = small_config()
    bundle = _fresh_bundle(x, y, 4, config)
    stats_before = [bn.running_mean.copy() for bn in bundle.generator.batch_norm_layers()]
    train_generator_step(bundle, config, np.random.default_rng(0), np.random.default_rng(1))
    changed = [
        not np.array_equal(bn.running_mean, before)
        for bn, before in zip(bundle.generator.batch_norm_layers(), stats_before)
    ]
    assert all(changed)


def test_untrained_discriminator_validity_loss_near_ln2():
    x, y = small_training_data(seed=3)
    config = small_config(batch_size=32)
    generator = build_generator(6, 4, 3, seed=0)
    discriminator = build_discriminator(6, 4, seed=1)
    from stgan_nd.nn import AdamState

    bundle = gan_module.GanBundle(
        generator=generator,
        discriminator=discriminator,
        adam_g=AdamState.for_params(generator.flat_parameters(), gan_module.LR_G),
        adam_d=AdamState.for_params(discriminator.flat_parameters(), config.lr_d),
    )
    record = train_discriminator_step(
        bundle, (x[:16], y[:16]), config, np.random.default_rng(0), np.random.default_rng(1)
    )
    assert abs(record["d_validity"] - math.log(2.0)) < 0.15


def test_discriminator_step_rejects_short_batches():
    x, y = small_training_data()
    config = small_config(batch_size=32)
    bundle = _fresh_bundle(x, y, 4, config)
    with pytest.raises(ShapeError):
        train_discriminator_step(bundle, (x[:8], y[:8]), config,
                                 np.random.default_rng(0), np.random.default_rng(1))


# ------------------------------------------------------------- full loop

def test_train_gan_history_and_determinism():
    x, y = small_training_data()
    config = small_config(epochs=3)
    a = train_gan(x, y, 4, config)
    b = train_gan(x, y, 4, config)
    assert len(a.loss_history) == 3
    assert [r.epoch for r in a.loss_history] == [1, 2, 3]
    for ra, rb in zip(a.loss_history, b.loss_history):
        assert (ra.d_loss, ra.g_validity, ra.g_class) == (rb.d_loss, rb.g_validity, rb.g_class)
    np.testing.assert_array_equal(a.generator.flat_parameters(),
                                  b.generator.flat_parameters())
    np.testing.assert_array_equal(a.discriminator.flat_parameters(),
                                  b.discriminator.flat_parameters())


def test_train_gan_rejects_low_p_range():
    # with one class a target peak of 0.9 is not above 1/n_classes
    x, y = small_training_data(n_classes=1)
    with pytest.raises(SpecError, match="must exceed 1/1"):
        train_gan(x, y, 1, small_config())


def test_train_gan_divergence_guard(monkeypatch):
    x, y = small_training_data()

    def poisoned(bundle, batch, config, noise_rng, layer_rng):
        return {"d_loss": float("nan"), "d_validity": 0.0, "d_class": 0.0}

    monkeypatch.setattr(gan_module, "train_discriminator_step", poisoned)
    with pytest.raises(NumericError, match="epoch 1"):
        train_gan(x, y, 4, small_config())


def test_checkpoints_written_at_cadence(tmp_path, monkeypatch):
    x, y = small_training_data()
    monkeypatch.setattr(gan_module, "CHECKPOINT_EVERY", 2)
    train_gan(x, y, 4, small_config(epochs=4), checkpoint_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "discriminator_e0002.json", "discriminator_e0004.json",
        "generator_e0002.json", "generator_e0004.json",
    ]


# ------------------------------------------------------------- generation

def test_generate_samples_shapes_and_determinism():
    gen = build_generator(6, 4, 3, seed=8)
    empty = generate_samples(gen, 0, 0, np.random.default_rng(0))
    assert empty.shape == (0, 6)
    a = generate_samples(gen, 2, 5, np.random.default_rng(3))
    b = generate_samples(gen, 2, 5, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (5, 6)


def test_generate_samples_accepts_untrained_mixture_vector():
    gen = build_generator(6, 4, 3, seed=8)
    uniform = np.full(4, 0.25)  # no trained argmax: the "invented class" case
    out = generate_samples(gen, uniform, 7, np.random.default_rng(1))
    assert out.shape == (7, 6)
    with pytest.raises(ShapeError):
        generate_samples(gen, np.full(5, 0.2), 3, np.random.default_rng(1))


def test_generate_samples_target_matrix_of_identical_rows_matches_the_vector():
    gen = build_generator(6, 4, 3, seed=8)
    vec = np.array([0.025, 0.925, 0.025, 0.025])
    a = generate_samples(gen, vec, 9, np.random.default_rng(2))
    b = generate_samples(gen, np.tile(vec, (9, 1)), 9, np.random.default_rng(2))
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ShapeError):
        generate_samples(gen, np.tile(vec, (8, 1)), 9, np.random.default_rng(2))
    with pytest.raises(SpecError):
        generate_samples(gen, vec, -5, np.random.default_rng(2))


def test_generated_samples_do_not_collapse():
    ds = make_synthetic_dataset(SynthSpec(n_classes=4, samples_per_class=40,
                                          n_features=6, seed=2))
    prep = prepare_data(ds, [3], seed=2)
    bundle = train_gan(prep.x_train, prep.y_train, prep.n_classes,
                       small_config(epochs=10, batch_size=16))
    for cls in range(3):
        samples = generate_samples(bundle.generator, cls, 100, np.random.default_rng(cls))
        assert generation_spread(samples) > 0.0


# ------------------------------------------------------------- augmentation

def test_augment_offline_counts_and_flags():
    x, y = small_training_data(n_classes=4, per_class=40)
    gen = build_generator(6, 4, 3, seed=0)
    rng = np.random.default_rng(9)
    features, labels = augment_offline((x, y), gen, 0.5, rng)
    assert len(labels) == 160 + 80
    assert features.shape == (240, 6)
    # the real rows come first and unchanged, the generated ones after them
    np.testing.assert_array_equal(features[:160], x)
    np.testing.assert_array_equal(labels[:160], y)
    assert labels[160:].min() >= 0 and labels[160:].max() < 4


def test_augment_offline_exact_paper_arithmetic():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((462, 6))
    y = rng.integers(0, 4, 462)
    gen = build_generator(6, 4, 3, seed=1)
    _, labels = augment_offline((x, y), gen, 0.5, np.random.default_rng(2))
    assert len(labels) == 693


def test_augment_offline_fraction_zero_is_identity():
    x, y = small_training_data()
    gen = build_generator(6, 4, 3, seed=0)
    features, labels = augment_offline((x, y), gen, 0.0, np.random.default_rng(1))
    np.testing.assert_array_equal(features, x)
    np.testing.assert_array_equal(labels, y)
    assert features is not x and labels is not y


# ------------------------------------------------------------- baseline

def _split_small_data():
    x, y = small_training_data(per_class=30, seed=5)
    train = np.concatenate([np.arange(c * 30, c * 30 + 20) for c in range(4)])
    val = np.concatenate([np.arange(c * 30 + 20, (c + 1) * 30) for c in range(4)])
    return x[train], y[train], x[val], y[val]


def test_baseline_early_stopping_and_restore():
    x_train, y_train, x_val, y_val = _split_small_data()
    config = BaselineConfig(seed=0, max_epochs=200)
    net, history = train_baseline(x_train, y_train, x_val, y_val, 4, config)
    val_losses = [h[2] for h in history]
    best_epoch = int(np.argmin(val_losses)) + 1
    assert len(history) <= best_epoch + 12
    # the best epoch's network is returned: recomputing the val loss
    # reproduces the minimum bit for bit
    from stgan_nd.nn import categorical_cross_entropy
    from stgan_nd.data import one_hot_batch

    (_, probs), _ = net.forward([x_val], INFER)
    loss = categorical_cross_entropy(probs, one_hot_batch(y_val, 4)).scalar
    assert loss == min(val_losses)


def test_baseline_snapshots_once_per_improving_epoch(monkeypatch):
    x_train, y_train, x_val, y_val = _split_small_data()
    snapshots = []
    real_clone = gan_module.clone_network

    def spy(net):
        snapshots.append(net)
        return real_clone(net)

    monkeypatch.setattr(gan_module, "clone_network", spy)
    config = BaselineConfig(seed=0, max_epochs=200)
    net, history = train_baseline(x_train, y_train, x_val, y_val, 4, config)
    val_losses = [h[2] for h in history]
    improving = [i for i, loss in enumerate(val_losses)
                 if loss < min(val_losses[:i], default=np.inf)]
    assert len(history) > len(improving) > 1
    assert len(snapshots) == len(improving)


def test_baseline_rejects_empty_validation():
    x, y = small_training_data()
    with pytest.raises(SpecError):
        train_baseline(x, y, np.empty((0, 6)), np.empty(0, dtype=int), 4,
                       BaselineConfig(seed=0))


def test_baseline_defaults_match_published_setup():
    config = BaselineConfig()
    assert (config.max_epochs, config.batch_size) == (300, 32)
    assert gan_module.BASELINE_LR == 0.01
    assert gan_module.BASELINE_BETAS == (0.9, 0.999)
    assert gan_module.PATIENCE == 12
    assert gan_module.TEST_1A_PEAKS == (0.8, 1.0)


def test_baseline_determinism():
    x_train, y_train, x_val, y_val = _split_small_data()
    config = BaselineConfig(seed=3, max_epochs=20)
    a, hist_a = train_baseline(x_train, y_train, x_val, y_val, 4, config)
    b, hist_b = train_baseline(x_train, y_train, x_val, y_val, 4, config)
    assert hist_a == hist_b
    np.testing.assert_array_equal(a.flat_parameters(), b.flat_parameters())


def test_gan_config_presets():
    dualmyo = GanConfig()
    assert (dualmyo.epochs, dualmyo.latent_size) == (300, 8)
    assert (dualmyo.lr_d, gan_module.LR_G) == (0.0002, 0.001)
    assert (dualmyo.g_validity_weight, dualmyo.g_class_weight) == (1.3, 0.8)
    uc = GanConfig.uc2017()
    assert (uc.epochs, uc.latent_size) == (600, 23)
    assert uc.lr_d == 0.001
    assert (uc.g_validity_weight, uc.g_class_weight) == (1.1, 1.0)
    # the fixed hyperparameters, the same for both presets
    assert gan_module.GAN_BETAS == (0.5, 0.999)
    assert (gan_module.DECAY_D, gan_module.DECAY_G) == (1e-7, 1e-6)
    assert gan_module.D_LOSS_WEIGHTS == (1.0, 1.0)
    assert gan_module.GAN_PEAKS == (0.9, 1.0)
    assert gan_module.CHECKPOINT_EVERY == 50
    with pytest.raises(SpecError):
        GanConfig(batch_size=7)


# ------------------------------------------------------------- BLAS pinning

def test_single_thread_blas_pins_one_thread_and_restores():
    from stgan_nd.blas import openblas

    lib = openblas()
    if lib is None:
        pytest.skip("numpy is not using an OpenBLAS here")
    original = lib.get_num_threads()
    try:
        lib.set_num_threads(2)
        prior = lib.get_num_threads()
        with gan_module._single_thread_blas():
            assert lib.get_num_threads() == 1
        assert lib.get_num_threads() == prior
    finally:
        lib.set_num_threads(original)


def test_train_gan_runs_on_one_blas_thread(monkeypatch):
    from stgan_nd import blas

    lib = blas.openblas()
    if lib is None:
        pytest.skip("numpy is not using an OpenBLAS here")
    seen = []
    real_step = gan_module.train_generator_step

    def spy(*args, **kwargs):
        seen.append(lib.get_num_threads())
        return real_step(*args, **kwargs)

    monkeypatch.setattr(gan_module, "train_generator_step", spy)
    before = lib.get_num_threads()
    x, y = small_training_data()
    train_gan(x, y, 4, small_config(epochs=1))
    assert seen and set(seen) == {1}
    assert blas.environment()["training_blas_threads"] == 1
    assert lib.get_num_threads() == before


def test_evaluate_model_scores_on_one_blas_thread(monkeypatch):
    from stgan_nd import blas
    from stgan_nd.experiments import evaluate_model
    from stgan_nd.nn import Network

    lib = blas.openblas()
    if lib is None:
        pytest.skip("numpy is not using an OpenBLAS here")
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS runs one thread on one CPU")
    ds = make_synthetic_dataset(SynthSpec(n_classes=4, samples_per_class=40,
                                          n_features=6, seed=2))
    prep = prepare_data(ds, [3], seed=2)
    net = build_discriminator(prep.n_features, prep.n_classes, seed=0)
    seen = []
    real_forward = Network.forward

    def spy(self, inputs, mode, **kwargs):
        if mode == INFER:
            seen.append(lib.get_num_threads())
        return real_forward(self, inputs, mode, **kwargs)

    monkeypatch.setattr(Network, "forward", spy)
    original = lib.get_num_threads()
    try:
        lib.set_num_threads(2)
        assert lib.get_num_threads() == 2
        evaluate_model(net, prep, [0.9])
        assert lib.get_num_threads() == 2
    finally:
        lib.set_num_threads(original)
    assert seen == [1]
