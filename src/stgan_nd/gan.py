"""Generator/discriminator construction and the two-stage adversarial loop.

Training interleaves one discriminator step (half real, half generated
samples) with one generator step (generated samples only, discriminator
frozen) per training batch. Targets on both sides are stochastic vectors
whose peak value is drawn fresh from a uniform range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blas import single_thread as _single_thread_blas
from .data import one_hot_batch, stochastic_target_batch
from .errors import (
    Leaf, NumericError, ShapeError, SpecError, check, check_config, integer, number, setting,
)
from .nn import (
    AdamState,
    INFER,
    TRAIN,
    NetworkSpec,
    Network,
    adam_step,
    batch_norm,
    binary_cross_entropy,
    categorical_cross_entropy,
    clone_network,
    composite_loss,
    dense,
    dropout,
    gaussian_noise,
    init_network,
    relu,
    save_checkpoint,
)
from .rng import substream

GENERATOR_HIDDEN = 256
DISCRIMINATOR_HIDDEN = 300
GENERATOR_NOISE_STDDEV = 0.1
DISCRIMINATOR_NOISE_STDDEV = 0.4
DISCRIMINATOR_DROPOUT = 0.3
# the experiment variants, trained by ``experiments.train_variant``, and
# the config blocks each one reads: ``gan`` (a GanConfig), ``baseline``
# (a BaselineConfig) or both
VARIANTS = {"baseline_a": ("baseline",), "test_1a": ("baseline",),
            "test_2": ("gan",), "test_3": ("gan", "baseline")}
# the rows of one training step, the same for every variant of a run; a GAN
# step takes half of them real and generates the other half
BATCH_SIZE = 32
EVEN_BATCH = Leaf("an even integer >= 2", lambda v: type(v) is int and v >= 2 and v % 2 == 0)


# The paper's fixed hyperparameters: no preset or flag changes them.
LR_G = 0.001                      # generator learning rate
GAN_BETAS = (0.5, 0.999)          # Adam beta1 and beta2 of both adversarial nets
DECAY_D, DECAY_G = 1e-7, 1e-6     # Adam learning-rate decay of D and G
D_LOSS_WEIGHTS = (1.0, 1.0)       # discriminator validity and class loss weights
GAN_PEAKS = (0.9, 1.0)            # range of the stochastic target peaks of the GAN variants
CHECKPOINT_EVERY = 50             # epochs between periodic checkpoints
BASELINE_LR = 0.01                # supervised learning rate
BASELINE_BETAS = (0.9, 0.999)     # supervised Adam beta1 and beta2
PATIENCE = 12                     # epochs without a better validation loss before stopping
TEST_1A_PEAKS = (0.8, 1.0)        # range of test_1a's stochastic target peaks


@dataclass
class GanConfig:
    """The settings of one adversarial training run that a preset or flag sets;
    the run's seed and batch size are arguments of ``train_gan``.

    Defaults follow the 8-class EMG-feature setup; ``uc2017`` gives the
    glove-dataset variant (more epochs, larger latent space).
    """

    epochs: int = setting(300, rule=integer(">= 1"))
    latent_size: int = setting(8, rule=integer(">= 1"))
    lr_d: float = setting(0.0002, rule=number("> 0"))
    g_validity_weight: float = setting(1.3, rule=number(">= 0"))
    g_class_weight: float = setting(0.8, rule=number(">= 0"))

    def __post_init__(self):
        check_config(self)

    @classmethod
    def uc2017(cls, **overrides) -> "GanConfig":
        return cls(**{"epochs": 600, "latent_size": 23, "lr_d": 0.001, "g_validity_weight": 1.1,
                      "g_class_weight": 1.0, **overrides})


@dataclass
class BaselineConfig:
    """Plain supervised training of the discriminator-shaped network: its
    epoch limit, as ``--epochs`` sets it; the seed and batch size are
    arguments of ``train_baseline``."""

    max_epochs: int = setting(300, rule=integer(">= 1"))

    def __post_init__(self):
        check_config(self)


class EpochLosses(NamedTuple):
    """Mean losses of one adversarial epoch."""

    epoch: int
    d_loss: float
    g_validity: float
    g_class: float


class SupervisedEpoch(NamedTuple):
    """Mean training loss and validation loss of one supervised epoch."""

    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class GanBundle:
    generator: Network
    discriminator: Network
    adam_g: AdamState
    adam_d: AdamState
    loss_history: list[EpochLosses] = field(default_factory=list)


def build_generator(n_features: int, n_classes: int, latent_size: int, seed: int) -> Network:
    """Noise + target-vector input, two 256-node hidden blocks, linear output."""
    spec = NetworkSpec(
        input_widths=(latent_size, n_classes),
        layers=(
            dense(GENERATOR_HIDDEN), gaussian_noise(GENERATOR_NOISE_STDDEV), relu(), batch_norm(),
            dense(GENERATOR_HIDDEN), gaussian_noise(GENERATOR_NOISE_STDDEV), relu(), batch_norm(),
        ),
        output_heads=((n_features, "linear"),),
    )
    return init_network(spec, seed)


def build_discriminator(n_features: int, n_classes: int, seed: int) -> Network:
    """Feature input, two 300-node hidden layers, validity + class heads."""
    spec = NetworkSpec(
        input_widths=(n_features,),
        layers=(
            gaussian_noise(DISCRIMINATOR_NOISE_STDDEV),
            dense(DISCRIMINATOR_HIDDEN), relu(),
            dense(DISCRIMINATOR_HIDDEN), relu(),
            dropout(DISCRIMINATOR_DROPOUT),
        ),
        output_heads=((1, "sigmoid"), (n_classes, "softmax")),
    )
    return init_network(spec, seed)


def sample_noise(n: int, latent_size: int, rng: np.random.Generator) -> np.ndarray:
    """(n, latent_size) matrix of i.i.d. standard normal draws."""
    return rng.standard_normal((int(n), int(latent_size)))


def sample_class_indices(n: int, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    """n class indices from a discrete uniform distribution."""
    return rng.integers(0, int(n_classes), size=int(n))


def _discriminator_n_classes(disc: Network) -> int:
    return disc.spec.output_heads[1][0]


def _sample_generator_batch(generator, n, n_classes, noise_rng, layer_rng):
    """Draw (z, stochastic targets), run the generator in train mode:
    the generated rows, their targets and the forward cache."""
    z = sample_noise(n, generator.spec.input_widths[0], noise_rng)
    classes = sample_class_indices(n, n_classes, noise_rng)
    p = noise_rng.uniform(*GAN_PEAKS, n)
    targets = stochastic_target_batch(classes, n_classes, p)
    (fake,), cache = generator.forward([z, targets], TRAIN, rng=layer_rng)
    return fake, targets, cache


def train_discriminator_step(bundle: GanBundle, real_batch, batch_size: int,
                             noise_rng, layer_rng) -> dict:
    """One discriminator update on half real, half generated samples.

    ``real_batch`` is a (features, labels) pair of at least batch_size/2
    rows. Generated samples keep the stochastic target vectors they were
    produced from; the generator's parameters are untouched.
    """
    real_x, real_labels = real_batch
    real_x = np.asarray(real_x, dtype=float)
    real_labels = np.asarray(real_labels, dtype=int)
    half = batch_size // 2
    if real_x.shape[0] < half:
        raise ShapeError(f"need at least {half} real rows, got {real_x.shape[0]}")
    n = real_x.shape[0]
    disc = bundle.discriminator
    n_classes = _discriminator_n_classes(disc)

    fake_x, fake_targets, _ = _sample_generator_batch(
        bundle.generator, n, n_classes, noise_rng, layer_rng
    )
    p = noise_rng.uniform(*GAN_PEAKS, n)
    real_targets = stochastic_target_batch(real_labels, n_classes, p)

    x = np.concatenate([real_x, fake_x])
    validity_target = np.concatenate([np.ones((n, 1)), np.zeros((n, 1))])
    class_target = np.concatenate([real_targets, fake_targets])

    (validity, class_probs), cache = disc.forward([x], TRAIN, rng=layer_rng)
    validity_loss = binary_cross_entropy(validity, validity_target)
    class_loss = categorical_cross_entropy(class_probs, class_target)
    total = composite_loss(validity_loss, class_loss, *D_LOSS_WEIGHTS)
    grads = disc.backward(cache, total.gradient)
    adam_step(bundle.adam_d, disc.flat_parameters(), grads.flat())
    return {
        "d_loss": total.scalar,
        "d_validity": validity_loss.scalar,
        "d_class": class_loss.scalar,
    }


def train_generator_step(bundle: GanBundle, config: GanConfig, batch_size: int,
                         noise_rng, layer_rng) -> dict:
    """One generator update against the frozen discriminator.

    The discriminator runs in train mode (noise and dropout active) but
    neither its parameters nor its running statistics change.
    """
    disc = bundle.discriminator
    n_classes = _discriminator_n_classes(disc)
    n = batch_size

    fake_x, targets, gen_cache = _sample_generator_batch(
        bundle.generator, n, n_classes, noise_rng, layer_rng
    )
    (validity, class_probs), disc_cache = disc.forward(
        [fake_x], TRAIN, rng=layer_rng, update_stats=False
    )
    validity_loss = binary_cross_entropy(validity, np.ones((n, 1)))
    class_loss = categorical_cross_entropy(class_probs, targets)
    total = composite_loss(
        validity_loss, class_loss, config.g_validity_weight, config.g_class_weight
    )
    disc_grads = disc.backward(disc_cache, total.gradient, input_only=True)
    gen_grads = bundle.generator.backward(gen_cache, [disc_grads.inputs[0]])
    adam_step(bundle.adam_g, bundle.generator.flat_parameters(), gen_grads.flat())
    return {
        "g_loss": total.scalar,
        "g_validity": validity_loss.scalar,
        "g_class": class_loss.scalar,
    }


def train_gan(x_train, y_train, n_classes: int, config: GanConfig, *, seed: int,
              batch_size: int = BATCH_SIZE, checkpoint_dir=None) -> GanBundle:
    """Run the full interleaved D/G training and return the trained bundle.

    Each epoch shuffles the training rows and consumes them in half-batches;
    every half-batch feeds one discriminator step followed by one generator
    step. Aborts with NumericError if any loss goes non-finite.
    """
    check(batch_size, EVEN_BATCH, "batch_size", SpecError)
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=int)
    if GAN_PEAKS[0] <= 1.0 / n_classes:
        raise SpecError(f"the lowest target peak {GAN_PEAKS[0]} must exceed 1/{n_classes}")
    n_features = x_train.shape[1]
    init_rng = substream(seed, "init")
    g_seed = int(init_rng.integers(2 ** 63))
    d_seed = int(init_rng.integers(2 ** 63))
    generator = build_generator(n_features, n_classes, config.latent_size, g_seed)
    discriminator = build_discriminator(n_features, n_classes, d_seed)
    bundle = GanBundle(
        generator=generator,
        discriminator=discriminator,
        adam_g=AdamState.for_params(generator.flat_parameters(), LR_G, *GAN_BETAS,
                                    decay=DECAY_G),
        adam_d=AdamState.for_params(discriminator.flat_parameters(), config.lr_d, *GAN_BETAS,
                                    decay=DECAY_D),
    )

    noise_rng = substream(seed, "noise")
    layer_rng = substream(seed, "dropout")
    shuffle_rng = substream(seed, "shuffle")
    half = batch_size // 2
    steps = x_train.shape[0] // half
    if steps == 0:
        raise SpecError(f"training set smaller than half a batch ({half} rows)")

    if checkpoint_dir is not None:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    with _single_thread_blas():
        for epoch in range(1, config.epochs + 1):
            order = shuffle_rng.permutation(x_train.shape[0])
            d_losses = np.empty(steps)
            g_validity = np.empty(steps)
            g_class = np.empty(steps)
            for step in range(steps):
                idx = order[step * half:(step + 1) * half]
                d_record = train_discriminator_step(
                    bundle, (x_train[idx], y_train[idx]), batch_size, noise_rng, layer_rng
                )
                g_record = train_generator_step(bundle, config, batch_size, noise_rng,
                                                layer_rng)
                d_losses[step] = d_record["d_loss"]
                g_validity[step] = g_record["g_validity"]
                g_class[step] = g_record["g_class"]
            record = EpochLosses(
                epoch, float(d_losses.mean()), float(g_validity.mean()), float(g_class.mean())
            )
            if not np.isfinite([record.d_loss, record.g_validity, record.g_class]).all():
                raise NumericError(f"training diverged at epoch {epoch}: {record}")
            bundle.loss_history.append(record)
            if checkpoint_dir is not None and epoch % CHECKPOINT_EVERY == 0:
                for name, net, adam in (("generator", generator, bundle.adam_g),
                                        ("discriminator", discriminator, bundle.adam_d)):
                    path = checkpoint_dir / f"{name}_e{epoch:04d}.json"
                    save_checkpoint(path, net, adam, rng_seed=seed)
    return bundle


def generate_samples(generator: Network, target, n: int, rng: np.random.Generator) -> np.ndarray:
    """Generate n feature rows, in inference mode, for a class index, a
    target vector or an (n, n_classes) matrix of per-row targets.

    Passing a full target vector permits mixtures that no trained class
    produces (the "invented class" use case). Rows come out in the
    standardized feature space.
    """
    latent_size, n_classes = generator.spec.input_widths
    n = int(n)
    if n < 0:
        raise SpecError(f"cannot generate a negative number of rows ({n})")
    if n == 0:
        return np.empty((0, generator.spec.output_heads[0][0]))
    if np.isscalar(target) or isinstance(target, (int, np.integer)):
        targets = one_hot_batch([int(target)], n_classes)[0]
    else:
        targets = np.asarray(target, dtype=float)
    if targets.shape == (n_classes,):
        targets = np.repeat(targets[None, :], n, axis=0)
    elif targets.shape != (n, n_classes):
        raise ShapeError(f"targets must have shape ({n_classes},) or ({n}, {n_classes})")
    if not np.isfinite(targets).all():
        raise SpecError("targets must be finite")
    z = sample_noise(n, latent_size, rng)
    (out,), _ = generator.forward([z, targets], INFER)
    return out


def augment_offline(train, generator: Network, fraction: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Append round(fraction * n) generated rows to a (features, labels) pair.

    Generated rows follow the real ones and get uniformly sampled classes
    and stochastic input targets whose peaks lie in ``GAN_PEAKS``. Returns the
    augmented (features, labels) pair as new arrays.
    """
    features = np.asarray(train[0], dtype=float)
    labels = np.asarray(train[1], dtype=int)
    if fraction < 0:
        raise SpecError("fraction must be non-negative")
    n_new = int(round(fraction * len(labels)))
    if n_new == 0:
        return features.copy(), labels.copy()
    n_classes = generator.spec.input_widths[1]
    classes = sample_class_indices(n_new, n_classes, rng)
    p = rng.uniform(*GAN_PEAKS, n_new)
    targets = stochastic_target_batch(classes, n_classes, p)
    fake = generate_samples(generator, targets, n_new, rng)
    return np.concatenate([features, fake]), np.concatenate([labels, classes])


def train_baseline(x_train, y_train, x_val, y_val, n_classes: int, config: BaselineConfig, *,
                   seed: int, batch_size: int = BATCH_SIZE,
                   peaks: tuple[float, float] | None = None, initial: Network | None = None
                   ) -> tuple[Network, list[SupervisedEpoch]]:
    """Supervised training of the discriminator-shaped network.

    Only the class head carries loss (validity weight zero). Training
    targets are one-hot, or given ``peaks``, a (low, high) range, stochastic
    vectors whose peaks are drawn from it. Stops when the validation
    loss has not improved for ``PATIENCE`` consecutive epochs and returns
    a copy of the network at its best validation epoch. ``initial``
    continues from an existing network (offline-augmentation retraining),
    which it trains in place, instead of a fresh init.
    """
    check(batch_size, integer(">= 1"), "batch_size", SpecError)
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=int)
    x_val = np.asarray(x_val, dtype=float)
    y_val = np.asarray(y_val, dtype=int)
    if x_val.shape[0] == 0:
        raise SpecError("validation split is empty")
    if peaks is not None and peaks[0] <= 1.0 / n_classes:
        raise SpecError(f"the lowest target peak {peaks[0]} must exceed 1/{n_classes}")

    if initial is None:
        init_rng = substream(seed, "init")
        int(init_rng.integers(2 ** 63))  # generator seed slot, kept for alignment
        d_seed = int(init_rng.integers(2 ** 63))
        net = build_discriminator(x_train.shape[1], n_classes, d_seed)
    else:
        net = initial
    optimizer = AdamState.for_params(net.flat_parameters(), BASELINE_LR, *BASELINE_BETAS)

    noise_rng = substream(seed, "noise")
    layer_rng = substream(seed, "dropout")
    shuffle_rng = substream(seed, "shuffle")

    # targets are fixed before training; stochastic peaks are drawn once
    if peaks is not None:
        p = noise_rng.uniform(*peaks, y_train.size)
        train_targets = stochastic_target_batch(y_train, n_classes, p)
    else:
        train_targets = one_hot_batch(y_train, n_classes)
    val_targets = one_hot_batch(y_val, n_classes)

    n = x_train.shape[0]
    best_val = np.inf  # so epoch 1 sets ``best``, or raises on a non-finite loss
    wait = 0
    history = []
    with _single_thread_blas():
        for epoch in range(1, config.max_epochs + 1):
            order = shuffle_rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                (_, class_probs), cache = net.forward([x_train[idx]], TRAIN, rng=layer_rng)
                loss = categorical_cross_entropy(class_probs, train_targets[idx])
                zero_validity = np.zeros((idx.size, 1))
                grads = net.backward(cache, [zero_validity, loss.gradient])
                adam_step(optimizer, net.flat_parameters(), grads.flat())
                epoch_loss += loss.scalar * idx.size
            (_, val_probs), _ = net.forward([x_val], INFER)
            val_loss = categorical_cross_entropy(val_probs, val_targets).scalar
            history.append(SupervisedEpoch(epoch, epoch_loss / n, val_loss))
            if not np.isfinite(val_loss):
                raise NumericError(f"validation loss diverged at epoch {epoch}")
            if val_loss < best_val:
                best_val = val_loss
                best = clone_network(net)
                wait = 0
            else:
                wait += 1
                if wait >= PATIENCE:
                    break
    return best, history
