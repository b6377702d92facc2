"""Generator/discriminator construction and the two-stage adversarial loop.

Training interleaves one discriminator step (half real, half generated
samples) with one generator step (generated samples only, discriminator
frozen) per training batch. Targets on both sides are stochastic vectors
whose peak value is drawn fresh from a uniform range.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blas import single_thread as _single_thread_blas
from .data import one_hot_batch, stochastic_target_batch
from .errors import NumericError, ShapeError, SpecError
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
    clone_parameters,
    composite_loss,
    dense,
    dropout,
    gaussian_noise,
    init_network,
    relu,
    restore_parameters,
    save_checkpoint,
)
from .rng import substream

GENERATOR_HIDDEN = 256
DISCRIMINATOR_HIDDEN = 300
GENERATOR_NOISE_STDDEV = 0.1
DISCRIMINATOR_NOISE_STDDEV = 0.4
DISCRIMINATOR_DROPOUT = 0.3


@dataclass
class GanConfig:
    """Hyperparameters of one adversarial training run.

    Defaults follow the 8-class EMG-feature setup; ``uc2017`` gives the
    glove-dataset variant (more epochs, larger latent space).
    """

    epochs: int = 300
    batch_size: int = 32
    latent_size: int = 8
    lr_d: float = 0.0002
    lr_g: float = 0.001
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    decay_d: float = 1e-7
    decay_g: float = 1e-6
    g_validity_weight: float = 1.3
    g_class_weight: float = 0.8
    d_validity_weight: float = 1.0
    d_class_weight: float = 1.0
    stochastic_p_low: float = 0.9
    stochastic_p_high: float = 1.0
    real_targets_stochastic: bool = True
    checkpoint_every: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2 or self.batch_size % 2:
            raise SpecError("batch_size must be even (half real, half generated)")
        if min(self.epochs, self.latent_size) < 1:
            raise SpecError("epochs and latent_size must be positive")
        if min(self.lr_d, self.lr_g) <= 0:
            raise SpecError("learning rates must be positive")
        if min(self.decay_d, self.decay_g) < 0:
            raise SpecError("decay must be non-negative")
        if not 0.0 < self.stochastic_p_low <= self.stochastic_p_high <= 1.0:
            raise SpecError("need 0 < p_low <= p_high <= 1")
        if self.checkpoint_every < 1:
            raise SpecError("checkpoint_every must be positive")
        if self.seed < 0:
            raise SpecError("seed must be non-negative")

    @classmethod
    def dualmyo(cls, **overrides) -> "GanConfig":
        return cls(**overrides)

    @classmethod
    def uc2017(cls, **overrides) -> "GanConfig":
        values = dict(
            epochs=600,
            latent_size=23,
            lr_d=0.001,
            g_validity_weight=1.1,
            g_class_weight=1.0,
        )
        values.update(overrides)
        return cls(**values)


@dataclass
class BaselineConfig:
    """Plain supervised training of the discriminator-shaped network."""

    learning_rate: float = 0.01
    max_epochs: int = 300
    batch_size: int = 32
    patience: int = 12
    stochastic: bool = False
    p_low: float = 0.8
    p_high: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise SpecError("learning rate must be positive")
        if min(self.max_epochs, self.batch_size, self.patience) < 1:
            raise SpecError("epochs, batch size and patience must be positive")
        if not 0.0 < self.p_low <= self.p_high <= 1.0:
            raise SpecError("need 0 < p_low <= p_high <= 1")


@dataclass
class EpochLosses:
    epoch: int
    d_loss: float
    g_validity: float
    g_class: float


@dataclass
class GanBundle:
    generator: Network
    discriminator: Network
    adam_g: AdamState
    adam_d: AdamState
    loss_history: list[EpochLosses] = field(default_factory=list)
    checkpoints: list[Path] = field(default_factory=list)  # periodic files written


@dataclass
class TrainView:
    """Feature rows with labels; source flag is 1 for real, 0 for generated."""

    features: np.ndarray
    labels: np.ndarray
    source: np.ndarray

    @classmethod
    def real(cls, features, labels) -> "TrainView":
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        return cls(features, labels, np.ones(len(labels), dtype=int))


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


def _sample_generator_batch(generator, n, n_classes, config, noise_rng, layer_rng,
                            update_stats):
    """Draw (z, stochastic targets), run the generator in train mode."""
    z = sample_noise(n, generator.spec.input_widths[0], noise_rng)
    classes = sample_class_indices(n, n_classes, noise_rng)
    p = noise_rng.uniform(config.stochastic_p_low, config.stochastic_p_high, n)
    targets = stochastic_target_batch(classes, n_classes, p)
    (fake,), cache = generator.forward(
        [z, targets], TRAIN, rng=layer_rng, update_stats=update_stats
    )
    return fake, targets, classes, cache


def train_discriminator_step(bundle: GanBundle, real_batch, config: GanConfig,
                             noise_rng, layer_rng) -> dict:
    """One discriminator update on half real, half generated samples.

    ``real_batch`` is a (features, labels) pair of at least batch_size/2
    rows. Generated samples keep the stochastic target vectors they were
    produced from; the generator's parameters are untouched.
    """
    real_x, real_labels = real_batch
    real_x = np.asarray(real_x, dtype=float)
    real_labels = np.asarray(real_labels, dtype=int)
    half = config.batch_size // 2
    if real_x.shape[0] < half:
        raise ShapeError(f"need at least {half} real rows, got {real_x.shape[0]}")
    n = real_x.shape[0]
    disc = bundle.discriminator
    n_classes = _discriminator_n_classes(disc)

    fake_x, fake_targets, _, _ = _sample_generator_batch(
        bundle.generator, n, n_classes, config, noise_rng, layer_rng, update_stats=True
    )
    if config.real_targets_stochastic:
        p = noise_rng.uniform(config.stochastic_p_low, config.stochastic_p_high, n)
        real_targets = stochastic_target_batch(real_labels, n_classes, p)
    else:
        real_targets = one_hot_batch(real_labels, n_classes)

    x = np.concatenate([real_x, fake_x])
    validity_target = np.concatenate([np.ones((n, 1)), np.zeros((n, 1))])
    class_target = np.concatenate([real_targets, fake_targets])

    (validity, class_probs), cache = disc.forward([x], TRAIN, rng=layer_rng)
    validity_loss = binary_cross_entropy(validity, validity_target)
    class_loss = categorical_cross_entropy(class_probs, class_target)
    total = composite_loss(
        validity_loss, class_loss, config.d_validity_weight, config.d_class_weight
    )
    grads = disc.backward(cache, total.gradient)
    adam_step(bundle.adam_d, [disc.flat_parameters()], [grads.flat()])
    return {
        "d_loss": total.scalar,
        "d_validity": validity_loss.scalar,
        "d_class": class_loss.scalar,
    }


def train_generator_step(bundle: GanBundle, config: GanConfig,
                         noise_rng, layer_rng) -> dict:
    """One generator update against the frozen discriminator.

    The discriminator runs in train mode (noise and dropout active) but
    neither its parameters nor its running statistics change.
    """
    disc = bundle.discriminator
    n_classes = _discriminator_n_classes(disc)
    n = config.batch_size

    fake_x, targets, _, gen_cache = _sample_generator_batch(
        bundle.generator, n, n_classes, config, noise_rng, layer_rng, update_stats=True
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
    adam_step(bundle.adam_g, [bundle.generator.flat_parameters()], [gen_grads.flat()])
    return {
        "g_loss": total.scalar,
        "g_validity": validity_loss.scalar,
        "g_class": class_loss.scalar,
    }


def train_gan(x_train, y_train, n_classes: int, config: GanConfig,
              checkpoint_dir=None) -> GanBundle:
    """Run the full interleaved D/G training and return the trained bundle.

    Each epoch shuffles the training rows and consumes them in half-batches;
    every half-batch feeds one discriminator step followed by one generator
    step. Aborts with NumericError if any loss goes non-finite.
    """
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=int)
    if config.stochastic_p_low <= 1.0 / n_classes:
        raise SpecError(
            f"stochastic_p_low {config.stochastic_p_low} must exceed 1/{n_classes}"
        )
    n_features = x_train.shape[1]
    init_rng = substream(config.seed, "init")
    g_seed = int(init_rng.integers(2 ** 63))
    d_seed = int(init_rng.integers(2 ** 63))
    generator = build_generator(n_features, n_classes, config.latent_size, g_seed)
    discriminator = build_discriminator(n_features, n_classes, d_seed)
    bundle = GanBundle(
        generator=generator,
        discriminator=discriminator,
        adam_g=AdamState.for_params(
            [generator.flat_parameters()], config.lr_g,
            beta1=config.adam_beta1, beta2=config.adam_beta2, decay=config.decay_g,
        ),
        adam_d=AdamState.for_params(
            [discriminator.flat_parameters()], config.lr_d,
            beta1=config.adam_beta1, beta2=config.adam_beta2, decay=config.decay_d,
        ),
    )

    noise_rng = substream(config.seed, "noise")
    layer_rng = substream(config.seed, "dropout")
    shuffle_rng = substream(config.seed, "shuffle")
    half = config.batch_size // 2
    steps = x_train.shape[0] // half
    if steps == 0:
        raise SpecError(f"training set smaller than half a batch ({half} rows)")

    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
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
                    bundle, (x_train[idx], y_train[idx]), config, noise_rng, layer_rng
                )
                g_record = train_generator_step(bundle, config, noise_rng, layer_rng)
                d_losses[step] = d_record["d_loss"]
                g_validity[step] = g_record["g_validity"]
                g_class[step] = g_record["g_class"]
            record = EpochLosses(
                epoch, float(d_losses.mean()), float(g_validity.mean()), float(g_class.mean())
            )
            if not np.isfinite([record.d_loss, record.g_validity, record.g_class]).all():
                raise NumericError(f"training diverged at epoch {epoch}: {record}")
            bundle.loss_history.append(record)
            if checkpoint_dir is not None and epoch % config.checkpoint_every == 0:
                for name, net, adam in (("generator", generator, bundle.adam_g),
                                        ("discriminator", discriminator, bundle.adam_d)):
                    path = checkpoint_dir / f"{name}_e{epoch:04d}.json"
                    save_checkpoint(path, net, adam, rng_seed=config.seed)
                    bundle.checkpoints.append(path)
    return bundle


def generate_samples(generator: Network, target, n: int, rng: np.random.Generator,
                     mode: str = INFER) -> np.ndarray:
    """Generate n feature rows for a class index, a target vector or an
    (n, n_classes) matrix of per-row targets.

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
    z = sample_noise(n, latent_size, rng)
    layer_rng = rng if mode == TRAIN else None
    (out,), _ = generator.forward([z, targets], mode, rng=layer_rng, update_stats=False)
    return out


def augment_offline(view: TrainView, generator: Network, fraction: float,
                    config: GanConfig, rng: np.random.Generator) -> TrainView:
    """Append round(fraction * n) generated rows to a training view.

    Generated rows get uniformly sampled classes, stochastic input targets
    drawn from the config range, and source flag 0.
    """
    if fraction < 0:
        raise SpecError("fraction must be non-negative")
    n_new = int(round(fraction * len(view.labels)))
    if n_new == 0:
        return TrainView(view.features.copy(), view.labels.copy(), view.source.copy())
    latent_size, n_classes = generator.spec.input_widths
    classes = sample_class_indices(n_new, n_classes, rng)
    p = rng.uniform(config.stochastic_p_low, config.stochastic_p_high, n_new)
    targets = stochastic_target_batch(classes, n_classes, p)
    z = sample_noise(n_new, latent_size, rng)
    (fake,), _ = generator.forward([z, targets], INFER, update_stats=False)
    return TrainView(
        features=np.concatenate([view.features, fake]),
        labels=np.concatenate([view.labels, classes]),
        source=np.concatenate([view.source, np.zeros(n_new, dtype=int)]),
    )


def train_baseline(x_train, y_train, x_val, y_val, n_classes: int,
                   config: BaselineConfig, initial: Network | None = None) -> tuple[Network, list]:
    """Supervised training of the discriminator-shaped network.

    Only the class head carries loss (validity weight zero). Stops when the
    validation loss has not improved for ``patience`` consecutive epochs
    and restores the best-validation parameters. ``initial`` continues from
    an existing network (offline-augmentation retraining) instead of a
    fresh init.
    """
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=int)
    x_val = np.asarray(x_val, dtype=float)
    y_val = np.asarray(y_val, dtype=int)
    if x_val.shape[0] == 0:
        raise SpecError("validation split is empty")
    if config.stochastic and config.p_low <= 1.0 / n_classes:
        raise SpecError(f"p_low {config.p_low} must exceed 1/{n_classes}")

    if initial is None:
        init_rng = substream(config.seed, "init")
        int(init_rng.integers(2 ** 63))  # generator seed slot, kept for alignment
        d_seed = int(init_rng.integers(2 ** 63))
        net = build_discriminator(x_train.shape[1], n_classes, d_seed)
    else:
        net = initial
    optimizer = AdamState.for_params(
        [net.flat_parameters()], config.learning_rate,
        beta1=config.adam_beta1, beta2=config.adam_beta2,
    )

    noise_rng = substream(config.seed, "noise")
    layer_rng = substream(config.seed, "dropout")
    shuffle_rng = substream(config.seed, "shuffle")

    # targets are fixed before training; stochastic peaks are drawn once
    if config.stochastic:
        p = noise_rng.uniform(config.p_low, config.p_high, y_train.size)
        train_targets = stochastic_target_batch(y_train, n_classes, p)
    else:
        train_targets = one_hot_batch(y_train, n_classes)
    val_targets = one_hot_batch(y_val, n_classes)

    n = x_train.shape[0]
    best_val = np.inf
    best_params = clone_parameters(net)
    wait = 0
    history = []
    with _single_thread_blas():
        for epoch in range(1, config.max_epochs + 1):
            order = shuffle_rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                (_, class_probs), cache = net.forward([x_train[idx]], TRAIN, rng=layer_rng)
                loss = categorical_cross_entropy(class_probs, train_targets[idx])
                zero_validity = np.zeros((idx.size, 1))
                grads = net.backward(cache, [zero_validity, loss.gradient])
                adam_step(optimizer, [net.flat_parameters()], [grads.flat()])
                epoch_loss += loss.scalar * idx.size
            (_, val_probs), _ = net.forward([x_val], INFER)
            val_loss = categorical_cross_entropy(val_probs, val_targets).scalar
            history.append((epoch, epoch_loss / n, val_loss))
            if not np.isfinite(val_loss):
                raise NumericError(f"validation loss diverged at epoch {epoch}")
            if val_loss < best_val:
                best_val = val_loss
                best_params = clone_parameters(net)
                wait = 0
            else:
                wait += 1
                if wait >= config.patience:
                    break
    restore_parameters(net, best_params)
    return net, history


def write_loss_csv(history: list[EpochLosses], path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epoch", "d_loss", "g_validity", "g_class"])
        for record in history:
            writer.writerow(
                [record.epoch, repr(record.d_loss),
                 repr(record.g_validity), repr(record.g_class)]
            )
