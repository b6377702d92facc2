"""End-to-end experiment plumbing: data preparation, the four experiment
variants, evaluation tables, and distance reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as D
from .blas import single_thread
from .data import Dataset, Standardizer
from .errors import SpecError
from .evaluate import (
    OTHERS,
    DistanceReport,
    EvalReport,
    classify_with_threshold,
    compute_gca_nda,
    distance_report,
    novelty_scores,
    roc_auc,
    tune_threshold,
)
from .gan import (
    BATCH_SIZE,
    GAN_PEAKS,
    TEST_1A_PEAKS,
    VARIANTS,
    BaselineConfig,
    GanBundle,
    GanConfig,
    augment_offline,
    generate_samples,
    train_baseline,
    train_gan,
)
from .nn import INFER, Network, clone_network
from .rng import substream
from .synth import class_feature_stats, gaussian_baseline_sampler


@dataclass
class PreparedData:
    """Standardized views of one dataset after hold-out and splitting."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    x_novel: np.ndarray
    standardizer: Standardizer
    class_map: dict[int, int]  # original label -> dense trained label
    raw_features: np.ndarray   # trained view, original feature units
    raw_labels: np.ndarray     # its dense labels
    n_features: int
    n_classes: int


def prepare_data(ds: Dataset, novel_classes, seed: int) -> PreparedData:
    """Hold out novel classes, split, standardize.

    The standardizer is fitted on the training rows of trained classes
    only; novel samples are all reserved for evaluation.
    """
    hold = D.hold_out_novel(ds, novel_classes)
    features, labels = hold.trained.features, hold.trained.labels
    tags = D.split_dataset(hold.trained, seed)
    standardizer = D.fit_standardizer(features[tags == D.TRAIN])

    def view(tag):
        return standardizer.transform(features[tags == tag]), labels[tags == tag]

    x_train, y_train = view(D.TRAIN)
    x_val, y_val = view(D.VAL)
    x_test, y_test = view(D.TEST)
    return PreparedData(
        x_train=x_train, y_train=y_train,
        x_val=x_val, y_val=y_val,
        x_test=x_test, y_test=y_test,
        x_novel=standardizer.transform(hold.novel.features),
        standardizer=standardizer,
        class_map=hold.class_map,
        raw_features=features,
        raw_labels=labels,
        n_features=features.shape[1],
        n_classes=int(labels.max()) + 1,
    )


@dataclass
class TrainedModel:
    network: Network            # the classifier under evaluation
    bundle: GanBundle | None    # present for the GAN variants
    history: list               # EpochLosses or SupervisedEpoch records


def train_variant(prep: PreparedData, variant: str, gan_config: GanConfig | None,
                  baseline_config: BaselineConfig | None, *, seed: int,
                  batch_size: int = BATCH_SIZE, checkpoint_dir=None,
                  bundle: GanBundle | None = None) -> TrainedModel:
    """Train one experiment variant on prepared data, with one ``seed`` and
    one ``batch_size`` for each of its trainings.

    baseline_a: one-hot supervised training. test_1a: supervised with
    stochastic targets. test_2: the discriminator straight out of
    adversarial training. test_3: that discriminator retrained on the
    offline-augmented training set (+50% generated rows). A variant reads
    only the configs ``VARIANTS`` names for it; the other may be None.

    ``bundle`` is a GAN already trained by ``train_gan`` on ``prep`` with
    ``gan_config``, ``seed`` and ``batch_size``; the GAN variants start from
    it instead of training their own (and write no periodic checkpoints).
    It is left unchanged.
    """
    if variant not in VARIANTS:
        raise SpecError(f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}")
    run = {"seed": seed, "batch_size": batch_size}

    if variant in ("baseline_a", "test_1a"):
        net, history = train_baseline(
            prep.x_train, prep.y_train, prep.x_val, prep.y_val, prep.n_classes,
            baseline_config, **run, peaks=TEST_1A_PEAKS if variant == "test_1a" else None,
        )
        return TrainedModel(net, None, history)

    if bundle is None:
        bundle = train_gan(prep.x_train, prep.y_train, prep.n_classes, gan_config, **run,
                           checkpoint_dir=checkpoint_dir)
    if variant == "test_2":
        return TrainedModel(bundle.discriminator, bundle, bundle.loss_history)

    # test_3: offline augmentation, then supervised retraining with
    # stochastic targets in the GAN's peak range
    augment_rng = substream(seed, "augment")
    x_train, y_train = augment_offline((prep.x_train, prep.y_train), bundle.generator, 0.5,
                                       augment_rng)
    net, history = train_baseline(
        x_train, y_train, prep.x_val, prep.y_val, prep.n_classes, baseline_config, **run,
        peaks=GAN_PEAKS, initial=clone_network(bundle.discriminator),
    )
    return TrainedModel(net, bundle, history)


@dataclass
class VariantEvaluation:
    rows: list[EvalReport]      # tau=0 first, then one row per target GCA
    targets: list[float]
    roc_points: list
    auc: float


def evaluate_model(net: Network, prep: PreparedData, target_gcas) -> VariantEvaluation:
    """Score a classifier on the trained-class test split plus all novel samples."""
    x_eval = np.concatenate([prep.x_test, prep.x_novel])
    truths = np.concatenate([prep.y_test, np.full(len(prep.x_novel), OTHERS)])
    # the last bits of a 300-wide matmul depend on the OpenBLAS thread
    # count: one thread makes the scores the same on any machine
    with single_thread():
        outputs, _ = net.forward([x_eval], INFER)
    class_probs = outputs[-1]

    rows = [compute_gca_nda(classify_with_threshold(class_probs, 0.0), truths)]
    for target in target_gcas:
        _, report = tune_threshold(class_probs, truths, target)
        rows.append(report)
    points, auc = roc_auc(novelty_scores(class_probs), truths == OTHERS)
    rows[0].auc = auc
    return VariantEvaluation(rows=rows, targets=list(target_gcas), roc_points=points, auc=auc)


def distance_tables(prep: PreparedData, generator: Network | None, seed: int,
                    n_generated: int | None = None,
                    standardizer: Standardizer | None = None) -> DistanceReport:
    """Per-class baseline/GAN/random distance statistics in raw feature units.

    Real sets are all samples of each trained class. Generated samples are
    inverse-standardized with ``standardizer``, the one the generator was
    trained against (``prep``'s when not given, for a generator trained on
    ``prep``); their class conditioning draws its peaks from ``GAN_PEAKS``,
    the range every generator is trained with. Random samples are drawn
    from per-class Gaussian fits of the real data.
    """
    real_by_class = {
        cls: prep.raw_features[prep.raw_labels == cls]
        for cls in range(prep.n_classes)
    }
    stats = class_feature_stats(prep.raw_features, prep.raw_labels)

    rng = substream(seed, "distance")
    if standardizer is None:
        standardizer = prep.standardizer
    generated_by_class = None
    if generator is not None:
        generated_by_class = {}
        for cls in range(prep.n_classes):
            n = n_generated or len(real_by_class[cls])
            peaks = rng.uniform(*GAN_PEAKS, n)
            targets = D.stochastic_target_batch(np.full(n, cls), prep.n_classes, peaks)
            samples = generate_samples(generator, targets, n, rng)
            generated_by_class[cls] = standardizer.inverse(samples)
    random_by_class = {
        cls: gaussian_baseline_sampler(stats[cls][0], stats[cls][1],
                                       n_generated or len(real_by_class[cls]), rng)
        for cls in range(prep.n_classes)
    }
    return distance_report(real_by_class, generated_by_class, random_by_class)

