"""End-to-end experiment plumbing: data preparation, the four experiment
variants, evaluation tables, and distance reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as D
from .data import Dataset, HoldOut, SplitAssignment, Standardizer
from .errors import SpecError
from .evaluate import (
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
    BaselineConfig,
    GanBundle,
    GanConfig,
    TrainView,
    augment_offline,
    generate_samples,
    train_baseline,
    train_gan,
)
from .nn import INFER, Network, clone_network
from .rng import substream
from .synth import class_feature_stats, gaussian_baseline_sampler

VARIANTS = ("baseline_a", "test_1a", "test_2", "test_3")


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
    hold_out: HoldOut
    split: SplitAssignment
    raw_features: np.ndarray   # trained view, original feature units
    raw_novel: np.ndarray
    n_features: int
    n_classes: int
    seed: int


def prepare_data(ds: Dataset, novel_classes, seed: int) -> PreparedData:
    """Hold out novel classes, split, extract features, standardize.

    The standardizer is fitted on the training rows of trained classes
    only; novel samples are all reserved for evaluation.
    """
    hold = D.hold_out_novel(ds, novel_classes)
    trained = D.extract_features_dataset(hold.trained)
    novel = D.extract_features_dataset(hold.novel)
    split = D.split_dataset(trained, seed)
    features = trained.features()
    labels = trained.labels

    train_mask = split.mask(D.TRAIN)
    standardizer = D.fit_standardizer(features[train_mask])

    def view(mask):
        return standardizer.transform(features[mask]), labels[mask]

    x_train, y_train = view(train_mask)
    x_val, y_val = view(split.mask(D.VAL))
    x_test, y_test = view(split.mask(D.TEST))
    return PreparedData(
        x_train=x_train, y_train=y_train,
        x_val=x_val, y_val=y_val,
        x_test=x_test, y_test=y_test,
        x_novel=standardizer.transform(novel.features()),
        standardizer=standardizer,
        hold_out=hold,
        split=split,
        raw_features=features,
        raw_novel=novel.features(),
        n_features=features.shape[1],
        n_classes=int(labels.max()) + 1,
        seed=int(seed),
    )


@dataclass
class TrainedModel:
    variant: str
    network: Network            # the classifier under evaluation
    bundle: GanBundle | None    # present for the GAN variants
    history: list               # epoch loss records


def train_variant(prep: PreparedData, variant: str, gan_config: GanConfig,
                  baseline_config: BaselineConfig, checkpoint_dir=None,
                  bundle: GanBundle | None = None) -> TrainedModel:
    """Train one experiment variant on prepared data.

    baseline_a: one-hot supervised training. test_1a: supervised with
    stochastic targets. test_2: the discriminator straight out of
    adversarial training. test_3: that discriminator retrained on the
    offline-augmented training set (+50% generated rows).

    ``bundle`` is a GAN already trained by ``train_gan`` on ``prep`` with
    ``gan_config``; the GAN variants start from it instead of training
    their own (and write no periodic checkpoints). It is left unchanged.
    """
    if variant not in VARIANTS:
        raise SpecError(f"unknown variant {variant!r}; expected one of {VARIANTS}")

    if variant == "baseline_a":
        cfg = _replace(baseline_config, stochastic=False)
        net, history = train_baseline(
            prep.x_train, prep.y_train, prep.x_val, prep.y_val, prep.n_classes, cfg
        )
        return TrainedModel(variant, net, None, history)

    if variant == "test_1a":
        cfg = _replace(baseline_config, stochastic=True)
        net, history = train_baseline(
            prep.x_train, prep.y_train, prep.x_val, prep.y_val, prep.n_classes, cfg
        )
        return TrainedModel(variant, net, None, history)

    if bundle is None:
        bundle = train_gan(
            prep.x_train, prep.y_train, prep.n_classes, gan_config, checkpoint_dir
        )
    if variant == "test_2":
        return TrainedModel(variant, bundle.discriminator, bundle, bundle.loss_history)

    # test_3: offline augmentation, then supervised retraining with
    # stochastic targets in the GAN's peak range
    augment_rng = substream(gan_config.seed, "augment")
    view = augment_offline(
        TrainView.real(prep.x_train, prep.y_train),
        bundle.generator, 0.5, gan_config, augment_rng,
    )
    cfg = _replace(
        baseline_config,
        stochastic=True,
        p_low=gan_config.stochastic_p_low,
        p_high=gan_config.stochastic_p_high,
    )
    net, history = train_baseline(
        view.features, view.labels, prep.x_val, prep.y_val,
        prep.n_classes, cfg, initial=clone_network(bundle.discriminator),
    )
    return TrainedModel(variant, net, bundle, history)


def _replace(config: BaselineConfig, **changes) -> BaselineConfig:
    values = vars(config).copy()
    values.update(changes)
    return BaselineConfig(**values)


@dataclass
class VariantEvaluation:
    variant: str
    rows: list[EvalReport]      # tau=0 first, then one row per target GCA
    targets: list[float]
    roc_points: list
    auc: float


def evaluate_model(net: Network, prep: PreparedData, target_gcas,
                   variant: str = "") -> VariantEvaluation:
    """Score a classifier on the trained-class test split plus all novel samples."""
    x_eval = np.concatenate([prep.x_test, prep.x_novel])
    truths = [int(t) for t in prep.y_test] + [None] * len(prep.x_novel)
    outputs, _ = net.forward([x_eval], INFER)
    class_probs = outputs[-1]

    rows = [compute_gca_nda(classify_with_threshold(class_probs, 0.0), truths)]
    for target in target_gcas:
        _, report = tune_threshold(class_probs, truths, target)
        rows.append(report)
    points, auc = roc_auc(novelty_scores(class_probs), [t is None for t in truths])
    rows[0].roc_points = points
    rows[0].auc = auc
    return VariantEvaluation(
        variant=variant, rows=rows, targets=list(target_gcas),
        roc_points=points, auc=auc,
    )


def distance_tables(prep: PreparedData, generator: Network | None, seed: int,
                    n_generated: int | None = None,
                    stochastic_p: tuple[float, float] | None = (0.9, 1.0)) -> DistanceReport:
    """Per-class baseline/GAN/random distance statistics in raw feature units.

    Real sets are all samples of each trained class. Generated samples are
    inverse-standardized; by default their class conditioning uses the same
    stochastic-peak range the generator was trained with (``stochastic_p``
    of None conditions on plain one-hot vectors). Random samples are drawn
    from per-class Gaussian fits of the real data.
    """
    labels = prep.hold_out.trained.labels
    real_by_class = {
        cls: prep.raw_features[labels == cls]
        for cls in range(prep.n_classes)
    }
    stats = class_feature_stats(prep.raw_features, labels)

    rng = substream(seed, "distance")
    generated_by_class = None
    if generator is not None:
        generated_by_class = {}
        for cls in range(prep.n_classes):
            n = n_generated or len(real_by_class[cls])
            if stochastic_p is None:
                samples = generate_samples(generator, cls, n, rng)
            else:
                peaks = rng.uniform(stochastic_p[0], stochastic_p[1], n)
                targets = D.stochastic_target_batch(
                    np.full(n, cls), prep.n_classes, peaks
                )
                samples = generate_samples(generator, targets, n, rng)
            generated_by_class[cls] = prep.standardizer.inverse(samples)
    random_by_class = {
        cls: gaussian_baseline_sampler(stats[cls][0], stats[cls][1],
                                       n_generated or len(real_by_class[cls]), rng)
        for cls in range(prep.n_classes)
    }
    return distance_report(real_by_class, generated_by_class, random_by_class)

