"""Command-line entry points for the experiment matrix.

Subcommands: synth, train, distances, evaluate, generate. train and
evaluate write a manifest.json of their run configuration, which
``train --manifest`` replays bit-identically; distances writes one of its
data, generator and row count, as a record only; synth and generate
write none. Each command parses its arguments, loads and validates every
input, computes, and only then creates its output and writes, so a
validation error leaves the output as it was. Exit codes: 0 success, 1
validation problem, 2 numeric divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path


def _load_numpy_on_one_thread() -> None:
    """Import numpy with its OpenBLAS started on one thread.

    OpenBLAS starts one thread per core as it loads, and reads its count
    from the environment only then; an idle thread spins, and a count
    pinned later cannot stop it. The variable is set only while numpy
    loads, so child processes and callers see the environment as it was.
    Where numpy is loaded already (a library caller), its BLAS is left as
    it is, and ``blas.single_thread`` pins each command instead.
    """
    if "numpy" in sys.modules:
        return
    previous = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        if previous is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = previous


_load_numpy_on_one_thread()

# Each command imports only the modules it runs: the experiments and the
# evaluation load in the commands that train, evaluate or measure
# distances, not in synth or generate. Without a bytecode cache every
# module imported is compiled again on every run.
from . import blas  # noqa: E402
from .data import load_dataset, save_dataset  # noqa: E402
from .errors import (  # noqa: E402
    ANY, BOOL, STRING, TRUE, DataError, NumericError, ShapeError, SpecError, StateError, check,
    check_config, integer, list_of, nullable, number, one_of, read_json, retired, setting, table,
)
from .gan import (  # noqa: E402
    BASELINE_BETAS, BASELINE_LR, CHECKPOINT_EVERY, D_LOSS_WEIGHTS, DECAY_D, DECAY_G, GAN_BETAS,
    GAN_PEAKS, LR_G, PATIENCE, TEST_1A_PEAKS, VARIANTS, BaselineConfig, GanConfig,
    generate_samples,
)
from .nn import INFER_BLOCK_ROWS  # noqa: E402
from .rng import substream  # noqa: E402
from .rundir import (  # noqa: E402
    COMMAND, ENVIRONMENT, RunDir, clear_evaluation, write_evaluation, write_manifest,
)
from .synth import SynthSpec, make_synthetic_dataset  # noqa: E402

ENV_SEED = "STGAN_ND_SEED"
# the variants trained from one adversarial run; evaluate runs them as one job
GAN_VARIANTS = ("test_2", "test_3")
# the target GCAs evaluate tunes a threshold for, one row each
TARGET_GCA = list_of(number("[0, 1]"))


class _Parser(argparse.ArgumentParser):
    # flags are spelled in full: a prefix such as --variant would otherwise
    # stand for --variants; subparsers are made by this class too
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on bad usage; the contract reserves 2
    # for numeric divergence, so route usage errors through exit code 1
    def error(self, message):
        raise SpecError(message)


@dataclass
class DataConfig:
    """The data train, evaluate and distances read, and the seed that splits it."""
    dataset: str | None = setting(rule=nullable(STRING))
    channels: list[int] | None = setting(rule=nullable(list_of(integer(">= 0"), nonempty=True)))
    synth: SynthSpec | None = setting(rule=nullable(table(SynthSpec)))
    novel_classes: list[int] = setting(rule=list_of(integer(">= 0"), nonempty=True))
    seed: int = setting(rule=integer(">= 0"))

    def __post_init__(self):
        check_config(self)
        if self.dataset is None and self.synth is None:
            raise SpecError("provide --dataset or --synth-spec")
        if self.synth is not None and self.channels is not None:
            raise SpecError("--channels applies to --dataset only, not to --synth-spec")


@dataclass
class RunConfig(DataConfig):
    """The data and the training of one variant, as train and evaluate read them."""
    variant: str = setting(rule=one_of(*VARIANTS))
    gan: GanConfig = setting(rule=table(GanConfig))
    baseline: BaselineConfig = setting(rule=table(BaselineConfig))

    @classmethod
    def from_manifest(cls, payload, where: str = "manifest") -> "RunConfig":
        check(payload, _MANIFEST, where)

        def build(config_class, values: dict):  # the config of its own fields
            return config_class(**{k: values[k] for k in table(config_class)})
        try:
            return build(cls, {**payload, "gan": build(GanConfig, payload["gan"]),
                               "baseline": build(BaselineConfig, payload["baseline"]),
                               "synth": payload["synth"] and build(SynthSpec, payload["synth"])})
        except SpecError as exc:  # a rule across fields
            raise DataError(f"{where}: {exc}") from None


# a manifest: the run config, the environment, which replay ignores, and keys
# of earlier versions, which it ignores too: target_gca, an evaluate setting;
# the fixed hyperparameters, each at its value only, so a replay never trains
# with another value than the one recorded; gan.real_targets_stochastic, whose
# one remaining setting is true; and baseline.stochastic, which the variant
# overrode whatever it was
_MANIFEST = {
    **table(RunConfig), ENVIRONMENT + "?": ANY, COMMAND + "?": ANY, "target_gca?": TARGET_GCA,
    "gan": {**table(GanConfig), "real_targets_stochastic?": TRUE, **retired(
        lr_g=LR_G, adam_beta1=GAN_BETAS[0], adam_beta2=GAN_BETAS[1], decay_d=DECAY_D,
        decay_g=DECAY_G, d_validity_weight=D_LOSS_WEIGHTS[0], d_class_weight=D_LOSS_WEIGHTS[1],
        stochastic_p_low=GAN_PEAKS[0], stochastic_p_high=GAN_PEAKS[1],
        checkpoint_every=CHECKPOINT_EVERY)},
    "baseline": {**table(BaselineConfig), "stochastic?": BOOL, **retired(
        learning_rate=BASELINE_LR, patience=PATIENCE, p_low=TEST_1A_PEAKS[0],
        p_high=TEST_1A_PEAKS[1], adam_beta1=BASELINE_BETAS[0], adam_beta2=BASELINE_BETAS[1])},
}


# argparse ``type=`` callables; argparse reports their ArgumentTypeError as
# a usage error, which exits 1


def _parse_list(convert):
    def parse(text: str) -> list:
        try:
            return [convert(v) for v in text.split(",") if v.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, got {text!r}") from None
    return parse


_parse_ints, _parse_floats = _parse_list(int), _parse_list(float)


def _parse_synth_spec(text: str) -> list[int]:
    parts = _parse_ints(text)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"needs exactly classes,samples,features, got {text!r}")
    return parts


def _parse_positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _parse_variants(text: str) -> list[str]:
    variants = [v for v in text.split(",") if v]
    repeated = {v for v in variants if variants.count(v) > 1}
    if not variants or repeated or not set(variants) <= set(VARIANTS):
        raise argparse.ArgumentTypeError(
            f"must name one or more of {', '.join(VARIANTS)}, each once, got {text!r}")
    return variants


def _default_seed() -> int:
    text = os.environ.get(ENV_SEED, "0")
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"{ENV_SEED} must be an integer, got {text!r}") from None


def _add_data_args(p: _Parser) -> None:
    p.add_argument("--dataset", help="feature CSV or raw-sample manifest CSV")
    p.add_argument("--synth-spec", metavar="C,M,F", type=_parse_synth_spec,
                   help="synthesize a dataset: classes,samples-per-class,features")
    p.add_argument("--synth-seed", type=int, default=0,
                   help="seed of the synthetic dataset itself (default 0)")
    p.add_argument("--channels", type=_parse_ints,
                   help="comma-separated channel indices of --dataset to keep")
    p.add_argument("--novel-classes", type=_parse_ints,
                   help="comma-separated class labels held out as novel")


def _add_train_args(p: _Parser) -> None:
    # evaluate takes no --variant: it sets the variant of each job itself
    p.set_defaults(variant="test_2")
    p.add_argument("--epochs", type=int, help="override training epochs")
    p.add_argument("--batch-size", type=int, help="override batch size")
    p.add_argument("--latent-size", type=int, help="generator latent width")
    p.add_argument("--preset", choices=["dualmyo", "uc2017"], default="dualmyo",
                   help="hyperparameter preset (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="stgan-nd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic feature dataset CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--spec", metavar="C,M,F", type=_parse_synth_spec, default="8,110,16")
    p.add_argument("--mean-scale", type=float, default=SynthSpec.cluster_mean_scale)
    p.add_argument("--within-std", type=float, default=SynthSpec.within_class_std)
    p.add_argument("--overlap", type=float, default=SynthSpec.overlap)

    p = sub.add_parser("train", help="train one experiment variant")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--manifest", help="replay a previous run's manifest.json")

    p = sub.add_parser("distances", help="baseline/GAN/random distance tables")
    _add_data_args(p)
    p.add_argument("--model", help="trained run directory (for the GAN column)")
    p.add_argument("--n-generated", type=_parse_positive_int)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("evaluate", help="accuracy tables, ROC and AUC per variant")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--variants", type=_parse_variants, default="test_2",
                   help="comma-separated list (default %(default)s)")
    p.add_argument("--target-gca", type=_parse_floats, default="0.95,0.90",
                   help="comma-separated target GCA values (default %(default)s)")
    p.add_argument("--jobs", type=_parse_positive_int, default=1,
                   help="train/evaluate this many variants in parallel")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("generate", help="sample the trained generator")
    p.add_argument("--model", required=True, help="trained run directory")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--class", dest="class_index", type=int,
                       help="trained class index to generate")
    group.add_argument("--target", type=_parse_floats,
                       help="explicit comma-separated target vector")
    p.add_argument("-n", "--count", type=int, default=100)
    p.add_argument("--out", required=True, help="output CSV path")

    for p in sub.choices.values():  # main resolves an absent --seed
        p.add_argument("--seed", type=int, help=f"top-level seed (default ${ENV_SEED} or 0)")
    return parser


def _data_config_from_args(args, cls=DataConfig, **training) -> DataConfig:
    """The ``cls`` config of ``args``' data flags and the ``training`` settings."""
    return cls(
        dataset=str(Path(args.dataset).resolve()) if args.dataset else None,
        channels=args.channels,
        synth=SynthSpec(*args.synth_spec, seed=args.synth_seed) if args.synth_spec else None,
        novel_classes=args.novel_classes,
        seed=args.seed,
        **training,
    )


def _run_config_from_args(args) -> RunConfig:
    overrides = {name: getattr(args, name) for name in ("epochs", "batch_size", "latent_size")
                 if getattr(args, name) is not None}
    preset = GanConfig.uc2017 if args.preset == "uc2017" else GanConfig
    # the supervised runs share the epoch count, as their maximum, and the batch size
    supervised = {"max_epochs": args.epochs, "batch_size": args.batch_size}
    baseline = BaselineConfig(seed=args.seed,
                              **{k: v for k, v in supervised.items() if v is not None})
    return _data_config_from_args(args, RunConfig, variant=args.variant,
                                  gan=preset(seed=args.seed, **overrides), baseline=baseline)


def _prepare(config: DataConfig):
    from .experiments import prepare_data

    if config.dataset is not None:
        ds = load_dataset(config.dataset, channels=config.channels)
    else:
        ds = make_synthetic_dataset(config.synth)
    return prepare_data(ds, config.novel_classes, config.seed)


def cmd_synth(args) -> int:
    spec = SynthSpec(
        *args.spec, cluster_mean_scale=args.mean_scale, within_class_std=args.within_std,
        overlap=args.overlap, seed=args.seed,
    )
    ds = make_synthetic_dataset(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out)
    print(f"wrote {ds.n_samples} samples x {ds.n_features} features to {out}")
    return 0


def cmd_train(args) -> int:
    if args.manifest:
        payload = read_json(args.manifest)
        command = payload.get(COMMAND, "train") if isinstance(payload, dict) else "train"
        if command != "train":
            raise DataError(f"{args.manifest} is the manifest of a {command!r} run; "
                            f"train replays the manifests of training runs only")
        config = RunConfig.from_manifest(payload, args.manifest)
    else:
        config = _run_config_from_args(args)
    RunDir(args.out).train(config, _prepare(config))
    return 0


def cmd_distances(args) -> int:
    from .experiments import distance_tables

    config = _data_config_from_args(args)
    model = RunDir(args.model) if args.model else None
    if model is not None and not model.path.is_dir():
        raise DataError(f"no model directory {model.path}")
    prep = _prepare(config)
    digest = model and model.generator_sha256()
    generator, standardizer = model.load_generator(prep) if digest else (None, None)
    if digest is None:
        missing = "no --model given" if model is None else f"no generator in {model.path}"
        print(f"warning: {missing}; GAN column omitted", file=sys.stderr)
    report = distance_tables(prep, generator, config.seed, args.n_generated,
                             standardizer=standardizer)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "distances.csv")
    write_manifest(out, config, command="distances",
                   model=None if generator is None else str(model.path.resolve()),
                   generator_sha256=digest, n_generated=args.n_generated)
    print(f"distance table written to {out / 'distances.csv'}")
    return 0


def _evaluate_one(payload) -> list[dict]:
    """Train or reuse (``RunDir.matches``), then evaluate, the variants of
    one job, in order. When ``test_2`` is trained in the job, ``test_3``
    retrains from its GAN instead of training the same GAN again."""
    from .experiments import evaluate_model

    base, variants, out_root, prep, target_gca = payload
    gan = None
    results = []
    for variant in variants:
        config = replace(base, variant=variant)
        run = RunDir(Path(out_root) / variant)
        if run.matches(config, prep):
            net = run.load_discriminator()
        else:
            model = run.train(config, prep, gan)
            net = model.network
            if variant == "test_2":
                gan = (model.bundle, run)
        evaluation = evaluate_model(net, prep, target_gca)
        run.write_roc(evaluation.roc_points)
        results.append({"variant": variant, "auc": evaluation.auc,
                        "rows": [asdict(r) for r in evaluation.rows],
                        "targets": evaluation.targets})
    return results


def _evaluation_jobs(variants: list[str]) -> list[list[str]]:
    """One job per variant, except the GAN variants, which share one job
    (test_2 first) placed where the first of them was asked for."""
    jobs = []
    for variant in variants:
        if variant not in GAN_VARIANTS:
            jobs.append([variant])
        elif not any(job[0] in GAN_VARIANTS for job in jobs):
            jobs.append([v for v in GAN_VARIANTS if v in variants])
    return jobs


def cmd_evaluate(args) -> int:
    check({"target_gca": args.target_gca}, {"target_gca": TARGET_GCA}, "evaluate", SpecError)
    config = _run_config_from_args(args)
    prep = _prepare(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clear_evaluation(out)
    jobs = [(config, job, str(out), prep, args.target_gca)
            for job in _evaluation_jobs(args.variants)]
    if args.jobs > 1 and len(jobs) > 1:
        # imported here: multiprocessing is a start-up cost every other command skips
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            done = [r for job_results in pool.map(_evaluate_one, jobs) for r in job_results]
    else:
        done = [r for job in jobs for r in _evaluate_one(job)]
    by_variant = {result["variant"]: result for result in done}
    results = [by_variant[v] for v in args.variants]
    write_evaluation(out, config, args.variants, args.target_gca, results)
    for result in results:
        print(f"{result['variant']}: AUC={result['auc']:.3f}")
    print(f"evaluation written to {out}")
    return 0


def cmd_generate(args) -> int:
    generator, standardizer = RunDir(args.model).load_generator()
    target = args.class_index if args.target is None else args.target
    samples = generate_samples(generator, target, args.count, substream(args.seed, "generate"))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # the bytes csv.writer writes: no cell needs quoting, rows end in \r\n
    with open(out, "w", newline="") as handle:
        handle.write(",".join(f"ch{i}" for i in range(samples.shape[1])) + "\r\n")
        # block by block, so the feature-unit rows and their text stay block-sized
        for start in range(0, samples.shape[0], INFER_BLOCK_ROWS):
            rows = standardizer.inverse(samples[start:start + INFER_BLOCK_ROWS]).tolist()
            handle.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
    print(f"wrote {samples.shape[0]} samples to {out}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "distances": cmd_distances,
    "evaluate": cmd_evaluate,
    "generate": cmd_generate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is None:
            args.seed = _default_seed()
        with blas.single_thread():
            return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 2
    except (SpecError, DataError, ShapeError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a path that is a directory, a file, or unreadable
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
