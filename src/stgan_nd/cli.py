"""Command-line entry points for the experiment matrix.

Subcommands: synth, train, distances, evaluate, generate. train and
evaluate write a manifest.json of their run configuration, from which
``train --manifest`` replays a training run bit-identically. distances
writes a manifest.json of its data configuration and of the generator and
row count it used, as a record only; synth and generate write none. Each
command parses its arguments, loads and validates every input, computes,
and only then creates its output and writes, so a validation error leaves
the output as it was. Exit codes: 0 success, 1 validation problem, 2
numeric divergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING


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
from .data import Standardizer, load_dataset, save_dataset  # noqa: E402
from .errors import DataError, NumericError, ShapeError, SpecError, StateError  # noqa: E402
from .gan import (  # noqa: E402
    VARIANTS,
    BaselineConfig,
    GanBundle,
    GanConfig,
    generate_samples,
    write_loss_csv,
)
from .nn import INFER_BLOCK_ROWS, Network, load_checkpoint, save_checkpoint  # noqa: E402
from .rng import substream  # noqa: E402
from .synth import SynthSpec, make_synthetic_dataset  # noqa: E402

if TYPE_CHECKING:
    from .experiments import PreparedData, TrainedModel

ENV_SEED = "STGAN_ND_SEED"
# manifest key of the run environment; replay ignores it
ENVIRONMENT = "environment"
# manifest key of the command that wrote it, where that is not train or
# evaluate (whose manifests carry no such key); train replays no other
COMMAND = "command"
# the variants trained from one adversarial run; evaluate runs them as one job
GAN_VARIANTS = ("test_2", "test_3")


class _Parser(argparse.ArgumentParser):
    # flags are spelled in full: a prefix such as --variant would otherwise
    # stand for --variants; subparsers are made by this class too
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on bad usage; the contract reserves 2
    # for numeric divergence, so route usage errors through exit code 1
    def error(self, message):
        raise SpecError(message)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and bool(value) and all(type(v) is int for v in value)


@dataclass
class DataConfig:
    """The data train, evaluate and distances read, and the seed that splits it."""
    dataset: str | None
    channels: list[int] | None
    synth: SynthSpec | None
    novel_classes: list[int]
    seed: int

    def __post_init__(self):
        if self.dataset is None and self.synth is None:
            raise SpecError("provide --dataset or --synth-spec")
        if not isinstance(self.dataset, (str, type(None))):
            raise SpecError(f"dataset must be a path, got {self.dataset!r}")
        if self.synth is not None and self.channels is not None:
            raise SpecError("--channels applies to --dataset only, not to --synth-spec")
        if self.channels is not None and not _is_int_list(self.channels):
            raise SpecError(f"channels must be a non-empty list of integers, "
                            f"got {self.channels!r}")
        if not _is_int_list(self.novel_classes):
            raise SpecError(f"novel classes must be a non-empty list of integers, "
                            f"got {self.novel_classes!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise SpecError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class RunConfig(DataConfig):
    """The data and the training of one variant, as train and evaluate read them."""
    variant: str
    target_gca: list[float]
    gan: GanConfig
    baseline: BaselineConfig

    def __post_init__(self):
        super().__post_init__()
        if self.variant not in VARIANTS:
            raise SpecError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if not isinstance(self.target_gca, list) or not all(
                type(t) in (int, float) and 0.0 <= t <= 1.0 for t in self.target_gca):
            raise SpecError(f"target GCA values must be numbers in [0, 1], got {self.target_gca}")

    @classmethod
    def from_manifest(cls, payload: dict) -> "RunConfig":
        if not isinstance(payload, dict):
            raise DataError("a manifest must be a JSON object")
        names = [f.name for f in fields(cls)]
        missing = [k for k in names if k not in payload]
        if missing:
            raise DataError(f"manifest lacks {', '.join(missing)}")
        values = {k: payload[k] for k in names}
        gan, baseline = values["gan"], values["baseline"]
        # manifests of earlier versions record real_targets_stochastic, an
        # option whose one remaining setting is true
        if isinstance(gan, dict) and "real_targets_stochastic" in gan:
            if gan["real_targets_stochastic"] is not True:
                raise DataError("manifest trains with one-hot real targets "
                                "(real_targets_stochastic false), which is not supported")
            gan = {k: v for k, v in gan.items() if k != "real_targets_stochastic"}
        # ... and baseline.stochastic, which every variant overrode: the
        # variant alone decides the targets, so the run is the same whatever
        # its value
        if isinstance(baseline, dict):
            baseline = {k: v for k, v in baseline.items() if k != "stochastic"}
        try:
            values["gan"] = GanConfig(**gan)
            values["baseline"] = BaselineConfig(**baseline)
            if values["synth"] is not None:
                values["synth"] = SynthSpec(**values["synth"])
        except TypeError as exc:
            raise DataError(f"bad training or dataset config: {exc}") from None
        return cls(**values)


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from None


def _write_manifest(config: DataConfig, out: Path, variants: list[str] | None = None,
                    command: str | None = None, **inputs) -> None:
    """``config``, the data or run configuration the command read, and the
    run environment. An evaluate run gives the ``variants`` it evaluated,
    which are written in place of ``variant``. Another command gives its
    name and the ``inputs`` it read besides ``config``."""
    items = asdict(config).items()
    if variants is not None:
        items = [("variants", variants) if k == "variant" else (k, v) for k, v in items]
    head = {} if command is None else {COMMAND: command}
    payload = {**head, **dict(items), **inputs, ENVIRONMENT: blas.environment()}
    (out / "manifest.json").write_text(json.dumps(payload, indent=1))


def _same_config(manifest: Path, config: RunConfig) -> bool:
    """Whether ``manifest`` was written for exactly ``config``."""
    try:
        stored = json.loads(manifest.read_text())
    except (OSError, ValueError):
        return False
    if isinstance(stored, dict):
        stored.pop(ENVIRONMENT, None)
    return stored == json.loads(json.dumps(asdict(config)))


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
    # also the defaults of the settings a command takes no flag for: train
    # has no --target-gca, and evaluate sets the variant of each job itself
    p.set_defaults(variant="test_2", target_gca=[0.95, 0.90])
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
    p.add_argument("--target-gca", type=_parse_floats,
                   help="comma-separated target GCA values")
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
    return _data_config_from_args(
        args, RunConfig,
        variant=args.variant,
        target_gca=args.target_gca,
        gan=preset(seed=args.seed, **overrides),
        baseline=baseline,
    )


def _prepare(config: DataConfig) -> PreparedData:
    from .experiments import prepare_data

    if config.dataset is not None:
        ds = load_dataset(config.dataset, channels=config.channels)
    else:
        ds = make_synthetic_dataset(config.synth)
    return prepare_data(ds, config.novel_classes, config.seed)


def _preprocessing(prep: PreparedData) -> dict:
    return {
        "standardizer": prep.standardizer.to_dict(),
        "class_map": {str(k): v for k, v in prep.class_map.items()},
        "n_features": prep.n_features,
        "n_classes": prep.n_classes,
    }


def _load_generator(model: Path, prep: PreparedData | None = None
                    ) -> tuple[Network, Standardizer]:
    """The generator of the run in ``model`` and the standardizer it was
    trained against, checked against each other and, given ``prep``,
    against the data ``prep`` was prepared from."""
    gen_path = model / "generator.json"
    if not gen_path.exists():
        raise DataError(f"no generator checkpoint in {model}")
    payload = _read_json(model / "preprocessing.json", "preprocessing file")
    try:
        standardizer = Standardizer.from_dict(payload["standardizer"])
        n_features, n_classes = payload["n_features"], payload["n_classes"]
        class_map = payload["class_map"]
        labels = set(class_map.values())
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad preprocessing file in {model}: {exc!r}") from None
    if prep is not None:
        expected = _preprocessing(prep)
        for key in ("n_features", "class_map"):
            if payload[key] != expected[key]:
                raise DataError(f"{model} was trained on other data: its {key} is "
                                f"{payload[key]}, the data's is {expected[key]}")
    generator, _, _ = load_checkpoint(gen_path)
    # a generator maps (latent, class target) inputs to one head of features
    widths = (list(generator.spec.input_widths[1:]), [w for w, _ in generator.spec.output_heads])
    if (widths != ([n_classes], [n_features]) or len(class_map) != n_classes
            or labels != set(range(generator.spec.input_widths[-1]))
            or not standardizer.mean.size == standardizer.std.size == n_features):
        raise DataError(f"the generator in {model}, of class and feature widths {widths}, does "
                        f"not fit its preprocessing file: {n_classes!r} classes, class map "
                        f"{class_map}, {n_features!r} features, standardizer widths "
                        f"{standardizer.mean.size} and {standardizer.std.size}")
    return generator, standardizer


def _train_run(config: RunConfig, out: Path, prep: PreparedData,
               gan: tuple[GanBundle, Path] | None = None) -> TrainedModel:
    """Train ``config.variant`` on ``prep`` and write its run directory.

    ``gan`` is the bundle and run directory of a GAN variant trained in
    this process for the same configuration: a GAN variant then starts
    from that bundle and copies its GAN files (generator, losses,
    periodic checkpoints) byte for byte instead of training and writing
    the same GAN again.
    """
    from .experiments import train_variant

    out.mkdir(parents=True, exist_ok=True)
    _remove_run_files(out)
    _write_manifest(config, out)
    bundle, gan_dir = gan if gan is not None else (None, None)
    model = train_variant(
        prep, config.variant, config.gan, config.baseline,
        checkpoint_dir=out / "checkpoints", bundle=bundle,
    )
    (out / "preprocessing.json").write_text(json.dumps(_preprocessing(prep), indent=1))
    if model.bundle is not None:
        if gan_dir is None:
            # the network only, as for the discriminator: the Adam moments
            # stay in the periodic checkpoints, and no command reads them
            save_checkpoint(out / "generator.json", model.bundle.generator,
                            rng_seed=config.seed)
            write_loss_csv(model.bundle.loss_history, out / "losses.csv")
        else:
            _copy_gan_files(model.bundle, gan_dir, out)
        if config.variant == "test_3":
            write_loss_csv(model.history, out / "retrain_losses.csv")
    else:
        write_loss_csv(model.history, out / "losses.csv")
    save_checkpoint(out / "discriminator.json", model.network, rng_seed=config.seed)
    print(f"{config.variant}: trained, outputs in {out}")
    return model


def _remove_run_files(out: Path) -> None:
    """Delete the files an earlier run wrote in ``out`` that this run may
    not overwrite, or may fail before overwriting: its model,
    preprocessing, generator, losses, ROC and periodic checkpoints."""
    names = ("discriminator.json", "preprocessing.json", "generator.json",
             "losses.csv", "retrain_losses.csv", "roc.csv")
    for path in [out / name for name in names] + list(out.glob("checkpoints/*_e*.json")):
        path.unlink(missing_ok=True)


def _copy_gan_files(bundle: GanBundle, source: Path, out: Path) -> None:
    for name in ("generator.json", "losses.csv"):
        shutil.copyfile(source / name, out / name)
    (out / "checkpoints").mkdir(exist_ok=True)
    for path in bundle.checkpoints:
        shutil.copyfile(path, out / "checkpoints" / path.name)


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
        payload = _read_json(Path(args.manifest), "manifest")
        command = payload.get(COMMAND, "train") if isinstance(payload, dict) else "train"
        if command != "train":
            raise DataError(f"{args.manifest} is the manifest of a {command!r} run; "
                            f"train replays the manifests of training runs only")
        config = RunConfig.from_manifest(payload)
    else:
        config = _run_config_from_args(args)
    _train_run(config, Path(args.out), _prepare(config))
    return 0


def cmd_distances(args) -> int:
    from .experiments import distance_tables

    config = _data_config_from_args(args)
    prep = _prepare(config)
    generator = standardizer = digest = None
    model = Path(args.model) if args.model else None
    if model is not None and (model / "generator.json").exists():
        generator, standardizer = _load_generator(model, prep)
        digest = hashlib.sha256((model / "generator.json").read_bytes()).hexdigest()
    else:
        missing = "no --model given" if model is None else f"{model / 'generator.json'} not found"
        print(f"warning: {missing}; GAN column omitted", file=sys.stderr)
    report = distance_tables(prep, generator, config.seed, args.n_generated,
                             standardizer=standardizer)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "distances.csv")
    _write_manifest(config, out, command="distances",
                    model=None if generator is None else str(model.resolve()),
                    generator_sha256=digest, n_generated=args.n_generated)
    print(f"distance table written to {out / 'distances.csv'}")
    return 0


def _evaluate_one(payload) -> list[dict]:
    """Train or reuse, then evaluate, the variants of one job, in order.

    A variant's trained model in ``<out>/<variant>`` is reused only if it
    was trained for this very configuration. When ``test_2`` is trained in
    the job, ``test_3`` retrains from its GAN instead of training the same
    GAN again.
    """
    from .evaluate import write_roc_csv
    from .experiments import evaluate_model

    base, variants, out_root, prep = payload
    gan = None
    results = []
    for variant in variants:
        config = replace(base, variant=variant)
        out = Path(out_root) / variant
        model_path = out / "discriminator.json"
        if model_path.exists() and _same_config(out / "manifest.json", config):
            net, _, _ = load_checkpoint(model_path)
        else:
            model = _train_run(config, out, prep, gan)
            net = model.network
            if variant == "test_2":
                gan = (model.bundle, out)
        evaluation = evaluate_model(net, prep, config.target_gca)
        write_roc_csv(evaluation.roc_points, out / "roc.csv")
        results.append({
            "variant": variant,
            "auc": evaluation.auc,
            "rows": [asdict(r) for r in evaluation.rows],
            "targets": evaluation.targets,
        })
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
    config = _run_config_from_args(args)
    prep = _prepare(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(config, job, str(out), prep) for job in _evaluation_jobs(args.variants)]
    if args.jobs > 1 and len(jobs) > 1:
        # imported here: multiprocessing is a start-up cost every other command skips
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            done = [r for job_results in pool.map(_evaluate_one, jobs) for r in job_results]
    else:
        done = [r for job in jobs for r in _evaluate_one(job)]
    by_variant = {result["variant"]: result for result in done}
    results = [by_variant[v] for v in args.variants]

    _write_accuracy_csv(results, config.target_gca, out / "accuracy.csv")
    (out / "report.json").write_text(json.dumps(results, indent=1))
    _write_manifest(config, out, args.variants)
    for result in results:
        print(f"{result['variant']}: AUC={result['auc']:.3f}")
    print(f"evaluation written to {out}")
    return 0


def _write_accuracy_csv(results, targets, path) -> None:
    # mirrors the published table layout: one row per variant, one column
    # group per threshold setting (tau=0 first, then each tuned target)
    header = ["variant"]
    for i, tag in enumerate(["tau0"] + [f"p{target:g}" for target in targets]):
        header += [f"{tag}_class", f"{tag}_others", f"{tag}_mean_balanced",
                   f"{tag}_mean_weighted"] + [f"{tag}_tau"] * (i > 0)
    header.append("auc")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for result in results:
            cells = [result["variant"]]
            for i, row in enumerate(result["rows"]):
                cells += [f"{100.0 * row[key]:.1f}"
                          for key in ("gca", "nda", "mean_balanced", "mean_weighted")]
                cells += [repr(row["tau"])] * (i > 0)
            cells.append(repr(result["auc"]))
            writer.writerow(cells)


def cmd_generate(args) -> int:
    generator, standardizer = _load_generator(Path(args.model))
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


if __name__ == "__main__":
    sys.exit(main())
