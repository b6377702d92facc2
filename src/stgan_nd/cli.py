"""Command-line entry points for the experiment matrix.

Subcommands: synth, train, distances, evaluate, generate. Every run writes
a manifest.json from which it can be replayed bit-identically. Exit codes:
0 success, 1 validation problem, 2 numeric divergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import blas
from .data import Standardizer, load_dataset, save_dataset
from .errors import DataError, NumericError, ShapeError, SpecError, StateError
from .evaluate import write_roc_csv
from .experiments import (
    VARIANTS,
    PreparedData,
    TrainedModel,
    distance_tables,
    evaluate_model,
    prepare_data,
    train_variant,
)
from .gan import BaselineConfig, GanBundle, GanConfig, generate_samples, write_loss_csv
from .nn import load_checkpoint, save_checkpoint
from .rng import substream
from .synth import SynthSpec, make_synthetic_dataset

ENV_SEED = "STGAN_ND_SEED"
# manifest key of the run environment; replay ignores it
ENVIRONMENT = "environment"
# the variants trained from one adversarial run; evaluate runs them as one job
GAN_VARIANTS = ("test_2", "test_3")


class _CliError(SpecError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract reserves 2
    # for numeric divergence, so route usage errors through exit code 1
    def error(self, message):
        raise _CliError(message)


_CONFIG_FIELDS = (
    "dataset", "channels", "synth", "novel_classes", "variant",
    "target_gca", "gan", "baseline", "seed",
)


@dataclass
class RunConfig:
    dataset: str | None
    channels: list[int] | None
    synth: dict | None
    novel_classes: list[int]
    variant: str
    target_gca: list[float]
    gan: dict
    baseline: dict
    seed: int

    def __post_init__(self):
        if self.synth is not None and self.channels is not None:
            raise SpecError("--channels applies to --dataset only, not to --synth-spec")
        if not isinstance(self.target_gca, list) or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool) and 0.0 <= t <= 1.0
            for t in self.target_gca
        ):
            raise SpecError(f"target GCA values must be numbers in [0, 1], got {self.target_gca}")

    def to_manifest(self) -> dict:
        return asdict(self)

    @classmethod
    def from_manifest(cls, payload: dict) -> "RunConfig":
        if not isinstance(payload, dict):
            raise DataError("a manifest must be a JSON object")
        missing = [k for k in _CONFIG_FIELDS if k not in payload]
        if missing:
            raise DataError(f"manifest lacks {', '.join(missing)}")
        values = {k: payload[k] for k in _CONFIG_FIELDS}
        gan = values["gan"]
        # manifests of earlier versions record real_targets_stochastic, an
        # option whose one remaining setting is true
        if isinstance(gan, dict) and "real_targets_stochastic" in gan:
            if gan["real_targets_stochastic"] is not True:
                raise DataError("manifest trains with one-hot real targets "
                                "(real_targets_stochastic false), which is not supported")
            values["gan"] = {k: v for k, v in gan.items() if k != "real_targets_stochastic"}
        config = cls(**values)
        try:
            config.gan_config()
            config.baseline_config()
        except TypeError as exc:
            raise DataError(f"manifest has a bad training config: {exc}") from None
        return config

    def gan_config(self) -> GanConfig:
        return GanConfig(**self.gan)

    def baseline_config(self) -> BaselineConfig:
        return BaselineConfig(**self.baseline)


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from None


def _write_manifest(config: RunConfig, out: Path) -> None:
    payload = {**config.to_manifest(), ENVIRONMENT: blas.environment()}
    (out / "manifest.json").write_text(json.dumps(payload, indent=1))


def _same_config(manifest: Path, config: RunConfig) -> bool:
    """Whether ``manifest`` was written for exactly ``config``."""
    try:
        stored = json.loads(manifest.read_text())
    except (OSError, ValueError):
        return False
    if isinstance(stored, dict):
        stored.pop(ENVIRONMENT, None)
    return stored == json.loads(json.dumps(config.to_manifest()))


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise _CliError(f"expected comma-separated integers, got {text!r}") from None


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise _CliError(f"expected comma-separated numbers, got {text!r}") from None


def _default_seed() -> int:
    text = os.environ.get(ENV_SEED, "0")
    try:
        return int(text)
    except ValueError:
        raise _CliError(f"{ENV_SEED} must be an integer, got {text!r}") from None


def _add_data_args(p: _Parser) -> None:
    p.add_argument("--dataset", help="feature CSV or raw-sample manifest CSV")
    p.add_argument("--synth-spec", metavar="C,M,F",
                   help="synthesize a dataset: classes,samples-per-class,features")
    p.add_argument("--synth-seed", type=int, default=0,
                   help="seed of the synthetic dataset itself (default 0)")
    p.add_argument("--channels",
                   help="comma-separated channel indices of --dataset to keep")
    p.add_argument("--novel-classes",
                   help="comma-separated class labels held out as novel")


def _add_train_args(p: _Parser) -> None:
    p.add_argument("--variant", choices=VARIANTS, default="test_2")
    p.add_argument("--epochs", type=int, help="override training epochs")
    p.add_argument("--batch-size", type=int, help="override batch size")
    p.add_argument("--latent-size", type=int, help="generator latent width")
    p.add_argument("--preset", choices=["dualmyo", "uc2017"], default="dualmyo",
                   help="hyperparameter preset (default dualmyo)")
    p.add_argument("--seed", type=int, default=None,
                   help=f"top-level seed (default ${ENV_SEED} or 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="stgan-nd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic feature dataset CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--spec", metavar="C,M,F", default="8,110,16")
    p.add_argument("--mean-scale", type=float, default=SynthSpec.cluster_mean_scale)
    p.add_argument("--within-std", type=float, default=SynthSpec.within_class_std)
    p.add_argument("--overlap", type=float, default=SynthSpec.overlap)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train one experiment variant")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--manifest", help="replay a previous run's manifest.json")

    p = sub.add_parser("distances", help="baseline/GAN/random distance tables")
    _add_data_args(p)
    p.add_argument("--model", help="trained run directory (for the GAN column)")
    p.add_argument("--n-generated", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("evaluate", help="accuracy tables, ROC and AUC per variant")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--variants", help="comma-separated list; overrides --variant")
    p.add_argument("--target-gca", default="0.95,0.90",
                   help="comma-separated target GCA values")
    p.add_argument("--jobs", type=int, default=1,
                   help="train/evaluate this many variants in parallel")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("generate", help="sample the trained generator")
    p.add_argument("--model", required=True, help="trained run directory")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--class", dest="class_index", type=int,
                       help="trained class index to generate")
    group.add_argument("--target", help="explicit comma-separated target vector")
    p.add_argument("-n", "--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    return parser


def _resolve_synth(args) -> dict | None:
    if getattr(args, "synth_spec", None) is None:
        return None
    parts = _parse_int_list(args.synth_spec)
    if len(parts) != 3:
        raise _CliError("--synth-spec needs exactly classes,samples,features")
    spec = SynthSpec(
        n_classes=parts[0], samples_per_class=parts[1], n_features=parts[2],
        seed=args.synth_seed,
    )
    return asdict(spec)


def _run_config_from_args(args) -> RunConfig:
    seed = args.seed if args.seed is not None else _default_seed()
    preset = getattr(args, "preset", "dualmyo")
    gan = GanConfig.uc2017(seed=seed) if preset == "uc2017" else GanConfig(seed=seed)
    overrides = {}
    for flag, field_name in (
        ("epochs", "epochs"), ("batch_size", "batch_size"), ("latent_size", "latent_size"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field_name] = value
    if overrides:
        values = asdict(gan)
        values.update(overrides)
        gan = GanConfig(**values)
    baseline = BaselineConfig(seed=seed)
    if getattr(args, "epochs", None) is not None:
        baseline = BaselineConfig(seed=seed, max_epochs=args.epochs)
    if args.dataset is None and getattr(args, "synth_spec", None) is None:
        raise _CliError("provide --dataset or --synth-spec")
    if not getattr(args, "novel_classes", None):
        raise _CliError("--novel-classes is required")
    return RunConfig(
        dataset=str(Path(args.dataset).resolve()) if args.dataset else None,
        channels=_parse_int_list(args.channels) if getattr(args, "channels", None) else None,
        synth=_resolve_synth(args),
        novel_classes=_parse_int_list(args.novel_classes),
        variant=getattr(args, "variant", "test_2"),
        target_gca=_parse_float_list(getattr(args, "target_gca", "0.95,0.90")),
        gan=asdict(gan),
        baseline=asdict(baseline),
        seed=seed,
    )


def _load_config_dataset(config: RunConfig):
    if config.dataset is not None:
        return load_dataset(config.dataset, channels=config.channels)
    return make_synthetic_dataset(SynthSpec(**config.synth))


def _prepare(config: RunConfig) -> PreparedData:
    ds = _load_config_dataset(config)
    return prepare_data(ds, config.novel_classes, config.seed)


def _preprocessing(prep: PreparedData) -> dict:
    return {
        "standardizer": prep.standardizer.to_dict(),
        "class_map": {str(k): v for k, v in prep.hold_out.class_map.items()},
        "n_features": prep.n_features,
        "n_classes": prep.n_classes,
    }


def _read_preprocessing(model: Path) -> tuple[dict, Standardizer]:
    """The preprocessing file of the run in ``model`` and its standardizer."""
    payload = _read_json(model / "preprocessing.json", "preprocessing file")
    try:
        standardizer = Standardizer.from_dict(payload["standardizer"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad preprocessing file in {model}: {exc!r}") from None
    return payload, standardizer


def _train_run(config: RunConfig, out: Path, prep: PreparedData,
               gan: tuple[GanBundle, Path] | None = None) -> TrainedModel:
    """Train ``config.variant`` on ``prep`` and write its run directory.

    ``gan`` is the bundle and run directory of a GAN variant trained in
    this process for the same configuration: a GAN variant then starts
    from that bundle and copies its GAN files (generator, losses,
    periodic checkpoints) byte for byte instead of training and writing
    the same GAN again.
    """
    out.mkdir(parents=True, exist_ok=True)
    _remove_run_files(out)
    _write_manifest(config, out)
    bundle, gan_dir = gan if gan is not None else (None, None)
    model = train_variant(
        prep, config.variant, config.gan_config(), config.baseline_config(),
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
            _write_supervised_losses(model.history, out / "retrain_losses.csv")
    else:
        _write_supervised_losses(model.history, out / "losses.csv")
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


def _write_supervised_losses(history, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for epoch, train_loss, val_loss in history:
            writer.writerow([epoch, repr(train_loss), repr(val_loss)])


def cmd_synth(args) -> int:
    parts = _parse_int_list(args.spec)
    if len(parts) != 3:
        raise _CliError("--spec needs exactly classes,samples,features")
    seed = args.seed if args.seed is not None else _default_seed()
    spec = SynthSpec(
        n_classes=parts[0], samples_per_class=parts[1], n_features=parts[2],
        cluster_mean_scale=args.mean_scale, within_class_std=args.within_std,
        overlap=args.overlap, seed=seed,
    )
    ds = make_synthetic_dataset(spec)
    out = Path(args.out)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out)
    print(f"wrote {ds.n_samples} samples x {ds.n_features} features to {out}")
    return 0


def cmd_train(args) -> int:
    if args.manifest:
        config = RunConfig.from_manifest(_read_json(Path(args.manifest), "manifest"))
    else:
        config = _run_config_from_args(args)
    _train_run(config, Path(args.out), _prepare(config))
    return 0


def cmd_distances(args) -> int:
    if args.n_generated is not None and args.n_generated < 1:
        raise _CliError(f"--n-generated must be positive, got {args.n_generated}")
    config = _run_config_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prep = _prepare(config)
    generator = standardizer = None
    if args.model:
        model = Path(args.model)
        gen_path = model / "generator.json"
        if gen_path.exists():
            payload, standardizer = _read_preprocessing(model)
            expected = _preprocessing(prep)
            for key in ("n_features", "class_map"):
                if payload.get(key) != expected[key]:
                    raise DataError(f"{model} was trained on other data: its {key} is "
                                    f"{payload.get(key)}, the data's is {expected[key]}")
            generator, _, _ = load_checkpoint(gen_path)
        else:
            print(f"warning: {gen_path} not found; GAN column omitted", file=sys.stderr)
    else:
        print("warning: no --model given; GAN column omitted", file=sys.stderr)
    report = distance_tables(prep, generator, config.seed, args.n_generated,
                             standardizer=standardizer)
    report.to_csv(out / "distances.csv")
    _write_manifest(config, out)
    print(f"distance table written to {out / 'distances.csv'}")
    return 0


def _evaluate_one(payload) -> list[dict]:
    """Train or reuse, then evaluate, the variants of one job, in order.

    The data is prepared once per job. A variant's trained model in
    ``<out>/<variant>`` is reused only if it was trained for this very
    configuration. When ``test_2`` is trained in the job, ``test_3``
    retrains from its GAN instead of training the same GAN again.
    """
    manifest, variants, out_root = payload
    base = RunConfig.from_manifest(manifest)
    prep = _prepare(base)
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
            "rows": [r.to_dict() for r in evaluation.rows],
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
    variants = (
        [v for v in args.variants.split(",") if v] if args.variants else [config.variant]
    )
    if not variants:
        raise _CliError("--variants names no variant")
    for variant in variants:
        if variant not in VARIANTS:
            raise _CliError(f"unknown variant {variant!r}")
    repeated = sorted({v for v in variants if variants.count(v) > 1})
    if repeated:
        raise _CliError(f"--variants names {', '.join(repeated)} more than once")
    if args.jobs < 1:
        raise _CliError(f"--jobs must be at least 1, got {args.jobs}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(config.to_manifest(), job, str(out)) for job in _evaluation_jobs(variants)]
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            done = [r for job_results in pool.map(_evaluate_one, jobs) for r in job_results]
    else:
        done = [r for job in jobs for r in _evaluate_one(job)]
    by_variant = {result["variant"]: result for result in done}
    results = [by_variant[v] for v in variants]

    _write_accuracy_csv(results, config.target_gca, out / "accuracy.csv")
    (out / "report.json").write_text(json.dumps(results, indent=1))
    _write_manifest(config, out)
    for result in results:
        print(f"{result['variant']}: AUC={result['auc']:.3f}")
    print(f"evaluation written to {out}")
    return 0


def _write_accuracy_csv(results, targets, path) -> None:
    # mirrors the published table layout: one row per variant, one column
    # group per threshold setting (tau=0 first, then each tuned target)
    header = ["variant", "tau0_class", "tau0_others", "tau0_mean_balanced",
              "tau0_mean_weighted"]
    for target in targets:
        tag = f"p{target:g}"
        header += [f"{tag}_class", f"{tag}_others", f"{tag}_mean_balanced",
                   f"{tag}_mean_weighted", f"{tag}_tau"]
    header.append("auc")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for result in results:
            rows = result["rows"]
            cells = [result["variant"]]
            zero = rows[0]
            cells += [_pct(zero["gca"]), _pct(zero["nda"]),
                      _pct(zero["mean_balanced"]), _pct(zero["mean_weighted"])]
            for row in rows[1:]:
                cells += [_pct(row["gca"]), _pct(row["nda"]),
                          _pct(row["mean_balanced"]), _pct(row["mean_weighted"]),
                          f"{row['tau']:.3f}"]
            cells.append(repr(result["auc"]))
            writer.writerow(cells)


def _pct(fraction: float) -> str:
    return f"{100.0 * fraction:.1f}"


def cmd_generate(args) -> int:
    model = Path(args.model)
    gen_path = model / "generator.json"
    if not gen_path.exists():
        raise DataError(f"no generator checkpoint in {model}")
    generator, _, _ = load_checkpoint(gen_path)
    _, standardizer = _read_preprocessing(model)
    seed = args.seed if args.seed is not None else _default_seed()
    rng = substream(seed, "generate")
    target = args.class_index if args.target is None else _parse_float_list(args.target)
    samples = generate_samples(generator, target, args.count, rng)
    samples = standardizer.inverse(samples)
    out = Path(args.out)
    # the bytes csv.writer writes: no cell needs quoting, rows end in \r\n
    with open(out, "w", newline="") as handle:
        handle.write(",".join(f"ch{i}" for i in range(samples.shape[1])) + "\r\n")
        handle.writelines(",".join(map(repr, row)) + "\r\n" for row in samples.tolist())
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
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 2
    except (SpecError, DataError, ShapeError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
