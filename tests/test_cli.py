import base64
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgan_nd import cli
from stgan_nd.data import stochastic_target_batch
from stgan_nd.errors import NumericError, SpecError
from stgan_nd.evaluate import pairwise_set_distance
from stgan_nd.experiments import distance_tables, prepare_data
from stgan_nd.gan import GAN_PEAKS, GENERATOR_HIDDEN, VARIANTS, GanConfig, generate_samples
from stgan_nd.nn import INFER_BLOCK_ROWS, AdamState, load_checkpoint, save_checkpoint
from stgan_nd.nn.checkpoint import FORMAT_V1, FORMAT_V2
from stgan_nd.rng import substream
from stgan_nd.rundir import ENVIRONMENT, RunDir, clear_evaluation
from stgan_nd.synth import SynthSpec, make_synthetic_dataset


def run_cli(*args):
    return cli.main([str(a) for a in args])


SMALL_DATA = ["--synth-spec", "5,24,6", "--synth-seed", "3", "--novel-classes", "4"]
FAST = ["--epochs", "3", "--seed", "7"]


def test_synth_default_writes_880_rows(tmp_path):
    out = tmp_path / "data.csv"
    assert run_cli("synth", "--out", out) == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 881
    assert rows[0] == ",".join([f"ch{i}" for i in range(16)] + ["label"])


def test_synth_spec_flag_and_seed(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run_cli("synth", "--out", a, "--spec", "4,10,3", "--seed", "1") == 0
    assert run_cli("synth", "--out", b, "--spec", "4,10,3", "--seed", "2") == 0
    assert run_cli("synth", "--out", c, "--spec", "4,10,3", "--seed", "1") == 0
    assert len(a.read_text().strip().split("\n")) == 41
    assert a.read_text() != b.read_text()  # seed changes content
    assert a.read_text() == c.read_text()  # deterministically
    assert b.read_text().count("\n") == a.read_text().count("\n")  # not shape


def test_train_baseline_outputs_and_manifest_replay(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", *SMALL_DATA, "--variant", "baseline_a", *FAST,
                   "--out", out) == 0
    for name in ("manifest.json", "losses.csv", "discriminator.json", "preprocessing.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["variant"] == "baseline_a"
    assert manifest["seed"] == 7
    first = (out / "losses.csv").read_bytes()

    replay = tmp_path / "replay"
    assert run_cli("train", "--manifest", out / "manifest.json", "--out", replay) == 0
    assert (replay / "losses.csv").read_bytes() == first


def test_batch_size_reaches_supervised_training(tmp_path, monkeypatch):
    import stgan_nd.experiments as experiments

    sizes = []
    real = experiments.train_baseline

    def recorded(*args, **kwargs):
        sizes.append(args[5].batch_size)  # (x, y, x_val, y_val, n_classes, config)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "train_baseline", recorded)
    out = tmp_path / "run"
    assert run_cli("train", *SMALL_DATA, "--variant", "baseline_a", *FAST,
                   "--batch-size", "8", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["gan"]["batch_size"] == manifest["baseline"]["batch_size"] == 8
    assert sizes == [8]


def test_train_gan_variant_writes_generator_and_loss_columns(tmp_path):
    out = tmp_path / "gan"
    assert run_cli("train", *SMALL_DATA, "--variant", "test_2", *FAST,
                   "--batch-size", "8", "--latent-size", "3", "--out", out) == 0
    assert (out / "generator.json").exists()
    with open(out / "losses.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["epoch", "d_loss", "g_validity", "g_class"]
    assert len(rows) == 4  # header + 3 epochs


def test_evaluate_two_variants(tmp_path):
    out = tmp_path / "eval"
    code = run_cli("evaluate", *SMALL_DATA, *FAST, "--batch-size", "8",
                   "--latent-size", "3", "--variants", "baseline_a,test_2",
                   "--target-gca", "0.9,0.8", "--out", out)
    assert code == 0
    with open(out / "accuracy.csv") as handle:
        rows = list(csv.reader(handle))
    header, table = rows[0], rows[1:]
    assert header[0] == "variant"
    assert [r[0] for r in table] == ["baseline_a", "test_2"]
    others_at_zero = header.index("tau0_others")
    for row in table:
        assert row[others_at_zero] == "0.0"  # tau=0 never rejects
    assert header[-1] == "auc"
    for row in table:
        assert 0.0 <= float(row[-1]) <= 1.0
    report = json.loads((out / "report.json").read_text())
    assert {entry["variant"] for entry in report} == {"baseline_a", "test_2"}
    for variant in ("baseline_a", "test_2"):
        with open(out / variant / "roc.csv") as handle:
            roc_rows = list(csv.reader(handle))
        assert roc_rows[0] == ["fpr", "tpr", "threshold"]
        assert len(roc_rows) > 2


def test_generate_from_trained_model(tmp_path):
    model = tmp_path / "model"
    assert run_cli("train", *SMALL_DATA, "--variant", "test_2", *FAST,
                   "--batch-size", "8", "--latent-size", "3", "--out", model) == 0
    samples = tmp_path / "samples.csv"
    assert run_cli("generate", "--model", model, "--class", "2", "-n", "9",
                   "--seed", "5", "--out", samples) == 0
    with open(samples) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [f"ch{i}" for i in range(6)]
    assert len(rows) == 10

    again = tmp_path / "again.csv"
    run_cli("generate", "--model", model, "--class", "2", "-n", "9",
            "--seed", "5", "--out", again)
    assert again.read_text() == samples.read_text()

    # an explicit target vector (no trained argmax) is accepted
    mixture = tmp_path / "mix.csv"
    assert run_cli("generate", "--model", model, "--target", "0.25,0.25,0.25,0.25",
                   "-n", "4", "--seed", "1", "--out", mixture) == 0
    assert len(mixture.read_text().strip().split("\n")) == 5


def test_distances_with_and_without_model(tmp_path, capsys):
    out = tmp_path / "dist"
    assert run_cli("distances", *SMALL_DATA, "--seed", "7", "--out", out) == 0
    assert "GAN column omitted" in capsys.readouterr().err
    with open(out / "distances.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:3] == ["class", "baseline_mean", "baseline_std"]
    assert len(rows) == 5  # header + 4 trained classes
    assert all(row[3] == "" for row in rows[1:])  # gan column empty

    model = tmp_path / "model"
    run_cli("train", *SMALL_DATA, "--variant", "test_2", *FAST,
            "--batch-size", "8", "--latent-size", "3", "--out", model)
    out2 = tmp_path / "dist2"
    assert run_cli("distances", *SMALL_DATA, "--seed", "7", "--model", model,
                   "--out", out2) == 0
    with open(out2 / "distances.csv") as handle:
        rows = list(csv.reader(handle))
    assert all(row[3] != "" for row in rows[1:])


DISTANCES_KEYS = ["command", "dataset", "channels", "synth", "novel_classes", "seed",
                  "model", "generator_sha256", "n_generated", ENVIRONMENT]


def test_distances_manifest_records_its_command_model_and_row_count(tmp_path, capsys):
    model = tmp_path / "model"
    assert run_cli("train", *GAN_SMALL, "--variant", "test_2", "--epochs", "3",
                   "--out", model) == 0
    out = tmp_path / "dist"
    assert run_cli("distances", *SMALL_DATA, "--seed", "7", "--model", model,
                   "--n-generated", "30", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == DISTANCES_KEYS and manifest["command"] == "distances"
    assert manifest["model"] == str(model.resolve())
    assert manifest["n_generated"] == 30
    # without a generator there is no GAN column, and no model behind it
    bare = tmp_path / "bare"
    assert run_cli("distances", *SMALL_DATA, "--seed", "7", "--out", bare) == 0
    manifest = json.loads((bare / "manifest.json").read_text())
    assert list(manifest) == DISTANCES_KEYS
    assert manifest["model"] is None and manifest["n_generated"] is None
    assert manifest["generator_sha256"] is None


def test_distances_manifest_names_the_generator_by_its_digest(tmp_path, capsys):
    model = tmp_path / "model"
    digests = []
    for seed in ("7", "8"):  # the same model directory, retrained
        assert run_cli("train", *SMALL_DATA, "--seed", seed, "--batch-size", "8",
                       "--latent-size", "3", "--variant", "test_2", "--epochs", "2",
                       "--out", model) == 0
        out = tmp_path / f"dist{seed}"
        assert run_cli("distances", *SMALL_DATA, "--seed", "7", "--model", model,
                       "--n-generated", "20", "--out", out) == 0
        digest = json.loads((out / "manifest.json").read_text())["generator_sha256"]
        assert digest == hashlib.sha256((model / "generator.json").read_bytes()).hexdigest()
        digests.append(digest)
    assert digests[0] != digests[1]


def test_distances_parses_its_data_flags_only():
    args = cli.build_parser().parse_args(["distances", *SMALL_DATA, "--out", "d"])
    for name in ("variant", "preset", "epochs", "batch_size", "latent_size", "target_gca"):
        assert not hasattr(args, name), name
    for command in ("train", "evaluate"):
        args = cli.build_parser().parse_args([command, *SMALL_DATA, "--out", "d"])
        assert (args.variant, args.preset) == ("test_2", "dualmyo")
    # the target GCAs are an evaluate setting, not a training one
    assert not hasattr(cli.build_parser().parse_args(["train", "--out", "d"]), "target_gca")
    args = cli.build_parser().parse_args(["evaluate", *SMALL_DATA, "--out", "d"])
    assert args.target_gca == [0.95, 0.90]


def test_train_manifest_of_a_distances_run_exits_one_before_writing(tmp_path, capsys):
    out = tmp_path / "dist"
    assert run_cli("distances", *SMALL_DATA, "--seed", "7", "--out", out) == 0
    code, err = _error_exit(capsys, "train", "--manifest", out / "manifest.json",
                            "--out", tmp_path / "x")
    assert code == 1 and err.startswith("error: ") and "'distances'" in err
    assert not (tmp_path / "x").exists()


def test_distances_manifest_without_its_command_exits_one_naming_the_training_keys(
        tmp_path, capsys):
    # a distances manifest records no training, so it cannot pass for a training run's
    out = tmp_path / "dist"
    assert run_cli("distances", *SMALL_DATA, "--seed", "7", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["command"]
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest))
    code, err = _error_exit(capsys, "train", "--manifest", edited, "--out", tmp_path / "x")
    assert code == 1 and err.startswith("error: ")
    assert "lacks 'variant', 'gan', 'baseline'" in err
    assert not (tmp_path / "x").exists()


def test_train_and_evaluate_manifests_hold_their_config_and_environment_only(tmp_path):
    out = tmp_path / "eval"
    assert run_cli("evaluate", *SMALL_DATA, *FAST, "--variants", "baseline_a",
                   "--out", out) == 0
    names = [f.name for f in fields(cli.RunConfig)]
    evaluated = names.index("variant")  # the root records what it evaluated in its place
    root_keys = names[:evaluated] + ["variants", "target_gca"] + names[evaluated + 1:]
    for path, keys in ((out / "baseline_a" / "manifest.json", names),
                       (out / "manifest.json", root_keys)):
        text = path.read_text()
        manifest = json.loads(text)
        assert list(manifest) == keys + [ENVIRONMENT]
        assert text == json.dumps(manifest, indent=1)
    replay = json.loads((out / "baseline_a" / "manifest.json").read_text())
    config = cli.RunConfig.from_manifest(replay)
    assert RunDir(out / "baseline_a").matches(config, _small_prep(7))


def test_validation_errors_exit_one(tmp_path):
    assert run_cli("train", "--novel-classes", "4", "--out", tmp_path / "x") == 1
    assert run_cli("train", "--dataset", tmp_path / "missing.csv",
                   "--novel-classes", "0", "--out", tmp_path / "x") == 1
    # novel set covering every class is rejected
    assert run_cli("train", "--synth-spec", "3,10,4", "--novel-classes", "0,1,2",
                   "--out", tmp_path / "x") == 1
    # argparse-level misuse also lands on exit code 1
    assert run_cli("train", *SMALL_DATA, "--variant", "test_9",
                   "--out", tmp_path / "x") == 1


def test_numeric_divergence_exits_two(monkeypatch, tmp_path):
    def explode(args):
        raise NumericError("loss went NaN")

    monkeypatch.setitem(cli._COMMANDS, "train", explode)
    assert run_cli("train", *SMALL_DATA, "--out", tmp_path / "x") == 2


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "123")
    out = tmp_path / "run"
    assert run_cli("train", *SMALL_DATA, "--variant", "baseline_a",
                   "--epochs", "2", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 123
    assert manifest["gan"]["seed"] == 123


def test_generate_without_preprocessing_exits_one(tmp_path, capsys):
    model = tmp_path / "model"
    assert run_cli("train", *SMALL_DATA, "--variant", "test_2", *FAST,
                   "--batch-size", "8", "--latent-size", "3", "--out", model) == 0
    (model / "preprocessing.json").unlink()
    capsys.readouterr()
    assert run_cli("generate", "--model", model, "--class", "1", "-n", "3",
                   "--out", tmp_path / "s.csv") == 1
    assert capsys.readouterr().err.startswith("error: ")
    (model / "preprocessing.json").write_text("{}")  # parses, but has no standardizer
    assert run_cli("generate", "--model", model, "--class", "1", "-n", "3",
                   "--out", tmp_path / "s.csv") == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_train_manifest_missing_file_exits_one(tmp_path, capsys):
    assert run_cli("train", "--manifest", tmp_path / "nope.json", "--out", tmp_path / "x") == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_train_manifest_malformed_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text('{"dataset": null, "seed": ')
    assert run_cli("train", "--manifest", bad, "--out", tmp_path / "x") == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_train_manifest_lacking_a_key_exits_one(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", *SMALL_DATA, "--variant", "baseline_a", "--epochs", "1",
                   "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["dataset"]
    bad = tmp_path / "lacking.json"
    bad.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("train", "--manifest", bad, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dataset" in err


def test_manifest_records_environment_and_replay_ignores_it(tmp_path):
    from stgan_nd.blas import openblas

    out = tmp_path / "run"
    assert run_cli("train", *SMALL_DATA, "--variant", "test_2", *FAST,
                   "--batch-size", "8", "--latent-size", "3", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    env = manifest["environment"]
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    lib = openblas()
    if lib is not None:
        assert env["blas"] == lib.config
        assert env["training_blas_threads"] == 1
    manifest["environment"] = {"numpy": "0.0", "training_blas_threads": 64}
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest))
    replay = tmp_path / "replay"
    assert run_cli("train", "--manifest", edited, "--out", replay) == 0
    assert (replay / "losses.csv").read_bytes() == (out / "losses.csv").read_bytes()


def test_evaluate_retrains_when_the_stored_manifest_differs(tmp_path):
    common = [*SMALL_DATA, "--seed", "7", "--batch-size", "8", "--latent-size", "3",
              "--variants", "test_2"]
    reused = tmp_path / "reused"
    assert run_cli("evaluate", *common, "--epochs", "6", "--out", reused) == 0
    long_model = (reused / "test_2" / "discriminator.json").read_bytes()
    assert run_cli("evaluate", *common, "--epochs", "2", "--out", reused) == 0
    fresh = tmp_path / "fresh"
    assert run_cli("evaluate", *common, "--epochs", "2", "--out", fresh) == 0

    assert (reused / "test_2" / "discriminator.json").read_bytes() != long_model
    manifest = json.loads((reused / "test_2" / "manifest.json").read_text())
    assert manifest["gan"]["epochs"] == 2
    auc = [json.loads((d / "report.json").read_text())[0]["auc"] for d in (reused, fresh)]
    assert auc[0] == auc[1]
    # the same configuration again reuses the trained model
    stamp = (reused / "test_2" / "discriminator.json").stat().st_mtime_ns
    assert run_cli("evaluate", *common, "--epochs", "2", "--out", reused) == 0
    assert (reused / "test_2" / "discriminator.json").stat().st_mtime_ns == stamp


def test_evaluate_reuses_every_model_when_only_the_target_gca_changes(tmp_path, capsys):
    # the target GCAs tune thresholds on a trained model; they are no part of it
    common = ["evaluate", *GAN_SMALL, "--epochs", "3",
              "--variants", "baseline_a,test_1a,test_2,test_3"]
    out = tmp_path / "eval"
    assert run_cli(*common, "--out", out) == 0
    models = {v: (out / v / "discriminator.json").read_bytes() for v in VARIANTS}
    capsys.readouterr()
    assert run_cli(*common, "--target-gca", "0.8", "--out", out) == 0
    assert "trained" not in capsys.readouterr().out
    for variant, model in models.items():
        assert (out / variant / "discriminator.json").read_bytes() == model, variant
    report = json.loads((out / "report.json").read_text())
    assert [result["targets"] for result in report] == [[0.8]] * len(VARIANTS)
    with open(out / "accuracy.csv") as handle:
        header = next(csv.reader(handle))
    assert "p0.8_tau" in header and "p0.95_tau" not in header
    assert json.loads((out / "manifest.json").read_text())["target_gca"] == [0.8]
    # the report of reused models is the report of a fresh run
    fresh = tmp_path / "fresh"
    assert run_cli(*common, "--target-gca", "0.8", "--out", fresh) == 0
    for name in ("report.json", "accuracy.csv"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
    # another training setting still retrains every variant
    capsys.readouterr()
    assert run_cli(*common, "--epochs", "4", "--target-gca", "0.8", "--out", out) == 0
    printed = capsys.readouterr().out
    assert [v for v in VARIANTS if f"{v}: trained" in printed] == list(VARIANTS)


def test_evaluate_reuses_a_model_whose_manifest_has_the_seed_last(tmp_path):
    # manifests written before the data config was split off record the seed
    # after the training configs; key order is not part of the configuration
    out = tmp_path / "eval"
    args = ["evaluate", *SMALL_DATA, *FAST, "--variants", "baseline_a", "--out", out]
    assert run_cli(*args) == 0
    path = out / "baseline_a" / "manifest.json"
    manifest = json.loads(path.read_text())
    earlier = {k: v for k, v in manifest.items() if k not in ("seed", ENVIRONMENT)}
    earlier = {**earlier, "seed": manifest["seed"], ENVIRONMENT: manifest[ENVIRONMENT]}
    assert list(earlier)[-2:] == ["seed", ENVIRONMENT] and list(manifest)[4] == "seed"
    path.write_text(json.dumps(earlier, indent=1))
    stamp = (out / "baseline_a" / "discriminator.json").stat().st_mtime_ns
    assert run_cli(*args) == 0
    assert (out / "baseline_a" / "discriminator.json").stat().st_mtime_ns == stamp


def _error_exit(capsys, *args):
    capsys.readouterr()
    code = run_cli(*args)
    return code, capsys.readouterr().err


def test_generate_negative_count_exits_one(tmp_path, capsys):
    model = tmp_path / "model"
    assert run_cli("train", *SMALL_DATA, "--variant", "test_2", *FAST,
                   "--batch-size", "8", "--latent-size", "3", "--out", model) == 0
    code, err = _error_exit(capsys, "generate", "--model", model, "--class", "1",
                            "-n", "-5", "--out", tmp_path / "s.csv")
    assert code == 1 and err.startswith("error: ")
    assert not (tmp_path / "s.csv").exists()


def test_distances_negative_n_generated_exits_one(tmp_path, capsys):
    code, err = _error_exit(capsys, "distances", *SMALL_DATA, "--seed", "7",
                            "--n-generated", "-3", "--out", tmp_path / "d")
    assert code == 1 and err.startswith("error: ")
    assert not (tmp_path / "d").exists()


def test_train_channel_out_of_range_exits_one(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--out", data, "--spec", "5,24,6", "--seed", "3") == 0
    code, err = _error_exit(capsys, "train", "--dataset", data, "--novel-classes", "4",
                            "--channels", "99", "--out", tmp_path / "x")
    assert code == 1 and err.startswith("error: ") and "99" in err


@pytest.mark.parametrize("channels", [["a"], [1.5, 2], 3, [True, 2]], ids=str)
def test_train_manifest_with_bad_channels_exits_one(tmp_path, capsys, channels):
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--out", data, "--spec", "5,24,6", "--seed", "3") == 0
    run = tmp_path / "run"
    assert run_cli("train", "--dataset", data, "--novel-classes", "4", "--channels", "0,2",
                   "--variant", "baseline_a", "--epochs", "1", "--out", run) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["channels"] = channels
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    code, err = _error_exit(capsys, "train", "--manifest", bad, "--out", tmp_path / "x")
    assert code == 1 and err.startswith("error: ") and "channels" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag,value", [("--mean-scale", "nan"), ("--within-std", "inf")])
def test_synth_with_a_non_finite_value_exits_one_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "sub" / "data.csv"
    code, err = _error_exit(capsys, "synth", flag, value, "--out", out)
    assert code == 1 and err.startswith("error: ") and "SynthSpec" in err
    assert not (tmp_path / "sub").exists()


def test_evaluate_names_its_variants_with_one_flag(capsys):
    with pytest.raises(SystemExit):
        cli.main(["evaluate", "--help"])
    usage = capsys.readouterr().out
    assert "--variants" in usage and not re.search(r"--variant\b", usage)
    assert cli.build_parser().parse_args(["evaluate", "--out", "e"]).variants == ["test_2"]


@pytest.mark.parametrize("args", [
    ["evaluate", *SMALL_DATA, *FAST, "--variant", "baseline_a"],
    ["train", *SMALL_DATA, "--variant", "baseline_a", "--epoch", "3"],
], ids=["evaluate --variant", "train --epoch"])
def test_a_prefix_of_a_long_flag_exits_one(tmp_path, capsys, args):
    code, err = _error_exit(capsys, *args, "--out", tmp_path / "x")
    assert code == 1 and err.startswith("error: ") and args[-2] in err
    assert not (tmp_path / "x").exists()


def test_evaluate_root_manifest_records_the_variants_it_evaluated(tmp_path, capsys):
    out = tmp_path / "eval"
    args = ["evaluate", *SMALL_DATA, *FAST, "--variants", "test_1a,baseline_a", "--out", out]
    assert run_cli(*args) == 0
    root = json.loads((out / "manifest.json").read_text())
    assert root["variants"] == ["test_1a", "baseline_a"] and "variant" not in root
    stamps = {}
    for variant in ("test_1a", "baseline_a"):
        manifest = json.loads((out / variant / "manifest.json").read_text())
        assert manifest["variant"] == variant and "variants" not in manifest
        stamps[variant] = (out / variant / "discriminator.json").stat().st_mtime_ns
    # each variant's manifest still matches its configuration: a rerun reuses both models
    assert run_cli(*args) == 0
    for variant, stamp in stamps.items():
        assert (out / variant / "discriminator.json").stat().st_mtime_ns == stamp
    # the root manifest names no single variant to replay
    code, err = _error_exit(capsys, "train", "--manifest", out / "manifest.json",
                            "--out", tmp_path / "x")
    assert code == 1 and err.startswith("error: ") and "lacks 'variant'" in err
    assert not (tmp_path / "x").exists()


def test_evaluate_with_no_variant_exits_one(tmp_path, capsys):
    code, err = _error_exit(capsys, "evaluate", *SMALL_DATA, *FAST, "--variants", ",",
                            "--out", tmp_path / "e")
    assert code == 1 and err.startswith("error: ")
    assert not (tmp_path / "e").exists()


def test_evaluate_with_a_repeated_variant_exits_one(tmp_path, capsys):
    code, err = _error_exit(capsys, "evaluate", *SMALL_DATA, *FAST,
                            "--variants", "baseline_a,baseline_a", "--jobs", "2",
                            "--out", tmp_path / "e")
    assert code == 1 and err.startswith("error: ") and "baseline_a" in err
    assert not (tmp_path / "e").exists()


def test_evaluate_with_zero_jobs_exits_one(tmp_path, capsys):
    code, err = _error_exit(capsys, "evaluate", *SMALL_DATA, *FAST,
                            "--variants", "baseline_a", "--jobs", "0",
                            "--out", tmp_path / "e")
    assert code == 1 and err.startswith("error: ")
    assert not (tmp_path / "e").exists()


def _count_gan_trainings(monkeypatch):
    import stgan_nd.experiments as experiments

    calls = []
    real = experiments.train_gan

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "train_gan", counted)
    return calls


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


GAN_SMALL = [*SMALL_DATA, "--seed", "7", "--batch-size", "8", "--latent-size", "3"]


def test_evaluate_trains_one_gan_for_test_2_and_test_3(tmp_path, monkeypatch):
    calls = _count_gan_trainings(monkeypatch)
    # 50 epochs is the checkpoint cadence, so periodic checkpoints are copied too
    out = tmp_path / "eval"
    assert run_cli("evaluate", *GAN_SMALL, "--epochs", "50",
                   "--variants", "test_2,test_3", "--out", out) == 0
    assert len(calls) == 1
    separate = tmp_path / "separate"
    assert run_cli("train", *GAN_SMALL, "--epochs", "50", "--variant", "test_3",
                   "--out", separate) == 0
    assert len(calls) == 2

    shared = _tree(out / "test_3")
    alone = _tree(separate)
    assert "checkpoints/generator_e0050.json" in alone
    for name in ("generator.json", "discriminator.json", "losses.csv",
                 "retrain_losses.csv", "preprocessing.json",
                 "checkpoints/generator_e0050.json", "checkpoints/discriminator_e0050.json"):
        assert shared[name] == alone[name], name
    assert set(shared) - {"roc.csv"} == set(alone)
    assert shared["losses.csv"] == (out / "test_2" / "losses.csv").read_bytes()


def test_evaluate_jobs_two_writes_what_jobs_one_writes(tmp_path):
    runs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert run_cli("evaluate", *GAN_SMALL, "--epochs", "3",
                       "--variants", "test_3,baseline_a,test_2", "--jobs", jobs,
                       "--out", out) == 0
        runs[jobs] = _tree(out)
    assert runs["1"] == runs["2"]
    report = json.loads(runs["1"]["report.json"])
    assert [entry["variant"] for entry in report] == ["test_3", "baseline_a", "test_2"]
    for name in ("accuracy.csv", "test_3/discriminator.json", "test_2/roc.csv"):
        assert name in runs["1"]


def test_evaluate_trains_test_3_beside_a_reused_test_2(tmp_path, monkeypatch):
    common = [*GAN_SMALL, "--epochs", "3"]
    out = tmp_path / "eval"
    assert run_cli("evaluate", *common, "--variants", "test_2", "--out", out) == 0
    stamp = (out / "test_2" / "discriminator.json").stat().st_mtime_ns
    calls = _count_gan_trainings(monkeypatch)
    assert run_cli("evaluate", *common, "--variants", "test_2,test_3", "--out", out) == 0
    assert len(calls) == 1  # test_3's own GAN; test_2 is reused
    assert (out / "test_2" / "discriminator.json").stat().st_mtime_ns == stamp
    fresh = tmp_path / "fresh"
    assert run_cli("evaluate", *common, "--variants", "test_3", "--out", fresh) == 0
    reused_auc = json.loads((out / "report.json").read_text())[1]["auc"]
    fresh_auc = json.loads((fresh / "report.json").read_text())[0]["auc"]
    assert reused_auc == fresh_auc


def test_train_removes_the_generator_of_an_earlier_gan_run(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", *GAN_SMALL, "--variant", "test_2", "--epochs", "4",
                   "--out", out) == 0
    assert (out / "generator.json").exists()
    assert run_cli("train", *GAN_SMALL, "--variant", "baseline_a", "--epochs", "2",
                   "--out", out) == 0
    assert not (out / "generator.json").exists()
    # so generate cannot sample a generator of another configuration
    code, err = _error_exit(capsys, "generate", "--model", out, "--class", "0",
                            "--out", tmp_path / "s.csv")
    assert code == 1 and err.startswith("error: ")


def test_train_removes_periodic_checkpoints_of_a_longer_run(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", *GAN_SMALL, "--variant", "test_2", "--epochs", "50",
                   "--out", out) == 0
    checkpoints = out / "checkpoints"
    assert sorted(p.name for p in checkpoints.iterdir()) == [
        "discriminator_e0050.json", "generator_e0050.json"]
    (checkpoints / "notes.txt").write_text("not a run file")
    assert run_cli("train", *GAN_SMALL, "--variant", "test_2", "--epochs", "3",
                   "--out", out) == 0
    assert sorted(p.name for p in checkpoints.iterdir()) == ["notes.txt"]


def test_channels_with_synth_spec_exits_one_before_writing(tmp_path, capsys):
    code, err = _error_exit(capsys, "train", *SMALL_DATA, "--channels", "0,1",
                            "--variant", "baseline_a", "--epochs", "1",
                            "--out", tmp_path / "x")
    assert code == 1 and err.startswith("error: ") and "--channels" in err
    assert not (tmp_path / "x").exists()


def test_train_manifest_with_channels_and_synth_exits_one(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", *SMALL_DATA, "--variant", "baseline_a", "--epochs", "1",
                   "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["channels"] = [0, 1]
    bad = tmp_path / "channels.json"
    bad.write_text(json.dumps(manifest))
    code, err = _error_exit(capsys, "train", "--manifest", bad, "--out", tmp_path / "x")
    assert code == 1 and err.startswith("error: ") and "--channels" in err
    assert not (tmp_path / "x").exists()


# the keys manifests of earlier versions hold beside the config: the fixed
# hyperparameters, each at its default before it was fixed
_RETIRED = {"gan": {"lr_g": 0.001, "adam_beta1": 0.5, "adam_beta2": 0.999, "decay_d": 1e-7,
                    "decay_g": 1e-6, "d_validity_weight": 1.0, "d_class_weight": 1.0,
                    "stochastic_p_low": 0.9, "stochastic_p_high": 1.0, "checkpoint_every": 50},
            "baseline": {"learning_rate": 0.01, "patience": 12, "p_low": 0.8, "p_high": 1.0,
                         "adam_beta1": 0.9, "adam_beta2": 0.999}}


def _earlier_manifest(out: Path, real_targets_stochastic) -> dict:
    # manifests written before these options were retired record them, and
    # the target GCAs of an evaluate
    manifest = json.loads((out / "manifest.json").read_text())
    assert "real_targets_stochastic" not in manifest["gan"] and "target_gca" not in manifest
    for block, retired in _RETIRED.items():
        assert not set(retired) & set(manifest[block]), block
        manifest[block].update(retired)
    manifest["gan"]["real_targets_stochastic"] = real_targets_stochastic
    manifest["target_gca"] = [0.95, 0.9]
    return manifest


def test_earlier_manifest_replays_to_the_same_files(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", *GAN_SMALL, "--variant", "test_3", "--epochs", "3",
                   "--out", out) == 0
    earlier = tmp_path / "earlier.json"
    earlier.write_text(json.dumps(_earlier_manifest(out, True), indent=1))
    replay = tmp_path / "replay"
    assert run_cli("train", "--manifest", earlier, "--out", replay) == 0
    # every file, the manifest too: replay drops the keys of earlier versions
    assert _tree(replay) == _tree(out)


def test_earlier_manifest_with_one_hot_real_targets_exits_one(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", *SMALL_DATA, "--variant", "baseline_a", "--epochs", "1",
                   "--out", out) == 0
    earlier = tmp_path / "earlier.json"
    earlier.write_text(json.dumps(_earlier_manifest(out, False)))
    code, err = _error_exit(capsys, "train", "--manifest", earlier, "--out", tmp_path / "x")
    assert code == 1 and err.startswith("error: ") and "real_targets_stochastic" in err
    assert not (tmp_path / "x").exists()


def test_earlier_manifest_with_baseline_stochastic_replays_to_the_same_losses(tmp_path):
    # manifests written before the field was retired record it in "baseline";
    # the variant alone decides the targets, whatever its value
    losses = {}
    for variant in ("baseline_a", "test_1a"):
        out = tmp_path / variant
        assert run_cli("train", *SMALL_DATA, "--variant", variant, *FAST, "--out", out) == 0
        losses[variant] = (out / "losses.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "stochastic" not in manifest["baseline"]
        for value in (True, False):
            manifest["baseline"]["stochastic"] = value
            earlier = tmp_path / "earlier.json"
            earlier.write_text(json.dumps(manifest, indent=1))
            replay = tmp_path / f"{variant}-{value}"
            assert run_cli("train", "--manifest", earlier, "--out", replay) == 0
            assert (replay / "losses.csv").read_bytes() == losses[variant]
            assert "stochastic" not in json.loads(
                (replay / "manifest.json").read_text())["baseline"]
    assert losses["baseline_a"] != losses["test_1a"]


def test_evaluate_retrains_after_a_failed_training(tmp_path, monkeypatch):
    import stgan_nd.experiments as experiments

    common = [*SMALL_DATA, "--seed", "7", "--variants", "baseline_a"]
    out = tmp_path / "eval"
    assert run_cli("evaluate", *common, "--epochs", "5", "--out", out) == 0

    def diverge(*args, **kwargs):
        raise NumericError("loss went NaN")

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "train_baseline", diverge)
        assert run_cli("evaluate", *common, "--epochs", "7", "--out", out) == 2
    # the failed run leaves no model of the earlier configuration behind
    assert not (out / "baseline_a" / "discriminator.json").exists()
    assert not (out / "baseline_a" / "preprocessing.json").exists()

    assert run_cli("evaluate", *common, "--epochs", "7", "--out", out) == 0
    fresh = tmp_path / "fresh"
    assert run_cli("evaluate", *common, "--epochs", "7", "--out", fresh) == 0
    auc = [json.loads((d / "report.json").read_text())[0]["auc"] for d in (out, fresh)]
    assert auc[0] == auc[1]


def test_evaluate_retrains_on_data_rewritten_at_the_same_path(tmp_path):
    # the configuration names the dataset by its path, so only the stored
    # preprocessing tells the rewritten data from the first
    data = tmp_path / "data.csv"
    common = ["--dataset", data, "--novel-classes", "4", "--variants", "baseline_a", *FAST]
    out = tmp_path / "eval"
    assert run_cli("synth", "--spec", "5,24,6", "--seed", "0", "--out", data) == 0
    assert run_cli("evaluate", *common, "--out", out) == 0
    first = (out / "baseline_a" / "discriminator.json").read_bytes()
    assert run_cli("synth", "--spec", "5,24,6", "--seed", "1", "--out", data) == 0
    assert run_cli("evaluate", *common, "--out", out) == 0
    fresh = tmp_path / "fresh"
    assert run_cli("evaluate", *common, "--out", fresh) == 0

    assert (out / "baseline_a" / "discriminator.json").read_bytes() != first
    for name in ("report.json", "accuracy.csv", "baseline_a/discriminator.json"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def test_a_failed_evaluate_leaves_no_report_of_an_earlier_one(tmp_path, monkeypatch):
    import stgan_nd.experiments as experiments

    common = [*SMALL_DATA, "--seed", "7", "--variants", "baseline_a"]
    out = tmp_path / "eval"
    assert run_cli("evaluate", *common, "--epochs", "3", "--out", out) == 0

    def diverge(*args, **kwargs):
        raise NumericError("loss went NaN")

    monkeypatch.setattr(experiments, "train_variant", diverge)
    assert run_cli("evaluate", *common, "--epochs", "4", "--out", out) == 2
    assert sorted(p.name for p in out.iterdir()) == ["baseline_a"]
    assert not (out / "baseline_a" / "discriminator.json").exists()


def test_clear_deletes_every_file_an_evaluate_writes(tmp_path):
    # 50 epochs is the checkpoint cadence, so periodic checkpoints are written
    # and copied too; a new output missing from the tables fails here
    out = tmp_path / "eval"
    assert run_cli("evaluate", *GAN_SMALL, "--epochs", "50",
                   "--variants", "test_2,test_3", "--out", out) == 0
    written = {p.relative_to(out) for p in out.rglob("*") if p.is_file()}
    assert Path("test_3/checkpoints/generator_e0050.json") in written
    assert Path("test_3/retrain_losses.csv") in written
    for variant in ("test_2", "test_3"):
        RunDir(out / variant).clear()
        assert [p for p in (out / variant).rglob("*") if p.is_file()] == [], variant
    clear_evaluation(out)
    assert sorted(p.name for p in out.iterdir()) == ["test_2", "test_3"]


def test_negative_synth_seed_exits_one(tmp_path, capsys):
    code, err = _error_exit(capsys, "synth", "--out", tmp_path / "d.csv", "--seed", "-1")
    assert code == 1 and err.startswith("error: ") and "seed" in err
    assert not (tmp_path / "d.csv").exists()
    code, err = _error_exit(capsys, "train", *SMALL_DATA, "--synth-seed", "-1",
                            "--variant", "baseline_a", "--epochs", "1",
                            "--out", tmp_path / "x")
    assert code == 1 and err.startswith("error: ") and "seed" in err


def test_non_integer_env_seed_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "seven")
    code, err = _error_exit(capsys, "synth", "--out", tmp_path / "d.csv")
    assert code == 1 and err.startswith("error: ") and cli.ENV_SEED in err


def test_distances_with_a_model_of_other_data_exits_one(tmp_path, capsys):
    model = tmp_path / "model"
    assert run_cli("train", *SMALL_DATA, "--variant", "test_2", *FAST,
                   "--batch-size", "8", "--latent-size", "3", "--out", model) == 0
    wider = ["--synth-spec", "5,24,8", "--synth-seed", "3", "--novel-classes", "4"]
    other_novel = ["--synth-spec", "5,24,6", "--synth-seed", "3", "--novel-classes", "3"]
    for data, key in ((wider, "n_features"), (other_novel, "class_map")):
        code, err = _error_exit(capsys, "distances", *data, "--seed", "7",
                                "--model", model, "--out", tmp_path / "d")
        assert code == 1 and err.startswith("error: ") and key in err
    (model / "preprocessing.json").unlink()
    code, err = _error_exit(capsys, "distances", *SMALL_DATA, "--seed", "7",
                            "--model", model, "--out", tmp_path / "d")
    assert code == 1 and err.startswith("error: ") and "preprocessing" in err


def test_distances_with_a_missing_model_directory_exits_one_before_writing(tmp_path, capsys):
    out = tmp_path / "d"
    code, err = _error_exit(capsys, "distances", *SMALL_DATA, "--seed", "7",
                            "--model", tmp_path / "missing", "--out", out)
    assert code == 1 and err.startswith("error: ") and "missing" in err
    assert not out.exists()
    # a directory without a generator leaves the GAN column empty, as documented
    model = tmp_path / "model"
    assert run_cli("train", *SMALL_DATA, "--variant", "baseline_a", *FAST, "--out", model) == 0
    code, err = _error_exit(capsys, "distances", *SMALL_DATA, "--seed", "7",
                            "--model", model, "--out", out)
    assert code == 0 and "GAN column omitted" in err
    with open(out / "distances.csv") as handle:
        assert all(row[3] == "" for row in list(csv.reader(handle))[1:])
    assert json.loads((out / "manifest.json").read_text())["model"] is None


@pytest.fixture(scope="module")
def small_gan(tmp_path_factory):
    """A 3-epoch test_2 run on SMALL_DATA, trained with --seed 7."""
    model = tmp_path_factory.mktemp("small_gan") / "model"
    assert run_cli("train", *GAN_SMALL, "--variant", "test_2", "--epochs", "3",
                   "--out", model) == 0
    return model


def test_generate_writes_the_bytes_of_csv_writer(small_gan, tmp_path):
    target = [0.4, 0.3, 0.2, 0.1]
    out = tmp_path / "samples.csv"
    assert run_cli("generate", "--model", small_gan, "--target", ",".join(map(str, target)),
                   "-n", "50", "--seed", "3", "--out", out) == 0

    generator, _, _ = load_checkpoint(small_gan / "generator.json")
    _, standardizer = RunDir(small_gan).load_generator()
    samples = standardizer.inverse(
        generate_samples(generator, target, 50, substream(3, "generate")))
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow([f"ch{i}" for i in range(samples.shape[1])])
    for row in samples:
        writer.writerow([repr(float(x)) for x in row])
    assert out.read_bytes() == reference.getvalue().encode()


def test_final_generator_holds_no_moments_but_periodic_files_do(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", *GAN_SMALL, "--variant", "test_2", "--epochs", "50",
                   "--out", out) == 0
    final = json.loads((out / "generator.json").read_text())
    assert final["optimizer"] is None
    for name in ("generator", "discriminator"):
        # model files stay v1; periodic files carry their moments as v2
        assert json.loads((out / f"{name}.json").read_text())["format"] == FORMAT_V1
        periodic = json.loads((out / "checkpoints" / f"{name}_e0050.json").read_text())
        assert periodic["format"] == FORMAT_V2
        moment = periodic["optimizer"]["first_moment"][0]
        values = np.frombuffer(base64.b64decode(moment["base64"], validate=True), dtype="<f8")
        assert values.size == np.prod(moment["shape"]) > 0 and values.any()
        assert periodic["optimizer"]["step_count"] > 0
    # the network itself is the one of the last periodic file
    last, _, _ = load_checkpoint(out / "checkpoints" / "generator_e0050.json")
    kept, _, _ = load_checkpoint(out / "generator.json")
    np.testing.assert_array_equal(kept.flat_parameters(), last.flat_parameters())
    for a, b in zip(kept.batch_norm_layers(), last.batch_norm_layers()):
        np.testing.assert_array_equal(a.running_mean, b.running_mean)
        np.testing.assert_array_equal(a.running_var, b.running_var)


def _small_prep(seed):
    dataset = make_synthetic_dataset(SynthSpec(n_classes=5, samples_per_class=24,
                                               n_features=6, seed=3))
    return prepare_data(dataset, [4], seed)


def test_distances_inverts_with_the_models_standardizer(small_gan, tmp_path):
    out = tmp_path / "seed8"
    assert run_cli("distances", *SMALL_DATA, "--seed", "8", "--model", small_gan,
                   "--n-generated", "30", "--out", out) == 0
    with open(out / "distances.csv") as handle:
        rows = list(csv.reader(handle))[1:]

    prep = _small_prep(8)
    generator, _, _ = load_checkpoint(small_gan / "generator.json")
    _, model_standardizer = RunDir(small_gan).load_generator()
    # another seed splits the data otherwise, so its standardizer differs
    assert not np.array_equal(model_standardizer.mean, prep.standardizer.mean)
    rng = substream(8, "distance")
    for cls, row in enumerate(rows):
        peaks = rng.uniform(*GAN_PEAKS, 30)
        targets = stochastic_target_batch(np.full(30, cls), prep.n_classes, peaks)
        generated = model_standardizer.inverse(generate_samples(generator, targets, 30, rng))
        dists = pairwise_set_distance(prep.raw_features[prep.raw_labels == cls], generated)
        assert row[3:5] == [repr(float(dists.mean())), repr(float(dists.std()))]

    # with the training seed the two standardizers are one, and the table is
    # the one inverted with the prepared data's own
    same = tmp_path / "seed7"
    assert run_cli("distances", *SMALL_DATA, "--seed", "7", "--model", small_gan,
                   "--n-generated", "30", "--out", same) == 0
    reference = tmp_path / "reference.csv"
    distance_tables(_small_prep(7), generator, 7, 30).to_csv(reference)
    assert (same / "distances.csv").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("target", ["nan,0,0,1", "0,inf,0,1", "0,0,-inf,1"])
def test_generate_non_finite_target_exits_one(small_gan, tmp_path, capsys, target):
    out = tmp_path / "s.csv"
    code, err = _error_exit(capsys, "generate", "--model", small_gan, "--target", target,
                            "-n", "3", "--out", out)
    assert code == 1 and err.startswith("error: ") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("target_gca", ["nan", "0.9,inf", "1.5", "-0.1"])
def test_evaluate_bad_target_gca_exits_one_before_training(tmp_path, capsys, target_gca):
    code, err = _error_exit(capsys, "evaluate", *SMALL_DATA, *FAST, "--variants", "baseline_a",
                            "--target-gca", target_gca, "--out", tmp_path / "e")
    assert code == 1 and err.startswith("error: ") and "target_gca" in err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("target_gca", [[float("nan")], [0.9, 1.5], ["0.9"], 0.9])
def test_train_manifest_with_a_bad_target_gca_exits_one(small_gan, tmp_path, capsys,
                                                        target_gca):
    manifest = json.loads((small_gan / "manifest.json").read_text())
    manifest["target_gca"] = target_gca
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))  # a NaN is written as the literal NaN
    code, err = _error_exit(capsys, "train", "--manifest", bad, "--out", tmp_path / "x")
    assert code == 1 and err.startswith("error: ") and "target_gca" in err
    assert not (tmp_path / "x").exists()


def _first_weights(doc) -> list:
    return doc["layers"][0]["arrays"]["weight"]["values"]


def _periodic_optimizer_with_a_bad_beta1(doc) -> None:
    n_params = sum(len(entry["values"]) for layer in doc["layers"] + doc["heads"]
                   for name, entry in layer["arrays"].items() if not name.startswith("running"))
    moment = [{"shape": [n_params], "values": [0.0] * n_params}]
    doc["optimizer"] = {"learning_rate": 0.001, "beta1": "x", "beta2": 0.999, "epsilon": 1e-7,
                        "decay": 0.0, "step_count": 1, "first_moment": moment,
                        "second_moment": moment}


def _resave_as_v2(model) -> None:
    """Save the model's generator again with optimizer state: a v2 file."""
    generator, _, seed = load_checkpoint(model / "generator.json")
    state = AdamState.for_params(generator.flat_parameters(), 0.001)
    state.first_moment[:] = 0.25
    save_checkpoint(model / "generator.json", generator, state, rng_seed=seed)


def _weights_entry(doc) -> dict:
    return doc["layers"][0]["arrays"]["weight"]


def _edit_v2_weights(edit):
    """A corruption that stores ``edit`` of the first weights of a v2 file."""
    def corrupt(doc):
        weights = np.frombuffer(base64.b64decode(_weights_entry(doc)["base64"]), dtype="<f8")
        _weights_entry(doc)["base64"] = base64.b64encode(edit(weights).tobytes()).decode()
    return corrupt


def _values_under_v2(doc) -> None:
    entry = _weights_entry(doc)
    entry["values"] = np.frombuffer(base64.b64decode(entry.pop("base64")), "<f8").tolist()


def _moment_of_another_size(doc) -> None:
    doc["optimizer"]["second_moment"] = [{"shape": [5],
                                          "base64": base64.b64encode(bytes(8 * 5)).decode()}]


# corruptions of a generator checkpoint (v1, or v2 re-saved with optimizer
# state), with what the error names
_BAD_GENERATORS = {
    "non-numeric": (False, lambda doc: _first_weights(doc).__setitem__(1, "0.5x"),
                    "checkpoint array"),
    "short": (False, lambda doc: _first_weights(doc).pop(), "checkpoint array"),
    "no-layers": (False, lambda doc: doc.pop("layers"), "'layers'"),
    "bad-beta1": (False, _periodic_optimizer_with_a_bad_beta1,
                  "optimizer.beta1 must be a number in [0, 1)"),
    "v2-outside-alphabet": (True, lambda doc: _weights_entry(doc).update(
        base64="*" + _weights_entry(doc)["base64"][1:]), "bad checkpoint array"),
    "v2-short": (True, _edit_v2_weights(lambda w: w[:-1]), "does not fit shape"),
    "v2-nan": (True, _edit_v2_weights(lambda w: np.r_[np.nan, w[1:]]), "finite"),
    "v2-values": (True, _values_under_v2, "'base64'"),
    "v2-tagged-v1": (True, lambda doc: doc.update(format=FORMAT_V1), "'values'"),
    "v2-moment-size": (True, _moment_of_another_size,
                       "optimizer.second_moment[0] has shape (5,)"),
}


@pytest.mark.parametrize("v2,corrupt,message", list(_BAD_GENERATORS.values()),
                         ids=list(_BAD_GENERATORS))
def test_checkpoint_with_bad_values_exits_one(small_gan, tmp_path, capsys, v2, corrupt,
                                              message):
    model = tmp_path / "model"
    shutil.copytree(small_gan, model)
    if v2:
        _resave_as_v2(model)
    doc = json.loads((model / "generator.json").read_text())
    assert doc["format"] == (FORMAT_V2 if v2 else FORMAT_V1)
    corrupt(doc)
    (model / "generator.json").write_text(json.dumps(doc))
    for args in (["generate", "--model", model, "--class", "1", "--out", tmp_path / "s.csv"],
                 ["distances", *SMALL_DATA, "--seed", "7", "--model", model,
                  "--out", tmp_path / "d"]):
        code, err = _error_exit(capsys, *args)
        assert code == 1 and err.startswith("error: ") and message in err
        assert "generator.json" in err
    assert not (tmp_path / "s.csv").exists()
    assert not (tmp_path / "d").exists()


def test_generate_from_a_v2_generator_writes_the_bytes_of_the_v1_one(small_gan, tmp_path):
    model = tmp_path / "model"
    shutil.copytree(small_gan, model)
    _resave_as_v2(model)
    assert json.loads((model / "generator.json").read_text())["format"] == FORMAT_V2
    for source, out in ((small_gan, tmp_path / "v1.csv"), (model, tmp_path / "v2.csv")):
        assert run_cli("generate", "--model", source, "--class", "1", "-n", "40",
                       "--seed", "5", "--out", out) == 0
    assert (tmp_path / "v2.csv").read_bytes() == (tmp_path / "v1.csv").read_bytes()


def test_standardizer_narrower_than_the_generator_exits_one(small_gan, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(small_gan, model)
    payload = json.loads((model / "preprocessing.json").read_text())
    for key in ("mean", "std"):
        payload["standardizer"][key] = payload["standardizer"][key][:3]
    (model / "preprocessing.json").write_text(json.dumps(payload))
    for args in (["generate", "--model", model, "--class", "1", "--out", tmp_path / "s.csv"],
                 ["distances", *SMALL_DATA, "--seed", "7", "--model", model,
                  "--out", tmp_path / "d"]):
        code, err = _error_exit(capsys, *args)
        assert code == 1 and err.startswith("error: ") and "standardizer widths 3" in err
    assert not (tmp_path / "s.csv").exists()
    assert not (tmp_path / "d").exists()


def _generate_and_distances(model: Path, tmp_path: Path) -> list[list]:
    return [["generate", "--model", model, "--class", "1", "--out", tmp_path / "s.csv"],
            ["distances", *SMALL_DATA, "--seed", "7", "--model", model,
             "--out", tmp_path / "d"]]


# spec values of the wrong type in a generator.json, each of which loaded
# before widths and noise settings were type-checked: (path in the spec,
# edit of the value there, the field the error names)
_BAD_SPEC_VALUES = {
    "input-width-string": (["input_widths", 0], str, "spec.input_widths[0]"),
    "input-width-float": (["input_widths", 0], lambda w: w + 0.5, "spec.input_widths[0]"),
    "head-width-string": (["output_heads", 0, 0], str, "spec.output_heads[0][0]"),
    "head-width-float": (["output_heads", 0, 0], lambda w: w + 0.5, "spec.output_heads[0][0]"),
    "stddev-bool": (["layers", 1, "stddev"], lambda _: True, "spec.layers[1].stddev"),
}


@pytest.mark.parametrize("path,edit,field", list(_BAD_SPEC_VALUES.values()),
                         ids=list(_BAD_SPEC_VALUES))
def test_generator_spec_value_of_the_wrong_type_exits_one(small_gan, tmp_path, capsys,
                                                          path, edit, field):
    model = tmp_path / "model"
    shutil.copytree(small_gan, model)
    doc = json.loads((model / "generator.json").read_text())
    *parents, key = path
    node = doc["spec"]
    for part in parents:
        node = node[part]
    node[key] = edit(node[key])
    (model / "generator.json").write_text(json.dumps(doc))
    for args in _generate_and_distances(model, tmp_path):
        code, err = _error_exit(capsys, *args)
        assert code == 1 and err.startswith("error: "), err
        assert "generator.json" in err and f"{field} must be" in err
    assert not (tmp_path / "s.csv").exists()
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("key,value", [("mean", "nan"), ("mean", "inf"), ("mean", "-inf"),
                                       ("std", "0.0"), ("std", "-1.0"), ("std", "nan"),
                                       ("std", "inf")])
def test_unusable_standardizer_exits_one(small_gan, tmp_path, capsys, key, value):
    model = tmp_path / "model"
    shutil.copytree(small_gan, model)
    payload = json.loads((model / "preprocessing.json").read_text())
    payload["standardizer"][key][2] = value
    (model / "preprocessing.json").write_text(json.dumps(payload))
    for args in _generate_and_distances(model, tmp_path):
        code, err = _error_exit(capsys, *args)
        assert code == 1 and err.startswith("error: "), err
        assert (f"{model / 'preprocessing.json'}: standardizer.{key}[2] must be the decimal "
                "string of a number") in err
    assert not (tmp_path / "s.csv").exists()
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("field,value", [
    ("seed", "x"), ("seed", True), ("seed", -1), ("seed", 1.5),
    ("variant", "zzz"), ("variant", None),
    ("novel_classes", "45"), ("novel_classes", []), ("novel_classes", [1.5]),
    ("novel_classes", [True]), ("dataset", []), ("synth", "x"), ("gan", []),
    ("gan.adam_beta1", "x"), ("gan.epochs", True), ("gan.latent_size", 2.5),
    ("gan.lr_g", None), ("baseline.adam_beta1", "x"), ("baseline.max_epochs", True),
    ("synth.n_classes", 5.0),
    ("synth.samples_per_class", True), ("synth.within_class_std", float("nan")),
    ("synth.cluster_mean_scale", float("inf")), ("synth", [5, 24, 6]),
    # keys of earlier manifests at another value than their fixed one
    ("gan.lr_g", 0.002), ("gan.adam_beta1", 0.6), ("gan.adam_beta2", 0.99),
    ("gan.decay_d", 0.0), ("gan.decay_g", 0.0), ("gan.d_validity_weight", 1.5),
    ("gan.d_validity_weight", True), ("gan.d_class_weight", 0.5),
    ("gan.stochastic_p_low", 0.8), ("gan.stochastic_p_high", 0.95),
    ("gan.checkpoint_every", 1), ("baseline.learning_rate", 0.02), ("baseline.patience", 5),
    ("baseline.p_low", 0.9), ("baseline.p_high", 0.95), ("baseline.adam_beta1", 0.5),
    ("baseline.adam_beta2", 0.99),
], ids=str)
def test_train_manifest_with_a_bad_field_exits_one(small_gan, tmp_path, capsys, field, value):
    manifest = json.loads((small_gan / "manifest.json").read_text())
    *parents, key = field.split(".")  # "gan.epochs" is manifest["gan"]["epochs"]
    node = manifest
    for parent in parents:
        node = node[parent]
    node[key] = value
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    code, err = _error_exit(capsys, "train", "--manifest", bad, "--out", tmp_path / "x")
    assert code == 1 and err.startswith(f"error: {bad}: {field}")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("novel", ["9", ","])
def test_evaluate_with_bad_data_exits_one_before_writing(tmp_path, capsys, novel):
    code, err = _error_exit(capsys, "evaluate", "--synth-spec", "5,24,6", "--novel-classes",
                            novel, *FAST, "--variants", "baseline_a,test_2", "--jobs", "2",
                            "--out", tmp_path / "e")
    assert code == 1 and err.startswith("error: ")
    assert not (tmp_path / "e").exists()
    code, err = _error_exit(capsys, "evaluate", "--dataset", tmp_path / "missing.csv",
                            "--novel-classes", novel, *FAST, "--out", tmp_path / "e")
    assert code == 1 and err.startswith("error: ")
    assert not (tmp_path / "e").exists()


def test_generate_memory_stays_within_blocks_and_its_output(small_gan, tmp_path):
    import tracemalloc

    n = 20_000
    out = tmp_path / "s.csv"
    args = cli.build_parser().parse_args(
        ["generate", "--model", str(small_gan), "--class", "1", "-n", str(n),
         "--seed", "0", "--out", str(out)])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert cli.cmd_generate(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text().count("\n") == n + 1
    generator, _, _ = load_checkpoint(small_gan / "generator.json")
    latent, n_classes = generator.spec.input_widths
    features = generator.spec.output_heads[0][0]
    # the (n, features) output, the latent and target inputs, and a few
    # block-sized buffers, with room for the checkpoint load; one
    # (n, 256) hidden array is 41 MB
    whole = n * (features + latent + n_classes) * 8
    block = INFER_BLOCK_ROWS * GENERATOR_HIDDEN * 8
    assert peak - before < whole + 8 * block < n * GENERATOR_HIDDEN * 8


def test_every_command_runs_on_one_blas_thread_and_restores_the_count(
        monkeypatch, tmp_path, capsys):
    from stgan_nd import blas

    lib = blas.openblas()
    if lib is None:
        pytest.skip("numpy is not using an OpenBLAS here")
    seen = []
    synth = cli._COMMANDS["synth"]

    def spy(args):
        seen.append(lib.get_num_threads())
        if args.spec[0] == 1:
            raise SpecError("one class")
        return synth(args)

    monkeypatch.setitem(cli._COMMANDS, "synth", spy)
    original = lib.get_num_threads()
    try:
        lib.set_num_threads(2)
        assert run_cli("synth", "--spec", "3,4,2", "--out", tmp_path / "d.csv") == 0
        assert lib.get_num_threads() == 2
        assert run_cli("synth", "--spec", "1,4,2", "--out", tmp_path / "e.csv") == 1
        assert lib.get_num_threads() == 2
    finally:
        lib.set_num_threads(original)
    assert seen == [1, 1]


# the variables that set a BLAS thread count, removed for a fresh interpreter
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(code: str, *args, **env) -> str:
    """stdout of ``code`` run by a new interpreter, which imports the package
    under test, with the BLAS variables removed from its environment."""
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    base["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, env={**base, **env}, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


_CLI_MAIN = "import sys; from stgan_nd.cli import main; sys.exit(main(sys.argv[1:]))"
_LOADED = ("multiprocessing", "concurrent.futures", "stgan_nd.experiments", "stgan_nd.evaluate")
# prints which of the modules in the format argument one command left loaded
_MODULES_AFTER_MAIN = ("import json, sys; from stgan_nd.cli import main; main(sys.argv[1:]); "
                       "print(json.dumps([m in sys.modules for m in {!r}]))")


def _loaded_after(modules: tuple, *args) -> dict:
    out = _fresh_python(_MODULES_AFTER_MAIN.format(modules), *args)
    return dict(zip(modules, json.loads(out.splitlines()[-1])))


def test_importing_the_cli_leaves_multiprocessing_unloaded(small_gan, tmp_path):
    probe = "import sys, stgan_nd.cli; print('multiprocessing' in sys.modules)"
    assert _fresh_python(probe).strip() == "False"
    # a command imports only what it runs: neither synth nor generate loads
    # the experiments or the evaluation
    for args in (["synth", "--spec", "3,4,2", "--out", tmp_path / "d.csv"],
                 ["generate", "--model", small_gan, "--class", "1", "-n", "4",
                  "--out", tmp_path / "s.csv"]):
        loaded = _loaded_after(_LOADED, *args)
        assert not any(loaded.values()), loaded
    # distances computes its sets on the calling thread: no pool, no logging
    loaded = _loaded_after(("multiprocessing", "concurrent.futures", "logging"), "distances",
                           *SMALL_DATA, "--model", small_gan, "--out", tmp_path / "dist")
    assert not any(loaded.values()), loaded


_THREADS_PROBE = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
import stgan_nd.cli
from stgan_nd.blas import openblas
status = open("/proc/self/status").read()
print(json.dumps({"threads": int(status.split("Threads:")[1].split()[0]),
                  "blas": openblas().get_num_threads(),
                  "variable": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def _threads_after_import(order: str, **env) -> dict:
    return json.loads(_fresh_python(_THREADS_PROBE, order, **env))


@pytest.fixture
def openblas_default_threads() -> int:
    """OpenBLAS's own thread count in a fresh interpreter; skips where a
    load-time pin could not be seen."""
    from stgan_nd.blas import openblas

    if openblas() is None:
        pytest.skip("numpy is not using an OpenBLAS here")
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc to count threads in")
    count = json.loads(_fresh_python(
        "import numpy; from stgan_nd.blas import openblas; print(openblas().get_num_threads())"))
    if count < 2:
        pytest.skip("OpenBLAS starts one thread on one CPU")
    return count


def test_importing_the_cli_starts_openblas_on_one_thread(openblas_default_threads):
    seen = _threads_after_import("cli-first")
    assert seen == {"threads": 1, "blas": 1, "variable": None}
    # a value set by the caller is put back after numpy loads
    seen = _threads_after_import("cli-first", OPENBLAS_NUM_THREADS="3")
    assert seen == {"threads": 1, "blas": 1, "variable": "3"}


def test_importing_the_cli_after_numpy_leaves_its_blas_as_it_is(openblas_default_threads):
    seen = _threads_after_import("numpy-first")
    assert seen["blas"] == openblas_default_threads and seen["variable"] is None
    assert seen["threads"] == openblas_default_threads


def test_fresh_commands_write_the_bytes_of_in_process_ones(small_gan, tmp_path):
    # a fresh process loads OpenBLAS on one thread; the test process pins
    # its already started OpenBLAS inside main
    model = tmp_path / "model"
    _fresh_python(_CLI_MAIN, "train", *GAN_SMALL, "--variant", "test_2", "--epochs", "3",
                  "--out", model)
    for name in ("losses.csv", "generator.json", "discriminator.json", "preprocessing.json"):
        assert (model / name).read_bytes() == (small_gan / name).read_bytes(), name
    generate = ["generate", "--model", small_gan, "--class", "1", "-n", "3000", "--seed", "4"]
    _fresh_python(_CLI_MAIN, *generate, "--out", tmp_path / "fresh.csv")
    assert run_cli(*generate, "--out", tmp_path / "here.csv") == 0
    assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


def test_generate_creates_the_directory_of_its_output(small_gan, tmp_path):
    out = tmp_path / "sub" / "deeper" / "s.csv"
    assert run_cli("generate", "--model", small_gan, "--class", "1", "-n", "4",
                   "--seed", "2", "--out", out) == 0
    flat = tmp_path / "s.csv"
    assert run_cli("generate", "--model", small_gan, "--class", "1", "-n", "4",
                   "--seed", "2", "--out", flat) == 0
    assert out.read_bytes() == flat.read_bytes()


# Corrupt JSON inputs: every command that reads one exits 1, says "error:"
# and leaves --out as it found it.

# replacements of another JSON type than the value they replace; no number,
# since a number and its decimal string load alike
_TYPE_SWAPS = ("x", [], {})


def _corrupt(data, doc, top_level_only: bool) -> None:
    """Delete a key, swap a value's type or nest a list one level deeper, at
    a drawn path of ``doc`` (in its first level only with ``top_level_only``)."""
    parent = doc
    while True:
        key = data.draw(st.sampled_from(list(parent) if isinstance(parent, dict)
                                        else range(len(parent))))
        node = parent[key]
        if (top_level_only or not isinstance(node, (dict, list)) or not node
                or data.draw(st.booleans())):
            break
        parent = node
    ops = ["swap"] + ["delete"] * isinstance(parent, dict) + ["nest"] * isinstance(node, list)
    op = data.draw(st.sampled_from(ops))
    if op == "delete":
        del parent[key]
    elif op == "nest":
        parent[key] = [node]
    else:
        parent[key] = data.draw(st.sampled_from(
            [v for v in _TYPE_SWAPS if type(v) is not type(node)]))


def _state(path: Path):
    if path.is_dir():
        return _tree(path)
    return path.read_bytes() if path.exists() else None


def _quiet_cli(*args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(*args)
    return code, err.getvalue()


@pytest.mark.parametrize("name", ["generator.json", "preprocessing.json", "manifest.json"])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_corrupt_json_input_exits_one_and_leaves_out_as_it_was(small_gan, name, data):
    """A manifest is corrupted in its first level only: a replay fills a key
    absent from its training configs with the default, as for manifests of
    earlier versions."""
    text = (small_gan / name).read_text()
    if data.draw(st.integers(0, 4)) == 0:
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    else:
        doc = json.loads(text)
        if name == "manifest.json":
            del doc["environment"]  # which a replay ignores
        _corrupt(data, doc, top_level_only=name == "manifest.json")
        text = json.dumps(doc)
    out_exists = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        model = root / "model"
        model.mkdir()
        for part in ("generator.json", "preprocessing.json"):
            shutil.copyfile(small_gan / part, model / part)
        (model / name).write_text(text)
        if name == "manifest.json":
            commands = [["train", "--manifest", model / name, "--out", root / "run"]]
        else:
            commands = [["generate", "--model", model, "--class", "1", "--out", root / "s.csv"],
                        ["distances", *SMALL_DATA, "--seed", "7", "--model", model,
                         "--out", root / "d"]]
        for args in commands:
            out = Path(args[-1])
            if out_exists and out.suffix == ".csv":
                out.write_text("earlier")
            elif out_exists:
                out.mkdir()
                (out / "earlier.txt").write_text("earlier")
            before = _state(out)
            code, err = _quiet_cli(*args)
            assert code == 1, (args[0], err)
            assert err.startswith("error: ") and "Traceback" not in err, err
            assert _state(out) == before


# a path that is a directory, a file, or holds bytes that are not text:
# (arguments, given tmp_path and the small_gan model; the path the error names)
def _path_fault_cases():
    def dataset_directory(tmp, model):
        (tmp / "data").mkdir()
        return ["train", "--dataset", tmp / "data", "--novel-classes", "1",
                "--out", tmp / "x"], tmp / "data"

    def dataset_not_text(tmp, model):
        (tmp / "data.csv").write_bytes(b"ch0,ch1,label\n1,2,\xff\xfe\n")
        return ["train", "--dataset", tmp / "data.csv", "--novel-classes", "1",
                "--out", tmp / "x"], tmp / "data.csv"

    def generate_out_directory(tmp, model):
        (tmp / "x").mkdir()
        return ["generate", "--model", model, "--class", "1", "--out", tmp / "x"], tmp / "x"

    def synth_out_directory(tmp, model):
        (tmp / "x").mkdir()
        return ["synth", "--out", tmp / "x"], tmp / "x"

    def train_out_file(tmp, model):
        (tmp / "x").write_text("kept")
        return ["train", *SMALL_DATA, "--epochs", "1", "--out", tmp / "x"], tmp / "x"

    def generator_not_text(tmp, model):
        shutil.copytree(model, tmp / "model")
        (tmp / "model" / "generator.json").write_bytes(b'{"format": "\xff\xfe"}')
        return ["generate", "--model", tmp / "model", "--class", "1", "--out", tmp / "s.csv"], \
            tmp / "model" / "generator.json"

    return {f.__name__.replace("_", "-"): f for f in (
        dataset_directory, dataset_not_text, generate_out_directory, synth_out_directory,
        train_out_file, generator_not_text)}


_PATH_FAULTS = _path_fault_cases()


@pytest.mark.parametrize("case", list(_PATH_FAULTS.values()), ids=list(_PATH_FAULTS))
def test_path_fault_exits_one_naming_the_path(small_gan, tmp_path, capsys, case):
    args, path = case(tmp_path, small_gan)
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    code, err = _error_exit(capsys, *args)
    assert code == 1 and err.startswith("error: ") and str(path) in err, err
    assert "Traceback" not in err
    # nothing written: no file appeared, and the file in the way is as it was
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
    if path.is_file() and path.name == "x":
        assert path.read_text() == "kept"


def test_uc2017_preset_scores_every_held_out_row_as_novel(tmp_path):
    out = tmp_path / "uc"
    assert run_cli("evaluate", "--synth-spec", "24,110,22", "--novel-classes", "19,20,21,22,23",
                   "--preset", "uc2017", "--epochs", "5", "--variants", "baseline_a,test_2",
                   "--seed", "1", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["variant"] for r in report] == ["baseline_a", "test_2"]
    for result in report:
        for row in result["rows"]:
            counts = row["counts"]
            # 5 held-out classes of 110 rows, each scored as a class or as novel
            assert counts["novel_as_class"] + counts["novel_as_others"] == 5 * 110
    spec = json.loads((out / "test_2" / "generator.json").read_text())["spec"]
    assert spec["input_widths"] == [23, 19]  # the preset's latent, and 19 trained classes
    gan = json.loads((out / "test_2" / "manifest.json").read_text())["gan"]
    assert gan == vars(GanConfig.uc2017(epochs=5, seed=1))
    assert (gan["latent_size"], gan["lr_d"]) == (23, 0.001)
    assert (gan["g_validity_weight"], gan["g_class_weight"]) == (1.1, 1.0)
