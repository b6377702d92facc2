import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from stgan_nd import cli
from stgan_nd.errors import NumericError


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
