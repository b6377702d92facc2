"""Output checks, computed apart from the program.

Nothing here imports ``stgan_nd``. Checkpoints are parsed from their JSON
and run forward with plain numpy; AUC is a Mann-Whitney count over every
(novel, trained) pair; set distances are a row-by-row loop. The only
program conventions re-derived here are the documented ones the checks
need to find the right rows and draws: the stratified 60/20/20 split and
the named random substreams (``SeedSequence([seed, crc32(name)])``).
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from pathlib import Path

import numpy as np

NOVEL_CLASS = 7
BATCH_NORM_EPS = 1e-3  # the engine's BatchNorm epsilon; checkpoints do not store it
THRESHOLD_GRID = np.arange(1001) / 1000.0
CLOSE = dict(rtol=1e-9, atol=1e-9)


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of a CSV the program wrote."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    body = np.array([[float(c) if c != "" else math.nan for c in r] for r in rows[1:] if r])
    return rows[0], body.reshape(len(rows) - 1, len(rows[0]))


def substream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(name.encode())]))


class Dataset:
    """The feature CSV, split the way the documented 60/20/20 rule splits it."""

    def __init__(self, path: Path, seed: int):
        _, table = read_table(path)
        self.features = table[:, :-1]
        self.labels = table[:, -1].astype(int)
        trained = self.labels != NOVEL_CLASS
        self.trained_x = self.features[trained]
        self.trained_y = self.labels[trained]  # dense labels: 0..6 map to themselves
        self.novel_x = self.features[~trained]
        rng = substream(seed, "split")
        self.train_idx, self.test_idx = [], []
        for cls in sorted(set(self.trained_y.tolist())):
            idx = np.flatnonzero(self.trained_y == cls)
            n_hold = int(math.floor(0.2 * idx.size + 0.5))
            order = rng.permutation(idx)
            self.train_idx += order[:idx.size - 2 * n_hold].tolist()
            self.test_idx += order[idx.size - n_hold:].tolist()
        self.test_idx = np.sort(self.test_idx)

    @property
    def steps_per_epoch(self) -> int:
        return len(self.train_idx) // 16  # half of the batch of 32 per step


def _arrays(entry: dict) -> dict:
    return {k: np.array(v["values"], dtype=float).reshape(v["shape"])
            for k, v in entry["arrays"].items()}


def forward_infer(checkpoint: Path, inputs: list[np.ndarray]) -> list[np.ndarray]:
    """Inference-mode forward of a saved network: noise and dropout are the
    identity, batch norm uses the running statistics."""
    doc = json.loads(checkpoint.read_text())
    x = np.concatenate(inputs, axis=1)
    for layer in doc["layers"]:
        a = _arrays(layer)
        kind = layer["kind"]
        if kind == "dense":
            x = x @ a["weight"] + a["bias"]
        elif kind == "relu":
            x = np.where(x > 0.0, x, 0.0)
        elif kind == "batch_norm":
            x = a["gamma"] * (x - a["running_mean"]) / np.sqrt(a["running_var"] + BATCH_NORM_EPS) \
                + a["beta"]
        elif kind not in ("gaussian_noise", "dropout", "linear"):
            raise CheckError(f"{checkpoint}: unexpected layer kind {kind!r}")
    outputs = []
    for head in doc["heads"]:
        a = _arrays(head)
        z = x @ a["weight"] + a["bias"]
        if head["activation"] == "sigmoid":
            z = 1.0 / (1.0 + np.exp(-z))
        elif head["activation"] == "softmax":
            e = np.exp(z - z.max(axis=1, keepdims=True))
            z = e / e.sum(axis=1, keepdims=True)
        outputs.append(z)
    return outputs


def standardizer(model_dir: Path) -> tuple[np.ndarray, np.ndarray]:
    doc = json.loads((model_dir / "preprocessing.json").read_text())["standardizer"]
    return np.array(doc["mean"], dtype=float), np.array(doc["std"], dtype=float)


class Scores:
    """A saved discriminator's class probabilities on the test and novel rows."""

    def __init__(self, model_dir: Path, ds: Dataset):
        mean, std = standardizer(model_dir)
        x = np.concatenate([ds.trained_x[ds.test_idx], ds.novel_x])
        _, self.probs = forward_infer(model_dir / "discriminator.json", [(x - mean) / std])
        self.truth = np.concatenate([ds.trained_y[ds.test_idx], np.full(len(ds.novel_x), -1)])
        self.novel = self.truth < 0
        self.novelty = 1.0 - self.probs.max(axis=1)

    def auc(self) -> tuple[float, float]:
        """Mann-Whitney AUC (ties count one half) and the share of pairs whose
        scores lie within 1e-12 of each other, where a last-bit difference
        between two forward passes can flip the order."""
        pos = self.novelty[self.novel][:, None]
        neg = self.novelty[~self.novel][None, :]
        wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
        near = (np.abs(pos - neg) <= 1e-12).sum()
        return float(wins / pos.size / neg.size), float(near / pos.size / neg.size)

    def accuracies(self, tau: float) -> tuple[float, float]:
        """(GCA, NDA) when rows whose top probability is below tau become "others"."""
        top = self.probs.max(axis=1)
        accepted = top >= tau
        hit = accepted & (self.probs.argmax(axis=1) == self.truth)
        return float(hit[~self.novel].mean()), float((~accepted[self.novel]).mean())

    def nda_at(self, target_gca: float) -> float:
        """NDA at the threshold tuned for ``target_gca``: the highest NDA over
        the 0.001 grid among thresholds with GCA >= target or, when none
        reaches it, among those whose GCA is closest to the target."""
        gca, nda = np.array([self.accuracies(tau) for tau in THRESHOLD_GRID]).T
        feasible = gca >= target_gca - 1e-12
        if not feasible.any():
            gap = np.abs(gca - target_gca)
            feasible = gap == gap.min()
        return float(nda[feasible].max())


def losses(path: Path, epochs: int | None) -> int:
    """Rows of a loss history: epochs 1..n in order, every value finite.
    With ``epochs`` given, exactly that many rows."""
    _, table = read_table(path)
    require(bool(np.isfinite(table).all()), f"{path}: non-finite loss")
    require(table[:, 0].tolist() == list(range(1, len(table) + 1)), f"{path}: epochs not 1..n")
    if epochs is not None:
        require(len(table) == epochs, f"{path}: {len(table)} rows for {epochs} epochs")
    return len(table)


def variant_report(result: dict, variant_dir: Path, ds: Dataset, epochs: int) -> Scores:
    """Check one variant of ``report.json`` against its saved discriminator."""
    variant = result["variant"]
    scores = Scores(variant_dir, ds)
    auc, near = scores.auc()
    require(abs(auc - result["auc"]) <= near + 1e-12,
            f"{variant}: report AUC {result['auc']} vs Mann-Whitney {auc}")
    n_test, n_novel = int((~scores.novel).sum()), int(scores.novel.sum())
    for row in result["rows"]:
        c = row["counts"]
        require(c["correct_trained"] + c["wrong_trained"] + c["trained_as_others"] == n_test,
                f"{variant}: trained counts do not sum to {n_test}")
        require(c["novel_as_others"] + c["novel_as_class"] == n_novel,
                f"{variant}: novel counts do not sum to {n_novel}")
    require(result["rows"][0]["tau"] == 0.0 and result["rows"][0]["nda"] == 0.0,
            f"{variant}: tau=0 row has NDA {result['rows'][0]['nda']}")
    for row in result["rows"][1:]:
        gca, nda = scores.accuracies(row["tau"])
        top = scores.probs.max(axis=1)
        if not np.any(np.abs(top - row["tau"]) <= 1e-12):
            require(math.isclose(gca, row["gca"]) and math.isclose(nda, row["nda"]),
                    f"{variant}: at tau {row['tau']} GCA/NDA {row['gca']}/{row['nda']} "
                    f"vs {gca}/{nda}")
    _, roc = read_table(variant_dir / "roc.csv")
    require(tuple(roc[0, :2]) == (0.0, 0.0) and tuple(roc[-1, :2]) == (1.0, 1.0),
            f"{variant}: ROC does not run from (0,0) to (1,1)")
    require(bool((np.diff(roc[:, :2], axis=0) >= 0).all()), f"{variant}: ROC not monotone")
    gan = variant in ("test_2", "test_3")
    losses(variant_dir / "losses.csv", epochs if gan else None)
    if variant == "test_3":
        losses(variant_dir / "retrain_losses.csv", None)
    return scores


def distances(path: Path, ds: Dataset) -> None:
    """Baseline column against a brute-force real-vs-real mean L2 per class,
    self pair excluded; GAN and random columns finite and positive."""
    header, table = read_table(path)
    col = {name: i for i, name in enumerate(header)}
    classes = sorted(set(ds.trained_y.tolist()))
    require(table[:, 0].astype(int).tolist() == classes, f"{path}: classes {table[:, 0]}")
    for row in table:
        real = ds.trained_x[ds.trained_y == int(row[0])]
        per_row = np.empty(len(real))
        for i in range(len(real)):
            d = np.sqrt(((real - real[i]) ** 2).sum(axis=1))
            per_row[i] = (d.sum() - d[i]) / (len(real) - 1)
        require(bool(np.allclose([per_row.mean(), per_row.std()],
                                 [row[col["baseline_mean"]], row[col["baseline_std"]]], **CLOSE)),
                f"{path}: class {int(row[0])} baseline {row[1:3]} vs "
                f"{per_row.mean()}, {per_row.std()}")
        for name in ("gan_mean", "gan_std", "random_mean", "random_std"):
            value = row[col[name]]
            require(math.isfinite(value) and value > 0, f"{path}: {name} = {value}")


def generated(path: Path, model_dir: Path, target: np.ndarray, n: int, seed: int) -> int:
    """Rows of ``generate`` against an independent forward of the saved
    generator on the same latent draws, mapped back to feature units."""
    _, rows = read_table(path)
    doc = json.loads((model_dir / "generator.json").read_text())
    latent = doc["spec"]["input_widths"][0]
    z = substream(seed, "generate").standard_normal((n, latent))
    (out,) = forward_infer(model_dir / "generator.json", [z, np.repeat(target[None], n, axis=0)])
    mean, std = standardizer(model_dir)
    require(rows.shape == out.shape, f"{path}: shape {rows.shape}, expected {out.shape}")
    require(bool(np.allclose(rows, out * std + mean, **CLOSE)),
            f"{path}: rows differ from the independent generator forward")
    return len(rows)


def main(argv: list[str]) -> int:
    """Print the independent figures the checks compare against for one
    dataset and one trained run directory."""
    dataset, model, seed = Path(argv[0]), Path(argv[1]), int(argv[2])
    ds = Dataset(dataset, seed)
    scores = Scores(model, ds)
    print(f"test rows {len(ds.test_idx)}, novel rows {len(ds.novel_x)}, "
          f"train rows {len(ds.train_idx)}")
    print(f"novelty AUC (Mann-Whitney) {scores.auc()[0]!r}")
    print(f"NDA at GCA >= 0.95 {scores.nda_at(0.95)!r}")
    print("class,baseline_mean,baseline_std")
    for cls in sorted(set(ds.trained_y.tolist())):
        real = ds.trained_x[ds.trained_y == cls]
        per_row = [(np.sqrt(((real - r) ** 2).sum(axis=1)).sum()) / (len(real) - 1) for r in real]
        print(f"{cls},{np.mean(per_row)!r},{np.std(per_row)!r}")
    return 0


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 4:
        print("usage: python3 perfbench/checks.py DATASET_CSV RUN_DIR SEED", file=sys.stderr)
        sys.exit(1)
    sys.exit(main(sys.argv[1:]))
