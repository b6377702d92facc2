"""The stgan-nd benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload train-gan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Every workload drives the
``stgan-nd`` command line (``src/`` on ``PYTHONPATH``) in child processes,
checks their outputs with ``checks.py`` and prints one JSON object as its
last line: ``correct``, ``attempted`` and ``failed`` operations (one per
command in a measured round) and ``metrics``. With ``--trace 0`` those are
the end-to-end metrics of the chosen workload, from untraced commands;
with ``--trace 1`` they are the per-layer metrics of a traced pass over
every workload (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# The checks' own numpy runs on one BLAS thread, so that no idle BLAS thread
# of this process spins while a measured command runs. Commands get an
# environment without the BLAS variables (Runner).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracing.py"
RUNS = BENCH / "runs"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Trace, load_spans  # noqa: E402

ENTRY = "import sys; from stgan_nd.cli import main; sys.exit(main())"
# cleared for every command, so that the program's own thread choice is measured
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS", "STGAN_ND_SEED")
PROBE = r"""
import ctypes, json, numpy, stgan_nd
lib = next((l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l), None)
threads = config = None
if lib:
    so = ctypes.CDLL(lib)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(so, f"{prefix}_get_num_threads{suffix}", None)
            cfg = getattr(so, f"{prefix}_get_config{suffix}", None)
            if get is not None and threads is None:
                get.restype, get.argtypes = ctypes.c_int, []
                threads = get()
            if cfg is not None and config is None:
                cfg.restype, cfg.argtypes = ctypes.c_char_p, []
                config = cfg().decode()
print(json.dumps({"package": stgan_nd.__file__, "numpy": numpy.__version__,
                  "openblas_threads": threads, "blas": config}))
"""

SYNTH_SEED = 0            # the DualMyo-shaped reference set: 8 classes x 110 x 16
NOVEL = "7"
N_TRAINED = 7
SETUPS = 3                # set-ups per run; setup_s is their median
TRAIN_EPOCHS = 50         # the GAN's checkpoint cadence, so periodic checkpoints are written
EVAL_EPOCHS = 6
# one evaluate job at a time: with 2 jobs the pool workers' spinning OpenBLAS
# threads make identical rounds take 4 to 13 s (see README.md)
EVAL_JOBS = 1
MODEL_EPOCHS = 5          # the model sample-distances reads
COMMAND_TIMEOUT_S = 120   # a hung command is killed and counted as failed
# distances --n-generated: its (8000, 110, 16) float64 broadcast makes that
# command the largest process of a sample-distances round
DISTANCE_ROWS = 8000
VARIANTS = ("baseline_a", "test_1a", "test_2", "test_3")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, a set-up command failed)."""


@dataclass
class Command:
    args: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    processes: int
    returncode: int


def _descendants(pid: int) -> set[int]:
    found, todo = set(), [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{p}/task/{tid}/children") as handle:
                    kids = {int(k) for k in handle.read().split()}
            except OSError:
                continue
            todo += list(kids - found)
            found |= kids
    return found


class Runner:
    """Starts ``stgan-nd`` commands and measures each one's process tree."""

    def __init__(self, log: Path):
        self.log = log
        self.env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        self.env["PYTHONPATH"] = str(SRC)

    def cli(self, args: list, cwd: Path, spans: Path | None = None) -> Command:
        args = [str(a) for a in args]
        start_ns = time.perf_counter_ns()
        if spans is None:
            argv = [sys.executable, "-c", ENTRY, *args]
        else:
            argv = [sys.executable, str(TRACER), str(spans), str(start_ns), "--", *args]
        with open(self.log, "a") as out:
            out.write(f"$ stgan-nd {' '.join(args)}\n")
            out.flush()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            seen, done = {proc.pid}, threading.Event()

            def watch():
                while not done.wait(0.05):
                    seen.update(_descendants(proc.pid))
                    if time.perf_counter_ns() - start_ns > COMMAND_TIMEOUT_S * 1e9:
                        os.killpg(proc.pid, signal.SIGKILL)  # the command and its workers
                        break

            watcher = threading.Thread(target=watch)
            watcher.start()
            try:
                # wait4 reports the user+sys time and peak RSS of the command
                # together with every descendant it reaped (the pool workers)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                wall = (time.perf_counter_ns() - start_ns) / 1e9
                done.set()
                watcher.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Command(args, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss * 1024 / 1e6, len(seen), proc.returncode)

    def probe(self) -> dict:
        out = subprocess.run([sys.executable, "-c", PROBE], env=self.env, capture_output=True,
                             text=True, timeout=60, check=False)
        if out.returncode != 0:
            raise BenchError(f"cannot import stgan_nd from {SRC}: {out.stderr.strip()}")
        env = json.loads(out.stdout)
        if not Path(env.pop("package")).resolve().is_relative_to(SRC.resolve()):
            raise BenchError("stgan_nd was not imported from this checkout's src/")
        env["nproc"] = os.cpu_count()
        return env


def _dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


@dataclass
class Round:
    commands: list[Command] = field(default_factory=list)
    values: dict = field(default_factory=dict)   # workload-specific end-to-end values
    output_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    error: str | None = None


class Workload:
    """One set of inputs. ``setup`` makes what a round reads; ``run_round``
    runs the measured commands and checks their outputs."""

    name = ""
    # rows per generate: small enough that the training command keeps the peak RSS
    sample_rows = 2000
    sampled_classes = 3   # generate commands per round: this many classes, then a mixture
    min_rounds = 1

    def __init__(self, runner: Runner, seed: int):
        self.runner, self.seed = runner, seed
        # the benchmark's own draws (which targets to sample) come from the seed too
        rng = np.random.default_rng(seed)
        classes = [int(c) for c in rng.choice(N_TRAINED, size=self.sampled_classes,
                                               replace=False)]
        mixture = rng.dirichlet(np.ones(N_TRAINED))
        self.targets = [np.eye(N_TRAINED)[c] for c in classes] + [mixture]
        self.target_args = [["--class", c] for c in classes] + [
            ["--target", ",".join(repr(float(p)) for p in mixture)]]
        self.setup_pairs_per_s: list[float] = []
        self.verified: dict[str, object] = {}

    def setup(self, sdir: Path, spans: Path | None = None) -> None:
        sdir.mkdir(parents=True)
        self.dataset = sdir / "data.csv"
        self._setup_cmd(["synth", "--out", self.dataset, "--seed", SYNTH_SEED], sdir, spans)
        self.ds = checks.Dataset(self.dataset, self.seed)

    def _setup_cmd(self, args, cwd, spans) -> Command:
        cmd = self.runner.cli(args, cwd, spans)
        if cmd.returncode != 0:
            raise BenchError(f"set-up command failed ({cmd.returncode}): {' '.join(cmd.args)}")
        return cmd

    def run_round(self, rdir: Path, spans: Path | None = None) -> Round:
        rdir.mkdir(parents=True)
        steps = self.steps(rdir)
        result = Round(attempted=len(steps))
        for args in steps:
            cmd = self.runner.cli(args, rdir, spans)
            result.commands.append(cmd)
            if cmd.returncode != 0:
                # later commands read this one's output: count them failed too
                result.failed = len(steps) - len(result.commands) + 1
                break
        else:
            try:
                result.values = self.check(rdir, result.commands)
            except checks.CheckError as exc:
                result.error = str(exc)
                print(f"check failed: {exc}", file=sys.stderr)
        result.output_mb = _dir_mb(rdir)
        return result

    def data_args(self) -> list:
        return ["--dataset", self.dataset, "--novel-classes", NOVEL, "--seed", self.seed]

    def once(self, paths: list[Path], check, *args):
        """Run ``check(*args)`` unless outputs byte-identical to ``paths`` were
        checked before: every round repeats the same commands on the same
        inputs, so only an output that changed needs checking again."""
        digest = hashlib.sha256()
        for path in paths:
            for f in sorted(path.rglob("*")) if path.is_dir() else [path]:
                if f.is_file() and f.name != "manifest.json":
                    digest.update(f.name.encode() + f.read_bytes())
        key = f"{check.__name__}:{digest.hexdigest()}"
        if key not in self.verified:
            self.verified[key] = check(*args)
        return self.verified[key]

    def sample_steps(self, model) -> list[list]:
        return [["generate", "--model", model, *target, "-n", self.sample_rows,
                 "--seed", self.seed, "--out", f"samples{i}.csv"]
                for i, target in enumerate(self.target_args)]

    def check_samples(self, rdir: Path, model: Path, commands: list[Command]) -> float:
        """Check every generate output; generated rows per second of their wall time."""
        rows = sum(self.once([rdir / f"samples{i}.csv", model / "generator.json"],
                             checks.generated, rdir / f"samples{i}.csv", model, target,
                             self.sample_rows, self.seed)
                   for i, target in enumerate(self.targets))
        return rows / sum(c.wall_s for c in commands[-len(self.targets):])

    def quality(self, model: Path) -> dict:
        return self.once([model / "discriminator.json", model / "preprocessing.json"],
                         self._quality, model)

    def _quality(self, model: Path) -> dict:
        scores = checks.Scores(model, self.ds)
        return {"novelty_auc": scores.auc()[0], "nda_at_gca95": scores.nda_at(0.95)}

    def steps(self, rdir: Path) -> list[list]:
        raise NotImplementedError

    def check(self, rdir: Path, commands: list[Command]) -> dict:
        raise NotImplementedError


class TrainGan(Workload):
    """train test_2 for 50 epochs, distances on its generator, then sample it."""

    name = "train-gan"
    # one round per run: eight 10000-row generates steady its rows_per_s (2000-row
    # ones are mostly interpreter start-up); they, not train, set its peak_rss_mb
    sampled_classes = N_TRAINED
    sample_rows = 10000

    def steps(self, rdir):
        return [
            ["train", *self.data_args(), "--variant", "test_2", "--epochs", TRAIN_EPOCHS,
             "--out", "model"],
            ["distances", *self.data_args(), "--model", "model", "--out", "distances"],
            *self.sample_steps("model"),
        ]

    def check(self, rdir, commands):
        model = rdir / "model"
        epochs = checks.losses(model / "losses.csv", TRAIN_EPOCHS)
        for net in ("generator", "discriminator"):
            checks.require((model / "checkpoints" / f"{net}_e{TRAIN_EPOCHS:04d}.json").is_file(),
                           f"no periodic {net} checkpoint")
        self.once([rdir / "distances"], checks.distances, rdir / "distances" / "distances.csv",
                  self.ds)
        return {"step_pairs_per_s": epochs * self.ds.steps_per_epoch / commands[0].wall_s,
                "rows_per_s": self.check_samples(rdir, model, commands), **self.quality(model)}


class EvaluateMatrix(Workload):
    """The four-variant evaluate, one variant at a time, then sample test_2."""

    name = "evaluate-matrix"
    min_rounds = 3

    def steps(self, rdir):
        return [
            ["evaluate", *self.data_args(), "--variants", ",".join(VARIANTS),
             "--target-gca", "0.95,0.90", "--jobs", EVAL_JOBS, "--epochs", EVAL_EPOCHS,
             "--out", "eval"],
            *self.sample_steps("eval/test_2"),
        ]

    def check(self, rdir, commands):
        report = json.loads((rdir / "eval" / "report.json").read_text())
        checks.require([r["variant"] for r in report] == list(VARIANTS),
                       f"report variants {[r['variant'] for r in report]}")
        pairs = 0
        for result in report:
            vdir = rdir / "eval" / result["variant"]
            self.once([vdir, rdir / "eval" / "report.json"], checks.variant_report,
                      result, vdir, self.ds, EVAL_EPOCHS)
            if result["variant"] in ("test_2", "test_3"):
                pairs += checks.losses(vdir / "losses.csv", EVAL_EPOCHS) * self.ds.steps_per_epoch
        test_2 = report[VARIANTS.index("test_2")]
        return {"step_pairs_per_s": pairs / commands[0].wall_s,
                "rows_per_s": self.check_samples(rdir, rdir / "eval" / "test_2", commands),
                "novelty_auc": test_2["auc"], "nda_at_gca95": test_2["rows"][1]["nda"]}


class SampleDistances(Workload):
    """The read path on a model made in set-up: large generates, then distances."""

    name = "sample-distances"
    sample_rows = 10000
    min_rounds = 3

    def setup(self, sdir, spans=None):
        super().setup(sdir, spans)
        self.model = sdir / "model"
        train = self._setup_cmd(["train", *self.data_args(), "--variant", "test_2",
                                 "--epochs", MODEL_EPOCHS, "--out", self.model], sdir, spans)
        self.setup_pairs_per_s.append(MODEL_EPOCHS * self.ds.steps_per_epoch / train.wall_s)

    def steps(self, rdir):
        return [
            ["distances", *self.data_args(), "--model", self.model,
             "--n-generated", DISTANCE_ROWS, "--out", "distances"],
            *self.sample_steps(self.model),
        ]

    def check(self, rdir, commands):
        self.once([rdir / "distances"], checks.distances, rdir / "distances" / "distances.csv",
                  self.ds)
        return {"rows_per_s": self.check_samples(rdir, self.model, commands),
                "step_pairs_per_s": statistics.median(self.setup_pairs_per_s),
                **self.quality(self.model)}


WORKLOADS = {w.name: w for w in (TrainGan, EvaluateMatrix, SampleDistances)}
# end-to-end metrics, as named in BENCHMARK.json
UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "output_mb": "MB",
         "step_pairs_per_s": "1/s", "rows_per_s": "rows/s", "novelty_auc": "1"}


def _fresh(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def measure(workload: Workload, runner: Runner, seconds: int, out: Path) -> dict:
    """Untraced run: several set-ups, then whole rounds until ``seconds`` pass."""
    setup_times = []
    for i in range(SETUPS):
        start = time.perf_counter()
        workload.setup(out / f"setup{i}")
        setup_times.append(time.perf_counter() - start)
    rounds, begin = [], time.perf_counter()
    # whole rounds only: start another one while it is expected to end in time
    while (len(rounds) < workload.min_rounds
           or (time.perf_counter() - begin) * (len(rounds) + 1) / len(rounds) <= seconds):
        rdir = out / f"round{len(rounds)}"
        rounds.append(workload.run_round(rdir))
        shutil.rmtree(rdir)
        line = {k: round(v, 4) for k, v in rounds[-1].values.items()}
        print(f"{workload.name} round {len(rounds)}: "
              f"{sum(c.wall_s for c in rounds[-1].commands):.2f} s {line}", flush=True)
    done = [r for r in rounds if r.values]
    metrics = {"setup_s": statistics.median(setup_times)}
    if done:
        metrics.update({
            "run_s": statistics.median(sum(c.wall_s for c in r.commands) for r in done),
            "cpu_s": statistics.median(sum(c.cpu_s for c in r.commands) for r in done),
            "peak_rss_mb": statistics.median(max(c.rss_mb for c in r.commands) for r in done),
            "output_mb": statistics.median(r.output_mb for r in done),
        })
        for key in done[0].values:
            metrics[key] = statistics.median(r.values[key] for r in done)
    return {
        "rounds": rounds,
        "metrics": metrics,
        "processes": sum(c.processes for r in rounds for c in r.commands),
    }


def traced_pass(name: str, runner: Runner, seed: int, out: Path) -> dict:
    """One traced set-up and round of every workload, plus an untraced round
    of the chosen one for the tracing overhead."""
    traces, rounds, processes = {}, [], 0
    for wname, cls in WORKLOADS.items():
        workload = cls(runner, seed)
        spans = _fresh(out / f"spans-{wname}")
        setup_spans = _fresh(out / f"spans-{wname}-setup")
        workload.setup(out / f"setup-{wname}", setup_spans / "s")
        traced = workload.run_round(out / f"round-{wname}", spans / "s")
        shutil.rmtree(out / f"round-{wname}")
        rounds.append(traced)
        processes += sum(c.processes for c in traced.commands)
        traces[wname] = Trace(load_spans(spans / "s"))
        traces[wname + ":setup"] = Trace(load_spans(setup_spans / "s"))
        print(f"{wname} traced round: {sum(c.wall_s for c in traced.commands):.2f} s, "
              f"{len(traces[wname].spans)} spans", flush=True)
        if wname == name:
            plain = workload.run_round(out / f"round-{wname}-untraced")
            shutil.rmtree(out / f"round-{wname}-untraced")
            rounds.append(plain)
            processes += sum(c.processes for c in plain.commands)
            overhead = (sum(c.wall_s for c in traced.commands)
                        - sum(c.wall_s for c in plain.commands))
    if any(r.failed or r.error for r in rounds):
        raise BenchError("a traced round failed; see commands.log")
    metrics = layers.metrics(traces, EVAL_JOBS)
    metrics["trace.overhead_s"] = overhead
    return {"rounds": rounds, "metrics": metrics, "processes": processes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stgan_nd" / "cli.py").is_file():
        print(f"error: no stgan-nd source tree at {SRC}", file=sys.stderr)
        return 2
    out = _fresh(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    runner = Runner(out / "commands.log")
    try:
        env = runner.probe()
        if args.trace:
            result = traced_pass(args.workload, runner, args.seed, out)
        else:
            workload = WORKLOADS[args.workload](runner, args.seed)
            result = measure(workload, runner, args.seconds, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rounds = result["rounds"]
    env["processes_started"] = result["processes"]
    env["rounds"] = len(rounds)
    print("environment: " + json.dumps(env), flush=True)
    units = layers.UNITS if args.trace else UNITS
    for key, value in result["metrics"].items():
        print(f"  {key:40s} {value:.6g} {units.get(key, '(not in BENCHMARK.json)')}")
    summary = {
        "correct": all(r.error is None for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()
                    if k in units},
    }
    (out / "result.json").write_text(json.dumps(
        {**summary, "environment": env, "all_metrics": result["metrics"]}, indent=1))
    for path in out.glob("setup*"):
        shutil.rmtree(path)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
