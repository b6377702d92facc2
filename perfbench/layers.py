"""Per-layer metrics from the spans of one traced pass over every workload.

Each metric is taken on the workload that exercises its layer (the map in
README.md): the training hot path on train-gan, the variants and
threshold tuning on evaluate-matrix, checkpoint loads, inference, CSV and
distances on sample-distances, dataset writing in set-up. Per-call
timings are medians; ``_p99`` variants are given where the traced round
makes over a thousand calls.
"""

from __future__ import annotations

import statistics

from tracing import Trace, duration_ns

TRAIN, EVAL, READ = "train-gan", "evaluate-matrix", "sample-distances"
VARIANTS = ("baseline_a", "test_1a", "test_2", "test_3")
LAYER_CLASSES = {"dense": "Dense", "batch_norm": "BatchNorm", "relu": "ReLU",
                 "dropout": "Dropout", "gaussian_noise": "GaussianNoise",
                 "sigmoid": "Sigmoid", "softmax": "Softmax"}
TRAINING_BATCH = 32
SCALE = {"s": 1e9, "ms": 1e6, "us": 1e3}


def _unit(name: str) -> str:
    base = name[:-4] if name.endswith("_p99") else name
    suffix = base.rsplit("_", 1)[-1]
    return suffix if suffix in SCALE else "count"


_TIMED_P99 = (
    ["gan.d_step_ms", "gan.g_step_ms"]
    + [f"nn.network.{n}_ms" for n in ("d_forward_train", "g_forward_train", "d_backward",
                                       "g_backward", "grad_flat")]
    + [f"nn.layers.{k}_{d}_us" for k in LAYER_CLASSES for d in ("fwd", "bwd")]
    + ["nn.losses.step_ms", "nn.adam.d_step_ms", "nn.adam.g_step_ms"]
)
NAMES = (
    ["cli.startup_ms", "cli.worker_busy_share", "cli.generate_write_ms",
     "experiments.prepare_data_calls", "experiments.prepare_data_ms"]
    + [f"experiments.train_variant_s.{v}" for v in VARIANTS]
    + ["experiments.evaluate_model_ms", "experiments.distance_tables_ms",
       "gan.train_gan_calls", "gan.train_gan_s", "gan.train_baseline_s",
       "gan.train_baseline_epochs", "gan.augment_offline_ms", "gan.generate_samples_ms",
       "nn.network.forward_infer_ms",
       "nn.checkpoint.save_calls", "nn.checkpoint.save_ms", "nn.checkpoint.save_mb",
       "nn.checkpoint.load_ms", "nn.checkpoint.load_mb",
       "data.load_dataset_ms", "data.save_dataset_ms",
       "evaluate.pairwise_set_distance_ms", "evaluate.distance_pairs",
       "evaluate.tune_threshold_ms", "evaluate.roc_auc_ms", "evaluate.compute_gca_nda_ms",
       "synth.make_synthetic_dataset_ms", "synth.gaussian_baseline_sampler_ms"]
    + [n for name in _TIMED_P99 for n in (name, name + "_p99")]
)
UNITS = {name: _unit(name) for name in NAMES}
UNITS.update({"cli.worker_busy_share": "1", "nn.checkpoint.save_mb": "MB",
              "nn.checkpoint.load_mb": "MB", "trace.overhead_s": "s"})
UNITS.update({f"experiments.train_variant_s.{v}": "s" for v in VARIANTS})


def _median(values_ns, unit: str) -> float:
    values = list(values_ns)
    if not values:
        raise ValueError("no spans to time")
    return statistics.median(values) / SCALE[unit]


def _p99(values_ns, unit: str) -> float:
    return statistics.quantiles(list(values_ns), n=100)[98] / SCALE[unit]


def metrics(traces: dict[str, Trace], jobs: int) -> dict[str, float]:
    """Every per-layer metric in ``NAMES``, from the per-workload traces
    (``<workload>`` for its round, ``<workload>:setup`` for its set-up);
    ``jobs`` is the evaluate-matrix ``--jobs``."""
    train, ev, read = traces[TRAIN], traces[EVAL], traces[READ]
    setup = traces[TRAIN + ":setup"]
    out: dict[str, float] = {}
    timed: dict[str, list[int]] = {}

    def per_call(name: str, spans) -> None:
        timed[name] = [duration_ns(s) for s in spans]

    # training hot path: spans under gan.train_gan of the train-gan round
    in_gan = [s for s in train.spans if train.has_ancestor(s, "gan.train_gan")]
    d_steps = [s for s in in_gan if s["name"] == "gan.train_discriminator_step"]
    g_steps = [s for s in in_gan if s["name"] == "gan.train_generator_step"]
    per_call("gan.d_step_ms", d_steps)
    per_call("gan.g_step_ms", g_steps)

    def network(method: str, n_inputs: int, mode: str | None):
        return [s for s in in_gan if s["name"] == f"nn.network.Network.{method}"
                and s["attrs"].get("n_inputs") == n_inputs
                and s["attrs"].get("batch") == TRAINING_BATCH
                and (mode is None or s["attrs"].get("mode") == mode)]

    per_call("nn.network.d_forward_train_ms", network("forward", 1, "train"))
    per_call("nn.network.g_forward_train_ms", network("forward", 2, "train"))
    per_call("nn.network.d_backward_ms", network("backward", 1, None))
    per_call("nn.network.g_backward_ms", network("backward", 2, None))
    per_call("nn.network.grad_flat_ms", [s for s in in_gan
                                         if s["name"] == "nn.network.Gradients.flat"])
    for kind, cls in LAYER_CLASSES.items():
        for short, method in (("fwd", "forward"), ("bwd", "backward")):
            per_call(f"nn.layers.{kind}_{short}_us",
                     [s for s in in_gan if s["name"] == f"nn.layers.{cls}.{method}"
                      and s["attrs"].get("batch") == TRAINING_BATCH])
    timed["nn.losses.step_ms"] = [
        sum(duration_ns(c) for c in train.child_spans(step) if c["name"].startswith("nn.losses."))
        for step in d_steps + g_steps
    ]
    for tag, steps in (("d", d_steps), ("g", g_steps)):
        per_call(f"nn.adam.{tag}_step_ms",
                 [c for step in steps for c in train.child_spans(step)
                  if c["name"] == "nn.adam.adam_step"])

    saves = train.named("nn.checkpoint.save_checkpoint")
    out["nn.checkpoint.save_calls"] = len(saves)
    per_call("nn.checkpoint.save_ms", saves)
    out["nn.checkpoint.save_mb"] = statistics.median(s["attrs"]["bytes"] for s in saves) / 1e6

    # evaluate-matrix: the evaluation jobs, the variants and the evaluation tables
    main = ev.named("cli.main")[0]
    start = ev.named("cli.startup")[0]
    out["cli.worker_busy_share"] = (sum(duration_ns(j) for j in ev.named("cli._evaluate_one"))
                                    / (jobs * (main["end"] - start["start"])))
    prepares = ev.named("experiments.prepare_data")
    out["experiments.prepare_data_calls"] = len(prepares)
    per_call("experiments.prepare_data_ms", prepares)
    for variant in VARIANTS:
        spans = [s for s in ev.named("experiments.train_variant")
                 if s["attrs"].get("variant") == variant]
        per_call(f"experiments.train_variant_s.{variant}", spans)
    per_call("experiments.evaluate_model_ms", ev.named("experiments.evaluate_model"))
    gans = ev.named("gan.train_gan")
    out["gan.train_gan_calls"] = len(gans)
    per_call("gan.train_gan_s", gans)
    baselines = ev.named("gan.train_baseline")
    per_call("gan.train_baseline_s", baselines)
    out["gan.train_baseline_epochs"] = sum(s["attrs"]["epochs"] for s in baselines)
    per_call("gan.augment_offline_ms", ev.named("gan.augment_offline"))
    for name in ("tune_threshold", "roc_auc", "compute_gca_nda"):
        per_call(f"evaluate.{name}_ms", ev.named(f"evaluate.{name}"))

    # sample-distances: the read path
    per_call("cli.startup_ms", read.named("cli.startup"))
    timed["cli.generate_write_ms"] = [read.self_ns(s) for s in read.named("cli.cmd_generate")]
    per_call("experiments.distance_tables_ms", read.named("experiments.distance_tables"))
    per_call("gan.generate_samples_ms", read.named("gan.generate_samples"))
    per_call("nn.network.forward_infer_ms",
             [s for s in read.named("nn.network.Network.forward")
              if s["attrs"].get("mode") == "infer"])
    loads = read.named("nn.checkpoint.load_checkpoint")
    per_call("nn.checkpoint.load_ms", loads)
    out["nn.checkpoint.load_mb"] = statistics.median(s["attrs"]["bytes"] for s in loads) / 1e6
    per_call("data.load_dataset_ms", read.named("data.load_dataset"))
    distances = read.named("evaluate.pairwise_set_distance")
    per_call("evaluate.pairwise_set_distance_ms", distances)
    out["evaluate.distance_pairs"] = sum(s["attrs"]["pairs"] for s in distances)
    per_call("synth.gaussian_baseline_sampler_ms", read.named("synth.gaussian_baseline_sampler"))

    # set-up
    per_call("data.save_dataset_ms", setup.named("data.save_dataset"))
    per_call("synth.make_synthetic_dataset_ms", setup.named("synth.make_synthetic_dataset"))

    for name, values in timed.items():
        unit = UNITS[name]
        out[name] = _median(values, unit)
        if name in _TIMED_P99:
            out[name + "_p99"] = _p99(values, unit)
    return out
