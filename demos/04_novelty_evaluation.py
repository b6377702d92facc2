#!/usr/bin/env python3
"""Threshold tuning and ROC comparison: plain supervised training versus
stochastic-target training on the same held-out class.

Mirrors the published comparison at demo scale: the one-hot baseline keeps
near-saturated scores on novel samples, while the stochastic-target model
leaves them detectable headroom.
"""
import numpy as np

from stgan_nd.experiments import evaluate_model, prepare_data, train_variant
from stgan_nd.gan import PATIENCE, BaselineConfig
from stgan_nd.synth import SynthSpec, make_synthetic_dataset

ds = make_synthetic_dataset(SynthSpec(seed=0))
prep = prepare_data(ds, [7], seed=1)
baseline_config = BaselineConfig()

rows = []
for variant in ("baseline_a", "test_1a"):  # supervised variants: they read no GanConfig
    model = train_variant(prep, variant, None, baseline_config, seed=1)
    evaluation = evaluate_model(model.network, prep, [0.95, 0.90])
    rows.append((variant, evaluation))
    print(f"{variant}: trained in {len(model.history)} epochs "
          f"(early stopping, patience {PATIENCE})")

print(f"\n{'variant':<12} {'tau':>20} {'GCA%':>7} {'NDA%':>7} {'bal%':>7} {'wgt%':>7}")
for variant, evaluation in rows:
    for row in evaluation.rows:
        print(f"{variant:<12} {row.tau!r:>20} {100 * row.gca:>7.1f} "
              f"{100 * row.nda:>7.1f} {100 * row.mean_balanced:>7.1f} "
              f"{100 * row.mean_weighted:>7.1f}")
    print(f"{variant:<12} AUC {evaluation.auc:.3f}")

print("\nreading the table: at tau=0 nothing is ever rejected (NDA 0 by")
print("construction); tuning then trades a little trained-class accuracy")
print("for novelty detection, and the stochastic-target variant gets a far")
print("better trade than the saturated baseline")
