#!/usr/bin/env python3
"""Short adversarial run: watch the interleaved D/G losses, then compare
real, generated, and random samples with the set-distance metric.

A full-quality run uses 300 epochs (see the acceptance suite); this demo
trains 80 to stay quick while still producing a usable generator.
"""
import numpy as np

from stgan_nd.experiments import distance_tables, prepare_data
from stgan_nd.gan import BATCH_SIZE, LR_G, GanConfig, generate_samples, train_gan
from stgan_nd.synth import SynthSpec, make_synthetic_dataset

EPOCHS = 80

ds = make_synthetic_dataset(SynthSpec(seed=0))
prep = prepare_data(ds, [7], seed=1)
print(f"training data: {len(prep.y_train)} rows, {prep.n_classes} classes")

config = GanConfig(epochs=EPOCHS)
print(f"\ntraining the GAN for {EPOCHS} epochs (batch {BATCH_SIZE}, "
      f"lr_D {config.lr_d}, lr_G {LR_G})")
bundle = train_gan(prep.x_train, prep.y_train, prep.n_classes, config, seed=1)
for record in bundle.loss_history[:: max(EPOCHS // 8, 1)]:
    print(f"epoch {record.epoch:3d}: D {record.d_loss:.3f} "
          f"G-validity {record.g_validity:.3f} G-class {record.g_class:.3f}")

print("\n== per-class distance report (raw feature units) ==")
report = distance_tables(prep, bundle.generator, seed=1)
print(f"{'class':>5} {'baseline':>12} {'gan':>12} {'random':>12}")
for cls, row in sorted(report.per_class.items()):
    print(f"{cls:>5} {row.baseline[0]:>7.2f}±{row.baseline[1]:<4.2f}"
          f" {row.gan[0]:>7.2f}±{row.gan[1]:<4.2f}"
          f" {row.random[0]:>7.2f}±{row.random[1]:<4.2f}")
print("baseline = real-vs-real dispersion; a good generator approaches it,")
print("the per-class Gaussian sampler is the reference for a poor one")

print("\n== conditional generation, including an untrained mixture ==")
rng = np.random.default_rng(0)
for target in (0, 3):
    samples = prep.standardizer.inverse(
        generate_samples(bundle.generator, target, 200, rng)
    )
    print(f"class {target}: generated mean of first 4 channels "
          f"{np.round(samples.mean(axis=0)[:4], 2)}")
mixture = np.full(prep.n_classes, 1.0 / prep.n_classes)
invented = prep.standardizer.inverse(
    generate_samples(bundle.generator, mixture, 200, rng)
)
print(f"uniform mixture ('invented class'): mean of first 4 channels "
      f"{np.round(invented.mean(axis=0)[:4], 2)}")
