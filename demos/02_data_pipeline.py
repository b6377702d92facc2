#!/usr/bin/env python3
"""Data pipeline walk-through: synthesis, hold-out, splitting, standardization,
and the two target encodings."""
import numpy as np

from stgan_nd.data import (
    TRAIN,
    fit_standardizer,
    hold_out_novel,
    one_hot_batch,
    split_dataset,
    stochastic_target_batch,
)
from stgan_nd.synth import SynthSpec, make_synthetic_dataset

print("== synthetic stand-in for an 8-gesture feature dataset ==")
ds = make_synthetic_dataset(SynthSpec(seed=0))
print(f"{ds.n_samples} samples x {ds.n_features} features, "
      f"{ds.n_classes} classes")

print("\n== hold out class 7 as the novel pool ==")
hold = hold_out_novel(ds, {7})
print(f"trained view: {hold.trained.n_samples} samples over "
      f"{hold.trained.n_classes} classes (map {hold.class_map})")
print(f"novel pool: {hold.novel.n_samples} samples, excluded from fitting")

print("\n== deterministic stratified 60/20/20 split ==")
tags = split_dataset(hold.trained, seed=1)
print("train/val/test sizes:", np.bincount(tags, minlength=3).tolist())
again = split_dataset(hold.trained, seed=1)
print("same seed reproduces the split:", bool(np.array_equal(tags, again)))

print("\n== standardization is fitted on the training rows only ==")
train_rows = hold.trained.features[tags == TRAIN]
standardizer = fit_standardizer(train_rows)
z = standardizer.transform(train_rows)
print(f"train after transform: mean {np.abs(z.mean(axis=0)).max():.2e}, "
      f"std deviation from 1: {np.abs(z.std(axis=0) - 1).max():.2e}")

print("\n== target encodings ==")
print("one-hot, class 3 of 8      :", one_hot_batch([3], 8)[0])
print("stochastic, class 3, p' .9:", np.round(stochastic_target_batch([3], 8, [0.9])[0], 4))
print("the stochastic vector keeps the argmax but caps the peak below 1,")
print("which keeps trained-class prediction scores away from saturation")
