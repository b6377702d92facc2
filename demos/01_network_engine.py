#!/usr/bin/env python3
"""Tour of the dense-network engine: specs, forward/backward, Adam, checkpoints.

Builds a two-head network, verifies a couple of hand-picked gradients
against finite differences, trains it on a toy two-cluster problem, and
round-trips it through a JSON checkpoint. The save carries the Adam state,
so it is a resume file (format v2, arrays as base64 float64); a save of the
network alone would be a model file (format v1, arrays as JSON numbers).
"""
import tempfile
from pathlib import Path

import numpy as np

from stgan_nd.nn import (
    AdamState,
    INFER,
    TRAIN,
    NetworkSpec,
    adam_step,
    binary_cross_entropy,
    categorical_cross_entropy,
    composite_loss,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from stgan_nd.nn.specs import batch_norm, dense, dropout, gaussian_noise, relu

print("== 1. describe and build a network ==")
spec = NetworkSpec(
    input_widths=(4,),
    layers=(dense(16), gaussian_noise(0.05), relu(), batch_norm(), dropout(0.2)),
    output_heads=((1, "sigmoid"), (3, "softmax")),
)
net = init_network(spec, seed=0)
print(f"parameters: {net.flat_parameters().size} values in "
      f"{len(net.parameters())} arrays")

print("\n== 2. spot-check one gradient against finite differences ==")
rng = np.random.default_rng(1)
x = rng.standard_normal((8, 4))
validity_target = rng.integers(0, 2, (8, 1)).astype(float)
class_target = np.eye(3)[rng.integers(0, 3, 8)]


def loss_and_cache():
    # pin the layer randomness so the loss is differentiable-by-differences
    layer_rng = np.random.default_rng(42)
    (v, y), cache = net.forward([x], TRAIN, rng=layer_rng, update_stats=False)
    comp = composite_loss(
        binary_cross_entropy(v, validity_target),
        categorical_cross_entropy(y, class_target),
        1.0, 1.0,
    )
    return comp, cache


comp, cache = loss_and_cache()
grads = net.backward(cache, comp.gradient)
weight = net.trunk[0].weight
h = 1e-5
weight[0, 0] += h
plus = loss_and_cache()[0].scalar
weight[0, 0] -= 2 * h
minus = loss_and_cache()[0].scalar
weight[0, 0] += h
numeric = (plus - minus) / (2 * h)
analytic = grads.params[0][0, 0]
print(f"analytic {analytic:+.8f} vs numeric {numeric:+.8f} "
      f"(|diff| {abs(analytic - numeric):.2e})")

print("\n== 3. train on a toy two-cluster problem ==")
n = 200
toy_x = np.concatenate([
    rng.standard_normal((n, 4)) + 2.0,
    rng.standard_normal((n, 4)) - 2.0,
])
toy_labels = np.array([0] * n + [1] * n)
toy_targets = np.eye(3)[toy_labels]
toy_validity = np.ones((2 * n, 1))

optimizer = AdamState.for_params(net.flat_parameters(), 0.01)
layer_rng = np.random.default_rng(7)
for step in range(60):
    (v, y), cache = net.forward([toy_x], TRAIN, rng=layer_rng)
    comp = composite_loss(
        binary_cross_entropy(v, toy_validity),
        categorical_cross_entropy(y, toy_targets),
        0.0, 1.0,  # classification only
    )
    g = net.backward(cache, comp.gradient)
    adam_step(optimizer, net.flat_parameters(), g.flat())
    if step % 20 == 0 or step == 59:
        print(f"step {step:3d}: loss {comp.scalar:.4f}")

(_, probs), _ = net.forward([toy_x], INFER)
accuracy = float((probs.argmax(axis=1) == toy_labels).mean())
print(f"train accuracy: {accuracy:.3f}")

print("\n== 4. checkpoint round trip ==")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "net.json"
    save_checkpoint(path, net, optimizer, rng_seed=0)
    clone, _, _ = load_checkpoint(path)
    (_, probs2), _ = clone.forward([toy_x], INFER)
    print(f"bit-identical predictions after reload: {np.array_equal(probs, probs2)}")
