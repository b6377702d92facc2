"""Multi-input, multi-head dense network with manual backpropagation.

Inputs are concatenated, pushed through the trunk layers, and then fanned
out into one dense layer + activation per output head. Backward sums the
head gradients where the trunk splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError, SpecError, StateError
from . import layers as L
from .layers import Layer, build_layer
from .specs import NetworkSpec

TRAIN = "train"
INFER = "infer"

# an INFER forward of more rows runs in equal row blocks of at most this
# many, so its intermediate arrays stay block-sized whatever the batch
INFER_BLOCK_ROWS = 512


@dataclass
class Gradients:
    """Parameter gradients (aligned with ``Network.parameters()``) and the
    gradient w.r.t. each input head.

    ``params`` are views into one flat buffer laid out like
    ``Network.flat_parameters()``; an input-only backward has neither.
    """

    params: list[np.ndarray]
    inputs: list[np.ndarray]
    buffer: np.ndarray | None

    def flat(self) -> np.ndarray:
        """All parameter gradients in one vector, matching
        ``Network.flat_parameters()`` element for element."""
        if self.buffer is None:
            raise StateError("an input-only backward has no parameter gradients")
        return self.buffer


@dataclass(slots=True)
class _ForwardCache:
    net: Network
    mode: str
    batch_size: int
    trunk: list
    heads: list


class Network:
    def __init__(self, spec: NetworkSpec, trunk: list[Layer], heads: list[tuple[L.Dense, Layer]]):
        self.spec = spec
        self.trunk = trunk
        self.heads = heads
        # (offset, size, shape) of each parameter of each layer in the flat buffer
        self._layout: dict[Layer, list[tuple[int, int, tuple]]] = {}
        self._flat = self._flatten_into_buffer()

    def _flatten_into_buffer(self) -> np.ndarray:
        # one contiguous buffer backing every parameter array keeps the
        # optimizer to a handful of vectorized passes per step
        arrays = self.parameters()
        buffer = np.empty(sum(a.size for a in arrays))
        offset = 0
        for layer in self._param_layers():
            spans = self._layout[layer] = []
            for name in layer.param_names:
                arr = getattr(layer, name)
                view = buffer[offset:offset + arr.size].reshape(arr.shape)
                view[...] = arr
                setattr(layer, name, view)
                spans.append((offset, arr.size, arr.shape))
                offset += arr.size
        return buffer

    def layers(self):
        """Every layer: the trunk in order, then each head's dense layer and
        activation."""
        yield from self.trunk
        for pair in self.heads:
            yield from pair

    def _param_layers(self) -> list[Layer]:
        return [layer for layer in self.layers() if layer.param_names]

    def flat_parameters(self) -> np.ndarray:
        """The single buffer behind all parameter arrays."""
        return self._flat

    @property
    def n_inputs(self) -> int:
        return len(self.spec.input_widths)

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays, trunk first, then heads in order."""
        return [getattr(layer, name) for layer in self._param_layers()
                for name in layer.param_names]

    def batch_norm_layers(self) -> list[L.BatchNorm]:
        return [layer for layer in self.trunk if isinstance(layer, L.BatchNorm)]

    def forward(self, inputs, mode, rng=None, update_stats=True):
        """Run the network on a batch in ``mode`` (TRAIN or INFER).

        ``inputs`` is a list of one matrix per input head. Returns
        ``(head_outputs, cache)``; the cache is only usable for
        ``backward`` when mode is train. A TRAIN batch runs through each
        layer's ``forward``; an INFER batch runs through each layer's
        ``infer``, in row blocks when it has more than ``INFER_BLOCK_ROWS``
        rows.
        """
        if mode not in (TRAIN, INFER):
            raise SpecError(f"mode must be {TRAIN!r} or {INFER!r}, got {mode!r}")
        if len(inputs) != self.n_inputs:
            raise ShapeError(
                f"network has {self.n_inputs} input heads, got {len(inputs)} arrays"
            )
        mats = []
        batch = None
        for width, arr in zip(self.spec.input_widths, inputs):
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != width:
                raise ShapeError(
                    f"input head expects width {width}, got shape {arr.shape}"
                )
            if batch is None:
                batch = arr.shape[0]
            elif arr.shape[0] != batch:
                raise ShapeError("input heads disagree on batch size")
            mats.append(arr)
        if mode == INFER:
            return self._infer(mats, batch), _ForwardCache(self, mode, batch, [], [])
        x = np.concatenate(mats, axis=1) if len(mats) > 1 else mats[0]

        trunk_caches = []
        for layer in self.trunk:
            x, cache = layer.forward(x, rng=rng, update_stats=update_stats)
            trunk_caches.append(cache)

        outputs = []
        head_caches = []
        for dense_layer, activation in self.heads:
            z, dense_cache = dense_layer.forward(x, rng=rng, update_stats=update_stats)
            y, act_cache = activation.forward(z, rng=rng, update_stats=update_stats)
            outputs.append(y)
            head_caches.append((dense_cache, act_cache))

        return outputs, _ForwardCache(self, mode, batch, trunk_caches, head_caches)

    def _infer(self, mats: list[np.ndarray], batch: int) -> list[np.ndarray]:
        """INFER outputs of ``mats``, computed in equal row blocks of at
        most ``INFER_BLOCK_ROWS`` rows (a ceiling division, so no block is
        a small remainder). Rows do not interact in INFER mode. Elementwise
        layers give each row the same bits in any block; a matmul does
        where BLAS runs the block with the kernel it runs the whole batch
        with. On OpenBLAS 0.3.31 (SkylakeX) every 256-wide generator shape
        tried matched the full-batch pass, while a 300-wide layer over more
        rows than ``INFER_BLOCK_ROWS`` can differ in the last bit."""
        if batch <= INFER_BLOCK_ROWS:
            return self._infer_block(mats)
        n_blocks = -(-batch // INFER_BLOCK_ROWS)
        rows = -(-batch // n_blocks)
        outputs = [np.empty((batch, dense_layer.out_width)) for dense_layer, _ in self.heads]
        for start in range(0, batch, rows):
            block = self._infer_block([m[start:start + rows] for m in mats])
            for out, y in zip(outputs, block):
                out[start:start + rows] = y
        return outputs

    def _infer_block(self, mats: list[np.ndarray]) -> list[np.ndarray]:
        # a layer may write in place only into an array this call allocated:
        # never into the caller's inputs
        x = np.concatenate(mats, axis=1) if len(mats) > 1 else mats[0]
        owned = len(mats) > 1
        for layer in self.trunk:
            y = layer.infer(x, in_place=owned)
            owned = owned or y is not x
            x = y
        return [activation.infer(dense_layer.infer(x), in_place=True)
                for dense_layer, activation in self.heads]

    def backward(self, cache: _ForwardCache, head_loss_grads,
                 input_only: bool = False) -> Gradients:
        """Backpropagate per-head loss gradients through the whole network.

        Parameter gradients go into a flat buffer allocated per call, so
        the ``Gradients`` of separate calls never alias. ``input_only``
        skips them, passing each layer no ``out``, and computes the input
        gradients alone.
        """
        if cache.net is not self:
            raise StateError("cache was produced by a different network")
        if cache.mode != TRAIN:
            raise StateError("backward needs a cache from a train-mode forward")
        if len(head_loss_grads) != self.n_heads:
            raise ShapeError(
                f"network has {self.n_heads} heads, got {len(head_loss_grads)} gradients"
            )

        if input_only:
            flat, out = None, {}
        else:
            flat = np.empty(self._flat.size)
            out = {layer: [flat[o:o + n].reshape(shape) for o, n, shape in spans]
                   for layer, spans in self._layout.items()}

        trunk_grad = np.zeros((cache.batch_size, self.heads[0][0].in_width))
        for (dense_layer, activation), (dense_cache, act_cache), grad in zip(
            self.heads, cache.heads, head_loss_grads
        ):
            grad = np.asarray(grad, dtype=float)
            if grad.shape != (cache.batch_size, dense_layer.out_width):
                raise ShapeError(
                    f"head gradient shape {grad.shape} does not match output "
                    f"({cache.batch_size}, {dense_layer.out_width})"
                )
            grad = activation.backward(act_cache, grad)
            trunk_grad += dense_layer.backward(dense_cache, grad, out.get(dense_layer))

        grad = trunk_grad
        for layer, layer_cache in zip(reversed(self.trunk), reversed(cache.trunk)):
            grad = layer.backward(layer_cache, grad, out.get(layer))

        input_grads = []
        offset = 0
        for width in self.spec.input_widths:
            input_grads.append(grad[:, offset:offset + width])
            offset += width
        params = [view for views in out.values() for view in views]
        return Gradients(params=params, inputs=input_grads, buffer=flat)


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Build a network with Glorot-uniform weights and zero biases.

    The same (spec, seed) pair always produces bit-identical parameters.
    """
    rng = np.random.default_rng(int(seed))
    width = spec.total_input_width
    trunk = []
    for layer_spec in spec.layers:
        layer = build_layer(layer_spec, width, rng)
        width = layer.out_width
        trunk.append(layer)
    heads = []
    for head_width, activation_name in spec.output_heads:
        dense_layer = L.Dense(width, head_width, rng)
        activation = L.WIDTH_ONLY[activation_name](head_width)
        heads.append((dense_layer, activation))
    return Network(spec, trunk, heads)


def clone_network(net: Network) -> Network:
    """Independent copy with identical parameters and state arrays.

    (A plain deepcopy would sever the layer views from the flat buffer.)
    """
    dup = init_network(net.spec, seed=0)
    dup.flat_parameters()[...] = net.flat_parameters()
    for src, dst in zip(net.layers(), dup.layers()):
        for name in src.state_names:
            getattr(dst, name)[...] = getattr(src, name)
    return dup
