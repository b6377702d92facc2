"""Layer implementations with hand-derived backward passes.

A layer names the arrays it holds, and the network, its clone and the
checkpoint read those names: ``param_names``, the trained parameters, and
``state_names``, what a training pass updates untrained (BatchNorm's running
statistics). ``forward`` is the training pass: it returns ``(output,
cache)``. ``backward(cache, grad, out=None)`` returns the input gradient;
given ``out``, arrays in the order of ``param_names``, it also writes the
parameter gradients into them. ``infer`` returns the inference output alone.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, StateError
from .specs import LayerSpec


def glorot_uniform(n_in: int, n_out: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


class Layer:
    kind = "?"
    in_width: int
    out_width: int
    param_names: tuple[str, ...] = ()
    state_names: tuple[str, ...] = ()

    def forward(self, x, rng=None, update_stats=True):
        raise NotImplementedError

    def backward(self, cache, grad, out=None):
        raise NotImplementedError

    def infer(self, x, in_place=False):
        """The inference output of ``x``. With ``in_place`` the layer may
        write it into ``x``, which the caller allocated and no longer needs."""
        return self.forward(x)[0]

    def _check_width(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.in_width:
            raise ShapeError(
                f"{self.kind} layer expects batches of width {self.in_width}, "
                f"got array of shape {x.shape}"
            )

    def _require_rng(self, rng) -> np.random.Generator:
        if rng is None:
            raise StateError(f"{self.kind} layer needs an rng in train mode")
        return rng


class Dense(Layer):
    kind = "dense"
    param_names = ("weight", "bias")

    def __init__(self, in_width: int, out_width: int, rng: np.random.Generator):
        self.in_width = in_width
        self.out_width = out_width
        self.weight = glorot_uniform(in_width, out_width, rng)
        self.bias = np.zeros(out_width)

    def forward(self, x, rng=None, update_stats=True):
        self._check_width(x)
        out = x @ self.weight
        out += self.bias
        return out, x

    def backward(self, cache, grad, out=None):
        grad_x = grad @ self.weight.T
        if out is not None:
            grad_w, grad_b = out
            np.matmul(cache.T, grad, out=grad_w)
            np.sum(grad, axis=0, out=grad_b)
        return grad_x


class _Elementwise(Layer):
    """Base for width-preserving layers."""

    def __init__(self, width: int):
        self.in_width = width
        self.out_width = width


class ReLU(_Elementwise):
    kind = "relu"

    def forward(self, x, rng=None, update_stats=True):
        self._check_width(x)
        mask = x > 0.0
        return x * mask, mask

    def infer(self, x, in_place=False):
        # x * mask, not max(x, 0): a negative input gives -0.0, as in forward
        return np.multiply(x, x > 0.0, out=x if in_place else None)

    def backward(self, cache, grad, out=None):
        return grad * cache


class Sigmoid(_Elementwise):
    kind = "sigmoid"

    def forward(self, x, rng=None, update_stats=True):
        self._check_width(x)
        out = np.empty_like(x, dtype=float)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out, out

    def backward(self, cache, grad, out=None):
        y = cache
        return grad * y * (1.0 - y)


class Softmax(_Elementwise):
    kind = "softmax"

    def forward(self, x, rng=None, update_stats=True):
        self._check_width(x)
        shifted = x - x.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=1, keepdims=True)
        return y, y

    def backward(self, cache, grad, out=None):
        y = cache
        inner = (grad * y).sum(axis=1, keepdims=True)
        return y * (grad - inner)


class Linear(_Elementwise):
    kind = "linear"

    def forward(self, x, rng=None, update_stats=True):
        self._check_width(x)
        return x, None

    def backward(self, cache, grad, out=None):
        return grad


class GaussianNoise(_Elementwise):
    kind = "gaussian_noise"

    def __init__(self, width: int, stddev: float):
        super().__init__(width)
        self.stddev = stddev

    def forward(self, x, rng=None, update_stats=True):
        self._check_width(x)
        if self.stddev == 0.0:
            return x, None
        rng = self._require_rng(rng)
        # additive noise: gradient w.r.t. the input is the identity
        return x + self.stddev * rng.standard_normal(x.shape), None

    def infer(self, x, in_place=False):
        return x

    def backward(self, cache, grad, out=None):
        return grad


class Dropout(_Elementwise):
    kind = "dropout"

    def __init__(self, width: int, rate: float):
        super().__init__(width)
        self.rate = rate

    def forward(self, x, rng=None, update_stats=True):
        self._check_width(x)
        if self.rate == 0.0:
            return x, None
        rng = self._require_rng(rng)
        keep = 1.0 - self.rate
        # inverted scaling: inference needs no rescaling
        mask = (rng.random(x.shape) >= self.rate) / keep
        return x * mask, mask

    def infer(self, x, in_place=False):
        return x

    def backward(self, cache, grad, out=None):
        if cache is None:
            return grad
        return grad * cache


class BatchNorm(_Elementwise):
    """Per-feature batch normalization with learned scale and shift.

    ``infer`` uses the running statistics (momentum 0.99); ``forward``
    normalizes within the batch and, unless ``update_stats`` is False,
    folds the batch statistics into the running ones.
    """

    kind = "batch_norm"
    momentum = 0.99
    eps = 1e-3
    param_names = ("gamma", "beta")
    state_names = ("running_mean", "running_var")

    def __init__(self, width: int):
        super().__init__(width)
        self.gamma = np.ones(width)
        self.beta = np.zeros(width)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)

    def forward(self, x, rng=None, update_stats=True):
        self._check_width(x)
        mean = x.mean(axis=0)
        centered = x - mean
        # the bits of x.var(axis=0), without centering the batch a second time
        var = np.square(centered).mean(axis=0)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = centered * inv_std
        if update_stats:
            m = self.momentum
            self.running_mean = m * self.running_mean + (1.0 - m) * mean
            self.running_var = m * self.running_var + (1.0 - m) * var
        return self.gamma * x_hat + self.beta, (x_hat, inv_std)

    def infer(self, x, in_place=False):
        # gamma * (x - mean) / sqrt(var + eps) + beta, in one array
        out = np.subtract(x, self.running_mean, out=x if in_place else None)
        out /= np.sqrt(self.running_var + self.eps)
        out *= self.gamma
        out += self.beta
        return out

    def backward(self, cache, grad, out=None):
        x_hat, inv_std = cache
        n = grad.shape[0]
        # the input gradient needs both sums, so they are taken without out too
        grad_gamma, grad_beta = out if out is not None else (None, None)
        grad_beta = np.sum(grad, axis=0, out=grad_beta)
        grad_gamma = np.sum(grad * x_hat, axis=0, out=grad_gamma)
        return (self.gamma * inv_std / n) * (n * grad - grad_beta - x_hat * grad_gamma)


# the layer kinds built from their width alone, trunk layers and head activations
WIDTH_ONLY = {cls.kind: cls for cls in (ReLU, Sigmoid, Softmax, Linear, BatchNorm)}


def build_layer(spec: LayerSpec, in_width: int, rng: np.random.Generator) -> Layer:
    if spec.kind == "dense":
        return Dense(in_width, spec.out_width, rng)
    if spec.kind == "gaussian_noise":
        return GaussianNoise(in_width, spec.stddev)
    if spec.kind == "dropout":
        return Dropout(in_width, spec.rate)
    return WIDTH_ONLY[spec.kind](in_width)
