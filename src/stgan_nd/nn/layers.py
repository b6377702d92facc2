"""Layer implementations with hand-derived backward passes.

``forward`` is the training pass: it returns ``(output, cache)``, and
backward consumes the cache and the upstream gradient and returns
``(input_gradient, parameter_gradients)``. ``infer`` is the inference
pass: it returns the output alone.
Parameter gradients follow the order of ``parameters()``. Backward writes
them into ``out`` (arrays shaped like the parameters) when it is given;
``input_only=True`` skips them and returns an empty list.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, SpecError, StateError
from .specs import LayerSpec


def glorot_uniform(n_in: int, n_out: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


class Layer:
    kind = "?"
    in_width: int
    out_width: int
    param_names: tuple[str, ...] = ()

    def parameters(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.param_names]

    def forward(self, x, rng=None, update_stats=True):
        raise NotImplementedError

    def backward(self, cache, grad, out=None, input_only=False):
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

    def backward(self, cache, grad, out=None, input_only=False):
        grad_x = grad @ self.weight.T
        if input_only:
            return grad_x, []
        grad_w, grad_b = out if out is not None else (None, None)
        grad_w = np.matmul(cache.T, grad, out=grad_w)
        grad_b = np.sum(grad, axis=0, out=grad_b)
        return grad_x, [grad_w, grad_b]


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

    def backward(self, cache, grad, out=None, input_only=False):
        return grad * cache, []


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

    def backward(self, cache, grad, out=None, input_only=False):
        y = cache
        return grad * y * (1.0 - y), []


class Softmax(_Elementwise):
    kind = "softmax"

    def forward(self, x, rng=None, update_stats=True):
        self._check_width(x)
        shifted = x - x.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=1, keepdims=True)
        return y, y

    def backward(self, cache, grad, out=None, input_only=False):
        y = cache
        inner = (grad * y).sum(axis=1, keepdims=True)
        return y * (grad - inner), []


class Linear(_Elementwise):
    kind = "linear"

    def forward(self, x, rng=None, update_stats=True):
        self._check_width(x)
        return x, None

    def backward(self, cache, grad, out=None, input_only=False):
        return grad, []


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

    def backward(self, cache, grad, out=None, input_only=False):
        return grad, []


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

    def backward(self, cache, grad, out=None, input_only=False):
        if cache is None:
            return grad, []
        return grad * cache, []


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

    def backward(self, cache, grad, out=None, input_only=False):
        x_hat, inv_std = cache
        n = grad.shape[0]
        # the input gradient needs both sums, so input_only saves nothing here
        grad_gamma, grad_beta = out if out is not None else (None, None)
        grad_beta = np.sum(grad, axis=0, out=grad_beta)
        grad_gamma = np.sum(grad * x_hat, axis=0, out=grad_gamma)
        grad_x = (self.gamma * inv_std / n) * (
            n * grad - grad_beta - x_hat * grad_gamma
        )
        return grad_x, [] if input_only else [grad_gamma, grad_beta]


def build_layer(spec: LayerSpec, in_width: int, rng: np.random.Generator) -> Layer:
    if spec.kind == "dense":
        return Dense(in_width, spec.out_width, rng)
    if spec.kind == "relu":
        return ReLU(in_width)
    if spec.kind == "sigmoid":
        return Sigmoid(in_width)
    if spec.kind == "softmax":
        return Softmax(in_width)
    if spec.kind == "linear":
        return Linear(in_width)
    if spec.kind == "gaussian_noise":
        return GaussianNoise(in_width, spec.stddev)
    if spec.kind == "dropout":
        return Dropout(in_width, spec.rate)
    if spec.kind == "batch_norm":
        return BatchNorm(in_width)
    raise SpecError(f"unknown layer kind {spec.kind!r}")
