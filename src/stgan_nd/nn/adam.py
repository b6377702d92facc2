"""Adam optimizer with bias correction and per-update learning-rate decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError, ShapeError


@dataclass
class AdamState:
    """Hyperparameters and moment estimates of one parameter vector."""

    learning_rate: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    decay: float = 0.0
    step_count: int = 0
    # work space of adam_step; not part of the optimizer's state and not
    # saved in checkpoints
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty_like(self.first_moment)

    @classmethod
    def for_params(cls, param, learning_rate, beta1=0.9, beta2=0.999,
                   epsilon=1e-8, decay=0.0) -> "AdamState":
        return cls(learning_rate, np.zeros_like(param), np.zeros_like(param),
                   beta1, beta2, epsilon, decay)


def _all_finite(g: np.ndarray) -> bool:
    # a NaN or inf entry makes g.g non-finite, so a finite g.g proves every
    # entry finite without a boolean temporary; only when g.g overflows does
    # the full scan decide (a finite vector of huge entries still passes)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.dot(g.ravel(), g.ravel())):
            return True
    return bool(np.isfinite(g).all())


def adam_step(state: AdamState, param: np.ndarray, grad: np.ndarray) -> None:
    """Apply one Adam update to ``param`` in place.

    The effective learning rate is lr / (1 + decay * step_count), with
    step_count taken before the update. NaN or inf gradients raise
    NumericError and leave parameters and state untouched. Every array
    operation writes into the parameters, the moments or ``state.scratch``,
    so a step allocates no array.
    """
    m, v, s = state.first_moment, state.second_moment, state.scratch
    if param.shape != grad.shape or param.shape != m.shape:
        raise ShapeError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, moment {m.shape}"
        )
    if not _all_finite(grad):
        raise NumericError("non-finite gradient passed to adam_step")

    lr = state.learning_rate / (1.0 + state.decay * state.step_count)
    t = state.step_count + 1
    bias1 = 1.0 - state.beta1 ** t
    bias2 = 1.0 - state.beta2 ** t
    # algebraically identical to lr * (m/bias1) / (sqrt(v/bias2) + eps),
    # but with the bias corrections folded into two scalars
    alpha = lr * np.sqrt(bias2) / bias1
    eps_hat = state.epsilon * np.sqrt(bias2)
    m *= state.beta1
    np.multiply(grad, 1.0 - state.beta1, out=s)
    m += s
    v *= state.beta2
    np.square(grad, out=s)
    s *= 1.0 - state.beta2
    v += s
    np.sqrt(v, out=s)
    s += eps_hat
    np.divide(m, s, out=s)
    s *= alpha
    param -= s
    state.step_count = t
