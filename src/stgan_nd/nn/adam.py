"""Adam optimizer with bias correction and per-update learning-rate decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError, ShapeError


@dataclass
class AdamState:
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    decay: float = 0.0
    step_count: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)
    # work space of adam_step, as large as the largest parameter array;
    # not part of the optimizer's state and not saved in checkpoints
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def for_params(cls, params, learning_rate, beta1=0.9, beta2=0.999,
                   epsilon=1e-8, decay=0.0) -> "AdamState":
        state = cls(learning_rate, beta1, beta2, epsilon, decay)
        state.first_moment = [np.zeros_like(p) for p in params]
        state.second_moment = [np.zeros_like(p) for p in params]
        return state


def _all_finite(g: np.ndarray) -> bool:
    # a NaN or inf entry makes g.g non-finite, so a finite g.g proves every
    # entry finite without a boolean temporary; only when g.g overflows does
    # the full scan decide (a finite vector of huge entries still passes)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.dot(g.ravel(), g.ravel())):
            return True
    return bool(np.isfinite(g).all())


def adam_step(state: AdamState, params, grads, weight_l2: float = 0.0) -> None:
    """Apply one Adam update to ``params`` in place.

    The effective learning rate is lr / (1 + decay * step_count), with
    step_count taken before the update. ``weight_l2`` adds an L2 penalty
    gradient `lambda * w` before the moment update. NaN or inf gradients
    raise NumericError and leave parameters and state untouched.

    Without ``weight_l2``, every array operation writes into the
    parameters, the moments or ``state.scratch``, so a step allocates no
    array once the scratch space exists.
    """
    if len(params) != len(grads):
        raise ShapeError("params and grads differ in length")
    if not state.first_moment:
        state.first_moment = [np.zeros_like(p) for p in params]
        state.second_moment = [np.zeros_like(p) for p in params]
    if len(state.first_moment) != len(params):
        raise ShapeError("optimizer state does not match parameter list")
    for p, g, m in zip(params, grads, state.first_moment):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(
                f"shape mismatch: param {p.shape}, grad {g.shape}, moment {m.shape}"
            )
    for g in grads:
        if not _all_finite(g):
            raise NumericError("non-finite gradient passed to adam_step")
    largest = max((p.size for p in params), default=0)
    if state.scratch is None or state.scratch.size < largest:
        state.scratch = np.empty(largest)

    lr = state.learning_rate / (1.0 + state.decay * state.step_count)
    t = state.step_count + 1
    bias1 = 1.0 - state.beta1 ** t
    bias2 = 1.0 - state.beta2 ** t
    # algebraically identical to lr * (m/bias1) / (sqrt(v/bias2) + eps),
    # but with the bias corrections folded into two scalars
    alpha = lr * np.sqrt(bias2) / bias1
    eps_hat = state.epsilon * np.sqrt(bias2)
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if weight_l2 != 0.0:
            g = g + weight_l2 * p
        s = state.scratch[:p.size].reshape(p.shape)
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=s)
        m += s
        v *= state.beta2
        np.square(g, out=s)
        s *= 1.0 - state.beta2
        v += s
        np.sqrt(v, out=s)
        s += eps_hat
        np.divide(m, s, out=s)
        s *= alpha
        p -= s
    state.step_count = t
