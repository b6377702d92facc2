import math

import numpy as np
import pytest

from stgan_nd.errors import NumericError, ShapeError
from stgan_nd.nn import AdamState, adam_step


def reference_update(w, g, lr, beta1, beta2, eps, m, v, t):
    """Plain-float Adam step, written out move for move."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return w - lr * m_hat / (math.sqrt(v_hat) + eps), m, v


def test_first_step_matches_hand_computation():
    param = np.array([0.0])
    state = AdamState.for_params(param, 0.001, beta1=0.5, beta2=0.999)
    adam_step(state, param, np.array([1.0]))
    expected, _, _ = reference_update(0.0, 1.0, 0.001, 0.5, 0.999, state.epsilon, 0.0, 0.0, 1)
    assert abs(param[0] - expected) < 1e-10
    # bias correction puts the first move at almost exactly -lr
    assert abs(param[0] + 0.001) < 1e-9
    assert state.step_count == 1


def test_multiple_steps_match_reference():
    param = np.array([0.3])
    state = AdamState.for_params(param, 0.01, beta1=0.5, beta2=0.9)
    w, m, v = 0.3, 0.0, 0.0
    rng = np.random.default_rng(0)
    for t in range(1, 30):
        g = float(rng.standard_normal())
        adam_step(state, param, np.array([g]))
        w, m, v = reference_update(w, g, 0.01, 0.5, 0.9, state.epsilon, m, v, t)
        assert abs(param[0] - w) < 1e-10


def test_zero_gradient_is_fixed_point():
    param = np.array([1.5, -2.0, 0.25])
    state = AdamState.for_params(param, 0.01)
    for _ in range(5):
        adam_step(state, param, np.zeros(3))
    np.testing.assert_array_equal(param, [1.5, -2.0, 0.25])


def test_learning_rate_decay_halves_after_many_steps():
    # decay 1e-6 after 1e6 completed steps scales the rate by 1/(1+1)
    def delta(decay):
        param = np.array([0.0])
        state = AdamState.for_params(param, 0.001, beta1=0.5)
        state.decay = decay
        state.step_count = 10 ** 6
        adam_step(state, param, np.array([1.0]))
        return param[0]

    assert abs(delta(1e-6) / delta(0.0) - 0.5) < 1e-9


def test_nan_gradient_raises_and_leaves_state_untouched():
    param = np.array([1.0])
    state = AdamState.for_params(param, 0.01)
    adam_step(state, param, np.array([0.5]))
    value = param.copy()
    moment = state.first_moment.copy()
    with pytest.raises(NumericError):
        adam_step(state, param, np.array([np.nan]))
    with pytest.raises(NumericError):
        adam_step(state, param, np.array([np.inf]))
    np.testing.assert_array_equal(param, value)
    np.testing.assert_array_equal(state.first_moment, moment)
    assert state.step_count == 1


def test_shape_mismatch_raises():
    param = np.zeros(4)
    state = AdamState.for_params(param, 0.01)
    with pytest.raises(ShapeError):
        adam_step(state, param, np.zeros(3))
    with pytest.raises(ShapeError):  # a parameter vector the state was not made for
        adam_step(state, np.zeros(5), np.zeros(5))
    assert state.step_count == 0


def test_accumulators_mirror_parameter_shapes():
    state = AdamState.for_params(np.ones(15), 0.01)
    for array in (state.first_moment, state.second_moment, state.scratch):
        assert array.shape == (15,)
    np.testing.assert_array_equal(state.first_moment, 0.0)
    np.testing.assert_array_equal(state.second_moment, 0.0)


def test_non_finite_entries_in_a_long_vector_raise_and_leave_state_untouched():
    param = np.linspace(-1.0, 1.0, 1000)
    state = AdamState.for_params(param, 0.01)
    adam_step(state, param, np.full(1000, 0.5))
    value, moment = param.copy(), state.first_moment.copy()
    for bad in (np.nan, np.inf, -np.inf):
        grad = np.full(1000, 0.25)
        grad[617] = bad
        with pytest.raises(NumericError):
            adam_step(state, param, grad)
    mixed = np.zeros(1000)
    mixed[3], mixed[4] = np.inf, -np.inf  # the sum is NaN, not inf
    with pytest.raises(NumericError):
        adam_step(state, param, mixed)
    np.testing.assert_array_equal(param, value)
    np.testing.assert_array_equal(state.first_moment, moment)
    assert state.step_count == 1


def test_finite_gradient_whose_sum_overflows_is_accepted():
    param = np.array([1.0, -1.0])
    state = AdamState.for_params(param, 0.01)
    with np.errstate(over="ignore"):
        adam_step(state, param, np.array([1e308, 1e308]))
    assert state.step_count == 1
    assert np.all(np.isfinite(param))


def _reference_adam_step(state, p, g):
    """The update with a fresh temporary per operation, in the same order."""
    lr = state.learning_rate / (1.0 + state.decay * state.step_count)
    t = state.step_count + 1
    bias1 = 1.0 - state.beta1 ** t
    bias2 = 1.0 - state.beta2 ** t
    alpha = lr * np.sqrt(bias2) / bias1
    eps_hat = state.epsilon * np.sqrt(bias2)
    m, v = state.first_moment, state.second_moment
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += np.square(g) * (1.0 - state.beta2)
    p -= (m / (np.sqrt(v) + eps_hat)) * alpha
    state.step_count = t


def test_in_place_step_is_bit_identical_to_temporaries():
    rng = np.random.default_rng(12)
    start = rng.standard_normal(5000)
    ours, ref = start.copy(), start.copy()
    state = AdamState.for_params(ours, 0.001, beta1=0.5, decay=1e-6)
    ref_state = AdamState.for_params(ref, 0.001, beta1=0.5, decay=1e-6)
    for _ in range(20):
        g = rng.standard_normal(5000) * 3.0
        adam_step(state, ours, g)
        _reference_adam_step(ref_state, ref, g)
    np.testing.assert_array_equal(ours, ref)
    np.testing.assert_array_equal(state.second_moment, ref_state.second_moment)


def test_step_allocates_no_parameter_sized_array():
    import tracemalloc

    param = np.zeros(100_000)
    grad = np.full(100_000, 0.1)
    state = AdamState.for_params(param, 0.001)  # makes the scratch space too
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        adam_step(state, param, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < param.nbytes // 10
