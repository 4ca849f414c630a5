"""Adam and the plateau scheduler."""
from __future__ import annotations

import numpy as np
import pytest

from fairfront.errors import NumericError
from fairfront.optim import AdamState, PlateauScheduler, adam_step


def fresh_state(row, learning_rate=1e-3):
    return AdamState(np.zeros_like(row), np.zeros_like(row), learning_rate=learning_rate)


def test_first_step_magnitude_is_learning_rate():
    # with bias correction the first update is lr * g / (|g| + eps)
    params = np.zeros(2)
    state = fresh_state(params, learning_rate=1e-3)
    adam_step(state, params, np.full(2, 2.0))
    assert params == pytest.approx(-1e-3, rel=1e-6)
    assert state.step_count == 1


def test_adam_steps_the_row_and_the_moments_in_place():
    params = np.array([1.0, -2.0, 0.5])
    state = fresh_state(params)
    m, v = state.first_moment, state.second_moment
    grads = np.array([0.5, -1.0, 2.0])
    assert adam_step(state, params, grads) is None
    assert state.first_moment is m and state.second_moment is v
    assert np.array_equal(m, (1 - 0.9) * grads)
    assert np.array_equal(v, (1 - 0.999) * (grads * grads))
    assert np.all(params != [1.0, -2.0, 0.5])
    assert np.array_equal(grads, [0.5, -1.0, 2.0])  # gradients untouched


def test_stacked_step_equals_lone_row_steps_bitwise():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(3, 7))
    rates = np.array([1e-3, 5e-2, 2e-1])
    state = fresh_state(stack, learning_rate=rates.copy())
    lone = [(row.copy(), fresh_state(row, learning_rate=float(lr))) for row, lr in zip(stack, rates)]
    for _ in range(5):
        grads = rng.normal(size=stack.shape)
        adam_step(state, stack, grads)
        for (row, row_state), g in zip(lone, grads):
            adam_step(row_state, row, g)
    for k, (row, row_state) in enumerate(lone):
        assert np.array_equal(stack[k], row)
        assert np.array_equal(state.first_moment[k], row_state.first_moment)
        assert np.array_equal(state.second_moment[k], row_state.second_moment)


def test_adam_minimises_quadratic():
    # J(w) = (w - 3)^2 from w=0; a few hundred steps should close most of the gap
    params = np.zeros(1)
    state = fresh_state(params, learning_rate=0.05)
    for _ in range(400):
        adam_step(state, params, 2.0 * (params - 3.0))
    assert params[0] == pytest.approx(3.0, abs=0.05)


def test_scheduler_reduces_after_patience_then_resets():
    sched = PlateauScheduler(factor=0.9, patience=10)
    lr, lrs = 1e-3, []
    for _ in range(12):
        lr = sched.step(1.0, lr)
        lrs.append(lr)
    # 11 stalls are needed after the first epoch records the best loss
    assert lrs[-2] == 1e-3
    assert lrs[-1] == 1e-3 * 0.9
    assert sched.stall_count == 0


def test_scheduler_improvement_resets_counter():
    sched = PlateauScheduler(factor=0.9, patience=2)
    lr = 1e-3
    lr = sched.step(1.0, lr)
    lr = sched.step(1.0, lr)   # stall 1
    lr = sched.step(0.5, lr)   # improvement
    assert sched.stall_count == 0 and sched.best_loss == 0.5
    lr = sched.step(0.5, lr)
    lr = sched.step(0.5, lr)
    assert lr == 1e-3
    lr = sched.step(0.5, lr)   # stall 3 > patience
    assert lr == 1e-3 * 0.9


def test_scheduler_rejects_non_finite_loss():
    with pytest.raises(NumericError):
        PlateauScheduler().step(float("nan"), 1e-3)
