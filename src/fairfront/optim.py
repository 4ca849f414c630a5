"""Adam with bias correction and a reduce-on-plateau learning-rate schedule."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError
from .network import NetworkParams


@dataclass
class AdamState:
    """Moment estimates plus the current learning rate.

    The learning rate lives here rather than in a config so the plateau
    scheduler can cut it mid-run.  For a stack of K networks it is a (K,)
    array holding each member's own rate.
    """

    first_moment: NetworkParams
    second_moment: NetworkParams
    step_count: int = 0
    learning_rate: float | np.ndarray = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_params(cls, params: NetworkParams, learning_rate=1e-3, **kw) -> "AdamState":
        zeros = lambda arrs: [np.zeros_like(a) for a in arrs]
        return cls(
            first_moment=NetworkParams(zeros(params.weights), zeros(params.biases)),
            second_moment=NetworkParams(zeros(params.weights), zeros(params.biases)),
            learning_rate=learning_rate,
            **kw,
        )


def adam_step(
    state: AdamState, params: NetworkParams, grads: NetworkParams, validate: bool = True
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update.  Returns fresh params and state.

    Stacked parameters step together, each member at its own learning rate.
    ``validate=False`` skips the finiteness check of the gradients, for a
    loop that guards finiteness itself.
    """
    if validate:
        for g in (*grads.weights, *grads.biases):
            if not np.all(np.isfinite(g)):
                raise NumericError("non-finite gradient passed to adam_step")
    t = state.step_count + 1
    b1, b2, eps, lr = state.beta1, state.beta2, state.epsilon, state.learning_rate
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t

    def update(p, m, v, g):
        m_new = b1 * m + (1.0 - b1) * g
        v_new = b2 * v + (1.0 - b2) * (g * g)
        # a stack's per-member rates broadcast over each member's array
        rate = lr if np.ndim(lr) == 0 else np.reshape(lr, (-1,) + (1,) * (p.ndim - 1))
        step = rate * (m_new / c1) / (np.sqrt(v_new / c2) + eps)
        return p - step, m_new, v_new

    new_w, new_b, m_w, m_b, v_w, v_b = [], [], [], [], [], []
    for p, m, v, g in zip(params.weights, state.first_moment.weights, state.second_moment.weights, grads.weights):
        pn, mn, vn = update(p, m, v, g)
        new_w.append(pn), m_w.append(mn), v_w.append(vn)
    for p, m, v, g in zip(params.biases, state.first_moment.biases, state.second_moment.biases, grads.biases):
        pn, mn, vn = update(p, m, v, g)
        new_b.append(pn), m_b.append(mn), v_b.append(vn)
    new_state = AdamState(
        first_moment=NetworkParams(m_w, m_b),
        second_moment=NetworkParams(v_w, v_b),
        step_count=t,
        learning_rate=lr,
        beta1=b1,
        beta2=b2,
        epsilon=eps,
    )
    return NetworkParams(new_w, new_b), new_state


@dataclass
class PlateauScheduler:
    """Cut the learning rate once the epoch loss stalls.

    An epoch improves when its loss beats the best seen by more than
    eps_improve.  After more than ``patience`` consecutive non-improving
    epochs the rate is multiplied by ``factor`` (floored at min_lr) and the
    counter resets.
    """

    factor: float = 0.9
    patience: int = 10
    eps_improve: float = 1e-10
    min_lr: float = 0.0
    best_loss: float = field(default=float("inf"))
    stall_count: int = 0


def scheduler_step(
    sched: PlateauScheduler, epoch_loss: float, state: AdamState
) -> tuple[PlateauScheduler, AdamState]:
    """Record one epoch loss; possibly lower the learning rate."""
    new, lr = plateau_step(sched, epoch_loss, state.learning_rate)
    if lr == state.learning_rate:
        return new, state
    return new, replace(state, learning_rate=lr)


def plateau_step(sched: PlateauScheduler, epoch_loss: float, lr: float) -> tuple[PlateauScheduler, float]:
    """Record one epoch loss against rate ``lr``; returns the new scheduler and rate."""
    if not np.isfinite(epoch_loss):
        raise NumericError(f"non-finite epoch loss {epoch_loss} passed to the plateau scheduler")
    new = replace(sched)
    if epoch_loss < new.best_loss - new.eps_improve:
        new.best_loss = epoch_loss
        new.stall_count = 0
    else:
        new.stall_count += 1
        if new.stall_count > new.patience:
            lr = max(new.min_lr, new.factor * lr)
            new.stall_count = 0
    return new, lr
