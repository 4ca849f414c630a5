"""Adam with bias correction and a reduce-on-plateau learning-rate schedule.

Adam acts in place on flat parameter rows: a network's parameters are one
(P,) row, a stack of K networks one (K, P) array (network._flatten), and the
training loops read them through per-layer views that see every update.  The
plateau scheduler keeps one member's state and returns that member's next
rate, a scalar that the loop stores in AdamState.learning_rate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
# An epoch loss improves on the best one only when it is lower by more than this.
IMPROVE_EPS = 1e-10


@dataclass
class AdamState:
    """Moment estimates shaped like the parameter row, plus the learning rate.

    The learning rate lives here rather than in a config so the plateau
    scheduler can cut it mid-run.  For a stack of K networks it is a (K,)
    array holding each member's own rate.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float | np.ndarray = 1e-3


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place.

    Each row of a (K, P) stack steps at its member's own learning rate.
    Nothing is checked: the training loops guard finiteness themselves.
    """
    state.step_count += 1
    c1 = 1.0 - BETA1**state.step_count
    c2 = 1.0 - BETA2**state.step_count
    m, v = state.first_moment, state.second_moment
    m *= BETA1
    m += (1.0 - BETA1) * grads
    v *= BETA2
    v += (1.0 - BETA2) * (grads * grads)
    rate = state.learning_rate
    if np.ndim(rate):
        rate = rate[:, None]
    params -= rate * (m / c1) / (np.sqrt(v / c2) + EPSILON)


@dataclass
class PlateauScheduler:
    """Cut the learning rate once the epoch loss stalls.

    An epoch improves when its loss beats the best seen by more than
    IMPROVE_EPS.  After more than ``patience`` consecutive non-improving
    epochs the rate is multiplied by ``factor`` and the counter resets.
    """

    factor: float = 0.9
    patience: int = 10
    best_loss: float = field(default=float("inf"))
    stall_count: int = 0

    def step(self, epoch_loss: float, lr: float) -> float:
        """Record one epoch loss against rate ``lr``; returns the rate to use next."""
        if not np.isfinite(epoch_loss):
            raise NumericError(f"non-finite epoch loss {epoch_loss} passed to the plateau scheduler")
        if epoch_loss < self.best_loss - IMPROVE_EPS:
            self.best_loss = epoch_loss
            self.stall_count = 0
        else:
            self.stall_count += 1
            if self.stall_count > self.patience:
                lr = self.factor * lr
                self.stall_count = 0
        return lr
