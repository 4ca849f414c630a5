"""Shared minibatch training loop.

One engine drives every gradient-trained network in the package: plain BCE
fits (classifier endpoints, the propensity model), penalty-only fits, and
interior Chebyshev fits.  Identity standardisation bounds make the lambda = 0
path literally a pure-BCE trainer, which is what the endpoint runs use while
recording the risk/unfairness ranges.

The engine trains K >= 1 networks on one data set as one stack: each step is
one stacked forward, backward and Adam update for all K.  Each member keeps
its own lambda, initialisation seed, loop generator (epoch shuffles and
dropout draws, in the order of a lone fit), learning-rate schedule and
finiteness guard, so a member's numbers equal those of the same network
trained alone and a diverging member fails alone.  The stack keeps its shape
for the whole fit: a failed member keeps its row as zeros, so the remaining
steps stay finite, and is no longer read.
"""
from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import minibatches
from .errors import ConfigError, InputError, ShapeError, TrainingError
from .metrics import PENALTY_MODES, PENALTY_PENULTIMATE, overlap_weights
from .network import (
    IDENTITY_BOUNDS,
    MODE_TRAIN,
    NetworkConfig,
    NetworkParams,
    StandardisationBounds,
    _flatten,
    _unflatten,
    backward_composite,
    forward,
    init_network,
)
from .optim import AdamState, PlateauScheduler, adam_step

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Loop hyperparameters, orthogonal to the architecture."""

    epochs: int = 500
    batch_size: int = 128
    learning_rate: float = 1e-3
    scheduler_factor: float = 0.9
    scheduler_patience: int = 10

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 < self.scheduler_factor <= 1.0:
            raise ConfigError(f"scheduler_factor must lie in (0, 1], got {self.scheduler_factor}")
        if self.scheduler_patience < 0:
            raise ConfigError(f"scheduler_patience must be >= 0, got {self.scheduler_patience}")


# (min, max) of a series with no computed value
EMPTY_RANGE = (float("inf"), float("-inf"))


@dataclass
class FitResult:
    """Trained parameters plus what the sweep layer reads of the run.

    risk_range / unfairness_range are the (min, max) of the minibatch risk
    and penalty over the whole run, taken over the batches where the value
    was computed; EMPTY_RANGE if there were none.
    """

    params: NetworkParams
    epoch_objectives: list[float] = field(default_factory=list)
    risk_range: tuple[float, float] = EMPTY_RANGE
    unfairness_range: tuple[float, float] = EMPTY_RANGE
    final_learning_rate: float = 0.0
    skipped_group_batches: int = 0


def derive_seeds(*keys: int) -> tuple[int, int]:
    """Two independent 64-bit streams keyed by an integer tuple."""
    state = np.random.SeedSequence([int(k) for k in keys]).generate_state(4, dtype=np.uint64)
    return int(state[0]), int(state[1])


def fit_network(
    features: np.ndarray,
    labels: np.ndarray,
    net_config: NetworkConfig | Sequence[NetworkConfig],
    train_config: TrainConfig,
    loop_seed: int | Sequence[int],
    *,
    lambda_: float | Sequence[float] = 0.0,
    bounds: StandardisationBounds | None = None,
    sensitives: np.ndarray | None = None,
    propensities: np.ndarray | None = None,
    penalty_mode: str = PENALTY_PENULTIMATE,
) -> FitResult | list[FitResult | TrainingError]:
    """Adam-train a fresh network, or a stack of them, on (features, labels).

    The per-step objective is max{(1-lambda)*R~, lambda*U~}; with bounds=None
    the standardisation is the identity, so lambda = 0 yields plain BCE
    descent and lambda = 1 plain penalty descent.  The plateau scheduler is
    driven by the epoch mean of the scalarised objective.  Initialisation is
    deterministic in net_config.seed, shuffling and dropout in loop_seed; a
    minibatch containing a single sensitive group falls back to the risk
    branch and is excluded from the unfairness range.

    Passing sequences of K configs (one architecture, one init seed each),
    K loop seeds and K lambdas trains the K networks as one stack and returns
    K entries: a FitResult, or the TrainingError of a member whose objective
    or parameters went non-finite.  A single network's failure is raised.
    """
    stacked = not isinstance(net_config, NetworkConfig)
    configs = list(net_config) if stacked else [net_config]
    seeds = list(loop_seed) if stacked else [loop_seed]
    lams = np.array(lambda_ if stacked else [lambda_], dtype=np.float64)
    if not configs or len(seeds) != len(configs) or lams.shape != (len(configs),):
        raise ConfigError("a stack needs one config, one loop seed and one lambda per network")
    net = configs[0]
    if any(c.layer_sizes != net.layer_sizes or c.dropout_prob != net.dropout_prob for c in configs):
        raise ConfigError("stacked networks must share one architecture")
    if not np.all((lams >= 0.0) & (lams <= 1.0)):
        raise ConfigError(f"lambda must lie in [0, 1], got {lambda_}")
    if penalty_mode not in PENALTY_MODES:
        raise ConfigError(f"unknown penalty mode {penalty_mode!r}")
    features, labels = _validated_data(features, labels, net)
    needs_penalty = bool(np.any(lams > 0.0))
    if needs_penalty:
        if sensitives is None or propensities is None:
            raise ConfigError("lambda > 0 requires sensitives and propensities")
        sensitives, propensities = _validated_groups(sensitives, propensities, labels.shape[0])
    else:
        sensitives = propensities = None

    # Adam steps all parameters of a member in place as one row of a (K, P)
    # array; forward and backward read them through per-layer views of it.
    inits = [init_network(c) for c in configs]
    flat = np.stack([_flatten(p) for p in inits])
    params = _unflatten(flat, [a.shape for a in (*inits[0].weights, *inits[0].biases)])
    adam = AdamState(
        np.zeros_like(flat), np.zeros_like(flat), learning_rate=np.full(len(configs), train_config.learning_rate)
    )
    scheds = [
        PlateauScheduler(factor=train_config.scheduler_factor, patience=train_config.scheduler_patience)
        for _ in configs
    ]
    rngs = [np.random.default_rng(s) for s in seeds]
    results: list[FitResult | TrainingError] = [FitResult(params=None) for _ in configs]
    alive = np.ones(len(configs), dtype=bool)  # members that have not failed
    n = labels.shape[0]
    indices = np.arange(n)

    for epoch in range(train_config.epochs):
        # One shuffled pass per member: minibatches with a single batch of all
        # n rows draws the member's epoch permutation exactly as a lone fit
        # does.  Stacked, the passes give (K, n, ...) arrays, and step j takes
        # rows [j * batch_size, (j + 1) * batch_size), the partition
        # minibatches makes.
        passes = [
            minibatches(
                indices,
                n,
                rng,
                features=features,
                sensitives=sensitives,
                labels=labels,
                propensities=propensities,
            )[0]
            for rng in rngs
        ]
        x_epoch, y_epoch = _stack([mb.features for mb in passes]), _stack([mb.labels for mb in passes])
        if needs_penalty:
            a_epoch = _stack([mb.sensitives for mb in passes])
            e_epoch = _stack([mb.propensities for mb in passes])
        starts = range(0, n, train_config.batch_size)
        shape = (len(configs), len(starts))
        risks, unfairness = np.empty(shape), np.empty(shape)
        skipped = np.zeros(len(configs), dtype=int)
        for j, start in enumerate(starts):
            batch = slice(start, start + train_config.batch_size)
            weights = None
            if needs_penalty:
                weights = overlap_weights(e_epoch[:, batch], a_epoch[:, batch], validate=False)
                fallback = weights.degenerate & (lams > 0.0) & alive
                if fallback.any():
                    skipped += fallback
                    log.debug(
                        "epoch %d: %d network(s) drew a batch with a single sensitive group; "
                        "using the risk branch",
                        epoch,
                        int(fallback.sum()),
                    )
            x, y = x_epoch[:, batch], y_epoch[:, batch]
            trace = forward(params, net, x, MODE_TRAIN, rng=rngs, validate=False)
            back = backward_composite(trace, params, net, y, weights, lams, bounds, penalty_mode)
            adam_step(adam, flat, _flatten(back.gradients))
            risks[:, j] = back.risk
            unfairness[:, j] = back.unfairness

        epoch_means = _objective_value(risks, unfairness, lams[:, None], bounds).mean(axis=1)
        failed = alive & ~(np.isfinite(epoch_means) & np.isfinite(flat).all(axis=1))
        for i in np.flatnonzero(alive):
            mean, lr = float(epoch_means[i]), float(adam.learning_rate[i])
            if failed[i]:
                results[i] = TrainingError(
                    f"epoch {epoch}: non-finite objective {mean} or parameters "
                    f"(lambda={lams[i]}, lr={lr})"
                )
                continue
            res = results[i]
            res.risk_range = _widen(res.risk_range, risks[i])
            res.unfairness_range = _widen(res.unfairness_range, unfairness[i])
            res.skipped_group_batches += int(skipped[i])
            res.epoch_objectives.append(mean)
            adam.learning_rate[i] = scheds[i].step(mean, lr)
        if failed.any():
            # A failed member stays in the stack, zeroed so that its later steps
            # compute finite numbers; the others' arithmetic never mixes with its.
            alive &= ~failed
            if not alive.any():
                break
            for rows in (flat, adam.first_moment, adam.second_moment):
                rows[failed] = 0.0

    for i in np.flatnonzero(alive):
        results[i].params = params.member(i)
        results[i].final_learning_rate = float(adam.learning_rate[i])
    if stacked:
        return results
    if isinstance(results[0], TrainingError):
        raise results[0]
    return results[0]


def _widen(range_: tuple[float, float], series: np.ndarray) -> tuple[float, float]:
    # range_ widened to the non-nan entries of series (fmin and fmax skip nan)
    return float(np.fmin.reduce(series, initial=range_[0])), float(np.fmax.reduce(series, initial=range_[1]))


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0][np.newaxis] if len(arrays) == 1 else np.stack(arrays)


def _validated_data(features, labels, net: NetworkConfig) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.layer_sizes[0]:
        raise ShapeError(f"features of shape {x.shape} do not fit a network with {net.layer_sizes[0]} inputs")
    if y.shape != (x.shape[0],):
        raise ConfigError("features and labels disagree on the row count")
    if x.shape[0] == 0:
        raise InputError("no training rows")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputError("features and labels must be finite")
    return x, y


def _validated_groups(sensitives, propensities, n: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(sensitives)
    e = np.asarray(propensities, dtype=np.float64)
    if a.shape != (n,) or e.shape != (n,):
        raise ShapeError(f"sensitives {a.shape} and propensities {e.shape} must have {n} entries")
    if not np.isin(a, (0, 1)).all():
        raise InputError("sensitives must contain only 0/1 values")
    if not np.all((e > 0.0) & (e < 1.0)):
        raise InputError("propensities must lie strictly inside (0, 1)")
    return a, e


def _objective_value(risk, unfairness, lambda_, bounds: StandardisationBounds | None):
    """Scalarised objective of each step, elementwise in its risk and penalty."""
    bounds = IDENTITY_BOUNDS if bounds is None else bounds
    r_t = (1.0 - lambda_) * bounds.standardise_risk(risk)
    u_t = bounds.standardise_unfairness(unfairness)
    # lambda = 0 and single-group fallback steps are pure-risk steps
    pure_risk = (lambda_ == 0.0) | np.isnan(unfairness)
    return np.where(pure_risk, r_t, np.where(lambda_ == 1.0, u_t, np.maximum(r_t, lambda_ * u_t)))
