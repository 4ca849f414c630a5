"""Shared minibatch training loop.

One engine drives every gradient-trained network in the package: plain BCE
fits (classifier endpoints, the propensity model), penalty-only fits, and
interior Chebyshev fits.  Identity standardisation bounds make the lambda = 0
path literally a pure-BCE trainer, which is what the endpoint runs use while
recording the risk/unfairness ranges.  The objective and its single-group
fallback are network.backward_composite's; the loop reads what it returns.

The engine trains K >= 1 networks as one stack: each step is one stacked
forward, backward and Adam update for all K.  fit_network takes every
per-member argument as a list with one entry per member and returns one
result per member; one network is a stack of one, and its failure is
returned like any member's.  Each member has its own config, lambda and
training set, all of one row count (the splits of a sweep's split group, or
one split's rows repeated), and its own standardisation bounds.  Each member
also keeps its own loop generator (epoch shuffles and dropout draws),
learning-rate schedule and finiteness guard, so a member's numbers equal
those of the same network trained as a stack of one, and a diverging member
fails alone.
The stack keeps its shape for the whole fit: a failed member keeps its row
as zeros, so the remaining steps stay finite, and is no longer read.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import minibatches
from .errors import POSITIVE, ConfigError, TrainingError, at_least, check_fields, rule
from .metrics import PENALTY_MODES, PENALTY_PENULTIMATE, _validated_groups, overlap_weights
from .network import (
    MODE_TRAIN,
    NetworkConfig,
    NetworkParams,
    StandardisationBounds,
    _flatten,
    _unflatten,
    _validated_data,
    backward_composite,
    forward,
    init_network,
)
from .optim import AdamState, PlateauScheduler, adam_step

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Loop hyperparameters, orthogonal to the architecture."""

    epochs: int = field(default=500, metadata=at_least(1))
    batch_size: int = field(default=128, metadata=at_least(1))
    learning_rate: float = field(default=1e-3, metadata=POSITIVE)
    scheduler_factor: float = field(default=0.9, metadata=rule(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"))
    scheduler_patience: int = field(default=10, metadata=at_least(0))

    __post_init__ = check_fields


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
    features: list[np.ndarray],
    labels: list[np.ndarray],
    net_config: list[NetworkConfig],
    train_config: TrainConfig,
    loop_seed: list[int],
    *,
    lambda_: list[float] | None = None,
    bounds: list[StandardisationBounds] | None = None,
    sensitives: list[np.ndarray] | None = None,
    propensities: list[np.ndarray] | None = None,
    penalty_mode: str = PENALTY_PENULTIMATE,
) -> list[FitResult | TrainingError]:
    """Adam-train a stack of K fresh networks, member k on (features[k], labels[k]).

    Every per-member argument is a list of K, one entry per network: the
    configs (one architecture, one init seed each), loop seeds, lambdas
    (None trains every member at lambda = 0), features and labels, and the
    sensitives, propensities and bounds when given.  The members' row counts
    must agree.  Any other form, a bare value included, raises ConfigError
    naming the argument; one network is a stack of one.

    The per-step objective is max{(1-lambda)*R~, lambda*U~}; with bounds=None
    the standardisation is the identity, so lambda = 0 yields plain BCE
    descent and lambda = 1 plain penalty descent.  The plateau scheduler is
    driven by the epoch mean of the step objectives backward_composite
    returns.  Initialisation is deterministic in net_config.seed, shuffling
    and dropout in loop_seed; a minibatch containing a single sensitive group
    falls back to the risk branch (its unfairness comes back nan), is counted
    in skipped_group_batches and is excluded from the unfairness range.

    Returns K entries: a FitResult, or the TrainingError of a member whose
    objective or parameters went non-finite.
    """
    k = len(net_config) if isinstance(net_config, list) else 1
    configs, seeds = _members("net_config", net_config, k), _members("loop_seed", loop_seed, k)
    lams = np.zeros(k) if lambda_ is None else np.array(_members("lambda_", lambda_, k), dtype=np.float64)
    if not configs:
        raise ConfigError("a stack needs at least one network")
    net = configs[0]
    if any(c.layer_sizes != net.layer_sizes or c.dropout_prob != net.dropout_prob for c in configs):
        raise ConfigError("stacked networks must share one architecture")
    if not np.all((lams >= 0.0) & (lams <= 1.0)):
        raise ConfigError(f"lambda must lie in [0, 1], got {lambda_}")
    if penalty_mode not in PENALTY_MODES:
        raise ConfigError(f"unknown penalty mode {penalty_mode!r}")
    needs_penalty = bool(np.any(lams > 0.0))
    if needs_penalty and (sensitives is None or propensities is None):
        raise ConfigError("lambda > 0 requires sensitives and propensities")
    # Each member's training set (x, y, a, e), validated.
    data = [_members("features", features, k), _members("labels", labels, k)]
    data += [
        _members(name, v, k) if needs_penalty else [None] * k
        for name, v in (("sensitives", sensitives), ("propensities", propensities))
    ]
    sets = []
    for x, y, a, e in zip(*data):
        x, y = _validated_data(x, y, net)
        if needs_penalty:
            a, e = _validated_groups(a, e, y.shape[0])
        sets.append((x, y, a, e))
    n = sets[0][1].shape[0]
    if any(y.shape[0] != n for _, y, _, _ in sets):
        raise ConfigError("stacked training sets must have equal row counts")
    if bounds is not None:
        bounds = StandardisationBounds.stack(_members("bounds", bounds, k))

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
    indices = np.arange(n)

    # Each epoch's shuffled rows of every member, (K, n, ...) per array,
    # gathered straight into these buffers so that no epoch holds two copies.
    epoch_rows = {"features": np.empty((k, n, net.layer_sizes[0])), "labels": np.empty((k, n))}
    if needs_penalty:
        epoch_rows.update(sensitives=np.empty((k, n), dtype=sets[0][2].dtype), propensities=np.empty((k, n)))

    for epoch in range(train_config.epochs):
        # One shuffled pass per member: minibatches with a single batch of all
        # n rows draws the member's epoch permutation exactly as
        # minibatches(indices, batch_size, rng) does.  Step j takes rows
        # [j * batch_size, (j + 1) * batch_size) of it, the partition
        # minibatches makes.
        for i, (rng, (x, y, a, e)) in enumerate(zip(rngs, sets)):
            member_rows = {name: rows[i] for name, rows in epoch_rows.items()}
            minibatches(indices, n, rng, features=x, sensitives=a, labels=y, propensities=e, out=member_rows)
        starts = range(0, n, train_config.batch_size)
        shape = (len(configs), len(starts))
        risks, unfairness, objectives = np.empty(shape), np.empty(shape), np.empty(shape)
        for j, start in enumerate(starts):
            batch = slice(start, start + train_config.batch_size)
            weights = None
            if needs_penalty:
                weights = overlap_weights(epoch_rows["propensities"][:, batch], epoch_rows["sensitives"][:, batch])
            x, y = epoch_rows["features"][:, batch], epoch_rows["labels"][:, batch]
            trace = forward(params, net, x, MODE_TRAIN, rng=rngs)
            back = backward_composite(trace, params, net, y, weights, lams, bounds, penalty_mode)
            # Free this step's activations before the next forward allocates its
            # own, so that a step holds one trace, not two.
            del trace
            adam_step(adam, flat, _flatten(back.gradients))
            risks[:, j], unfairness[:, j], objectives[:, j] = back.risk, back.unfairness, back.objective

        # lambda > 0 steps that came back without an unfairness fell back to the risk branch
        skipped = (np.isnan(unfairness) & ((lams > 0.0) & alive)[:, None]).sum(axis=1)
        if skipped.any():
            log.debug("epoch %d: %d single-group batch(es) took the risk branch", epoch, skipped.sum())
        epoch_means = objectives.mean(axis=1)
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
    return results


def _widen(range_: tuple[float, float], series: np.ndarray) -> tuple[float, float]:
    # range_ widened to the non-nan entries of series (fmin and fmax skip nan)
    return float(np.fmin.reduce(series, initial=range_[0])), float(np.fmax.reduce(series, initial=range_[1]))


def _members(name: str, value, k: int) -> list:
    """A stack's argument ``name``, which must be a list of K, one entry per member."""
    if not isinstance(value, list) or len(value) != k:
        got = f"{len(value)} entries" if isinstance(value, list) else type(value).__name__
        raise ConfigError(f"a stack of {k} takes {name} as a list of {k}, one per network; got {got}")
    return value
