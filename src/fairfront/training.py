"""Shared minibatch training loop.

One engine drives every gradient-trained network in the package: plain BCE
fits (classifier endpoints, the propensity model), penalty-only fits, and
interior Chebyshev fits.  Identity standardisation bounds make the lambda = 0
path literally a pure-BCE trainer, which is what the endpoint runs use while
recording the risk/unfairness ranges.  The objective and its single-group
fallback are network.backward_composite's; the loop reads what it returns.

The engine trains K >= 1 networks as one stack: each step is one stacked
forward, backward and Adam update for all K.  fit_network takes one feature
matrix, shared by the stack, and every per-member argument as a list with
one entry per member, and returns one result per member; one network is a
stack of one, and its failure is returned like any member's.  The members
share one NetworkConfig; each has its own seeds, lambda, bounds and
training set: its rows of the matrix (feature_rows), all of one row count,
such as the splits of a sweep's split group.  A step gathers its slice of
every member's epoch order, so the loop never copies a member's training
rows whole.  Each member also keeps its own loop generator (epoch shuffles
and dropout draws), learning-rate schedule and finiteness guard, so a
member's numbers equal those of the same network trained as a stack of one,
and a diverging member fails alone.
The stack keeps its shape for the whole fit: a failed member keeps its row
as zeros, so the remaining steps stay finite, and is no longer read.
_ParameterStack holds such a stack's parameters and Adam state, for this
loop and for both players of the adversarial baseline.
"""
from __future__ import annotations

import ctypes
import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .data import minibatches
from .errors import POSITIVE, SEED, ConfigError, TrainingError, at_least, check_fields, check_value, rule
from .metrics import _as_binary, _validated_groups, overlap_weights
from .network import (
    MODE_TRAIN,
    NetworkConfig,
    NetworkParams,
    StandardisationBounds,
    _flatten,
    _unflatten,
    _validated_features,
    _validated_rows,
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
    """Two independent 64-bit streams keyed by a tuple of seeds (integers >= 0)."""
    state = np.random.SeedSequence([check_value("seed", k, **SEED) for k in keys]).generate_state(4, dtype=np.uint64)
    return int(state[0]), int(state[1])


class _ParameterStack:
    """K networks of one architecture as one (K, P) parameter array, with their Adam state.

    ``params`` holds per-layer views of ``flat``, so that one in-place
    adam_step(stack.adam, stack.flat, _flatten(grads)) updates every member,
    and the views see it.  Member k starts from init_network(config,
    seeds[k]); every member steps at learning_rate until its entry of
    adam.learning_rate is changed.
    """

    def __init__(self, config: NetworkConfig, seeds: list[int], learning_rate: float):
        inits = [init_network(config, seed) for seed in seeds]
        self.flat = np.stack([_flatten(p) for p in inits])
        self.params = _unflatten(self.flat, [a.shape for a in (*inits[0].weights, *inits[0].biases)])
        self.adam = AdamState(
            np.zeros_like(self.flat), np.zeros_like(self.flat), learning_rate=np.full(len(seeds), learning_rate)
        )

    def finite(self) -> np.ndarray:
        """Per member, whether all its parameters are finite."""
        return np.isfinite(self.flat).all(axis=1)

    def zero(self, members: np.ndarray):
        """Zero the parameters and Adam moments of the selected members."""
        for rows in (self.flat, self.adam.first_moment, self.adam.second_moment):
            rows[members] = 0.0


def fit_network(
    features: np.ndarray,
    labels: list[np.ndarray],
    net_config: NetworkConfig,
    train_config: TrainConfig,
    seeds: list[tuple[int, int]],
    *,
    lambda_: list[float] | None = None,
    bounds: list[StandardisationBounds] | None = None,
    sensitives: list[np.ndarray] | None = None,
    propensities: list[np.ndarray] | None = None,
    feature_rows: list[np.ndarray] | None = None,
) -> list[FitResult | TrainingError]:
    """Adam-train a stack of K fresh networks, member k on its rows of features and labels[k].

    The members share the architecture net_config and the one 2-d feature
    matrix ``features``; anything else there raises ShapeError.  Every
    per-member argument is a list of K, one entry per network: the (init
    seed, loop seed) pairs, lambdas (None trains every member at
    lambda = 0) and labels, and the sensitives, propensities, bounds and
    feature_rows when given.  With feature_rows, member k trains on the
    rows features[feature_rows[k]], in that order: each entry is a 1-d
    integer array of row indices, and labels[k], sensitives[k] and
    propensities[k] hold one entry per listed row.  Without it every member
    trains on every row.  The members' row counts must agree.  Any other
    form, a bare value or a seed that is not an integer >= 0 included,
    raises ConfigError naming the argument; one network is a stack of one.
    A lambda > 0 penalises the last hidden layer, so once the arguments
    pass, a stack with one and a network without (num_layers 1) raises
    ConfigError.

    The per-step objective is max{(1-lambda)*R~, lambda*U~}; with bounds=None
    the standardisation is the identity, so lambda = 0 yields plain BCE
    descent and lambda = 1 plain penalty descent.  The plateau scheduler is
    driven by the epoch mean of the step objectives backward_composite
    returns.  Initialisation is deterministic in the init seed, shuffling
    (one order of a member's rows per epoch, cut into batch_size slices) and
    dropout in the loop seed; a minibatch containing a single sensitive
    group falls back to the risk branch (its unfairness comes back nan), is
    counted in skipped_group_batches and is excluded from the unfairness range.

    Returns K entries: a FitResult, or the TrainingError of a member whose
    objective or parameters went non-finite.
    """
    pairs, lams = _stack_members(seeds, lambda_)
    k = len(pairs)
    if not isinstance(net_config, NetworkConfig):
        raise ConfigError(f"net_config must be one NetworkConfig, shared by the stack; got {net_config!r}")
    needs_penalty = bool(np.any(lams > 0.0))
    if needs_penalty and (sensitives is None or propensities is None):
        raise ConfigError("lambda > 0 requires sensitives and propensities")
    x = _validated_features(features, net_config)
    row_lists = [None] * k if feature_rows is None else _members("feature_rows", feature_rows, k)
    member_rows = [np.arange(len(x)) if r is None else _validated_rows(r, len(x)) for r in row_lists]
    # Each member's per-row vectors, one entry per listed row, validated.
    ys = _members("labels", labels, k)
    columns = {"labels": [_as_binary(y, "labels", len(r)).astype(np.float64) for y, r in zip(ys, member_rows)]}
    if needs_penalty:
        a_s, e_s = _members("sensitives", sensitives, k), _members("propensities", propensities, k)
        groups = [_validated_groups(a, e, len(r)) for a, e, r in zip(a_s, e_s, member_rows)]
        columns.update(sensitives=[a for a, _ in groups], propensities=[e for _, e in groups])
    n = len(member_rows[0])
    if any(len(r) != n for r in member_rows):
        raise ConfigError("stacked training sets must have equal row counts")
    if bounds is not None:
        bounds = StandardisationBounds.stack(_members("bounds", bounds, k))
    if needs_penalty and net_config.num_layers < 2:
        raise ConfigError(f"lambda > 0 penalises a hidden layer, and layer_sizes {net_config.layer_sizes} has none")

    _settle_malloc()
    stack = _ParameterStack(net_config, [init_seed for init_seed, _ in pairs], train_config.learning_rate)
    params, adam = stack.params, stack.adam
    scheds = [
        PlateauScheduler(factor=train_config.scheduler_factor, patience=train_config.scheduler_patience)
        for _ in range(k)
    ]
    rngs = [np.random.default_rng(loop_seed) for _, loop_seed in pairs]
    results: list[FitResult | TrainingError] = [FitResult(params=None) for _ in range(k)]
    alive = np.ones(k, dtype=bool)  # members that have not failed
    indices = np.arange(n)

    # The stack's rows: the feature matrix and each per-row vector as (K, n),
    # so that a step gathers each array for all K members in one np.take.
    member_rows = np.stack(member_rows)
    columns = {name: np.stack(vectors) for name, vectors in columns.items()}
    member_base = (np.arange(k) * n)[:, None]

    for epoch in range(train_config.epochs):
        # One shuffled pass per member, drawn as minibatches(indices,
        # batch_size, rng) draws it and cut into the batches it makes.  order
        # holds positions in the flattened (K, n) vectors, order_rows the
        # feature rows they hold.
        order = np.stack([minibatches(indices, n, rng)[0].indices for rng in rngs]) + member_base
        order_rows = member_rows.take(order)
        starts = range(0, n, train_config.batch_size)
        shape = (k, len(starts))
        risks, unfairness, objectives = np.empty(shape), np.empty(shape), np.empty(shape)
        for j, start in enumerate(starts):
            batch = slice(start, start + train_config.batch_size)
            xb = x.take(order_rows[:, batch], axis=0)
            rows = {name: c.take(order[:, batch]) for name, c in columns.items()}
            weights = None
            if needs_penalty:
                weights = overlap_weights(rows["propensities"], rows["sensitives"])
            trace = forward(params, net_config, xb, MODE_TRAIN, rng=rngs)
            back = backward_composite(trace, params, net_config, rows["labels"], weights, lams, bounds)
            # Free this step's activations before the next forward allocates its
            # own, so that a step holds one trace, not two.
            del trace
            adam_step(adam, stack.flat, _flatten(back.gradients))
            risks[:, j], unfairness[:, j], objectives[:, j] = back.risk, back.unfairness, back.objective
            # Free the rest of the step too, so that the next step's arrays are
            # allocated into the blocks these free: every step of a fit then
            # gathers its rows into one address, not into a block anywhere in a
            # few MB of heap, whose cache misses make sweep times swing.
            del xb, rows, weights, back

        # lambda > 0 steps that came back without an unfairness fell back to the risk branch
        skipped = (np.isnan(unfairness) & ((lams > 0.0) & alive)[:, None]).sum(axis=1)
        if skipped.any():
            log.debug("epoch %d: %d single-group batch(es) took the risk branch", epoch, skipped.sum())
        epoch_means = objectives.mean(axis=1)
        failed = alive & ~(np.isfinite(epoch_means) & stack.finite())
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
            stack.zero(failed)

    for i in np.flatnonzero(alive):
        results[i].params = params.member(i)
        results[i].final_learning_rate = float(adam.learning_rate[i])
    return results


def _widen(range_: tuple[float, float], series: np.ndarray) -> tuple[float, float]:
    # range_ widened to the non-nan entries of series (fmin and fmax skip nan)
    return float(np.fmin.reduce(series, initial=range_[0])), float(np.fmax.reduce(series, initial=range_[1]))


def _seed_pair(name: str, pair) -> tuple[int, int]:
    """An (init seed, loop seed) pair, each an integer >= 0; else ConfigError naming ``name``."""
    if not isinstance(pair, (tuple, list)) or len(pair) != 2:
        raise ConfigError(f"{name} must be an (init seed, loop seed) pair, got {pair!r}")
    return check_value(f"{name}[0]", pair[0], **SEED), check_value(f"{name}[1]", pair[1], **SEED)


def _stack_members(seeds, lambda_) -> tuple[list[tuple[int, int]], np.ndarray]:
    """A stack's (init seed, loop seed) pairs and its lambdas in [0, 1], as a (K,) array.

    Both arguments are lists of K, one entry per network (_members); lambda_
    None puts every member at lambda = 0.  Any other form raises ConfigError.
    """
    k = len(seeds) if isinstance(seeds, list) else 1
    pairs = [_seed_pair(f"seeds[{i}]", s) for i, s in enumerate(_members("seeds", seeds, k))]
    lams = np.zeros(k) if lambda_ is None else np.array(_members("lambda_", lambda_, k), dtype=np.float64)
    if not pairs:
        raise ConfigError("a stack needs at least one network")
    if not np.all((lams >= 0.0) & (lams <= 1.0)):
        raise ConfigError(f"lambda must lie in [0, 1], got {lambda_}")
    return pairs, lams


def _members(name: str, value, k: int) -> list:
    """A stack's argument ``name``, which must be a list of K, one entry per member."""
    if not isinstance(value, list) or len(value) != k:
        got = f"{len(value)} entries" if isinstance(value, list) else type(value).__name__
        raise ConfigError(f"a stack of {k} takes {name} as a list of {k}, one per network; got {got}")
    return value


# glibc's malloc thresholds (mallopt(3)) as they settle once a process has
# freed a block of 32 MB, the most its dynamic threshold adjusts to: blocks
# under 32 MB come from the heap, which keeps up to 64 MB free at its top.  A
# training step allocates and frees arrays of up to a few MB (its trace); at
# the initial 128 kB thresholds each is mapped, or the heap trimmed, and its
# pages faulted in again at every step.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLDS = {_M_MMAP_THRESHOLD: 32 * 2**20, _M_TRIM_THRESHOLD: 64 * 2**20}


@functools.cache
def _mallopt():
    # the C library's int mallopt(int param, int value), or None where it has none
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def _settle_malloc() -> None:
    """Set the C allocator's thresholds to MALLOC_THRESHOLDS; nothing where the C library has no mallopt.

    Every trainer calls it before its first step, so each process that trains
    (a sweep's forked workers included) steps at the settled thresholds.  It
    changes no number, and the setting stays: glibc has no way back to its
    dynamic thresholds.
    """
    mallopt = _mallopt()
    if mallopt is not None:
        for param, value in MALLOC_THRESHOLDS.items():
            mallopt(param, value)
