"""Chebyshev-scalarised sweep over the risk/unfairness trade-off.

For each train/test split the sweep trains one classifier per lambda on the
objective max{(1-lambda) * R~, lambda * U~}.  The two endpoint runs double as
the standardisation-bound discovery: the lambda = 0 run records the range of
minibatch risks, the lambda = 1 run the range of minibatch penalties, and the
endpoint models are reused as the lambda = 0 / lambda = 1 candidates instead
of being retrained.

The sweep runs its splits in split groups (split_groups): at most
stack_size() // 2 splits, the number whose endpoints fit one stack, and at
least one group per worker.  A group trains in phases, each phase's
networks stacked across its splits (see training.fit_network, which takes
one training set and one set of bounds per stack member):

1. the propensity models, in stacks of at most stack_size() networks, each
   then temperature-calibrated on its split's holdout;
2. the endpoints (lambda = 0 and lambda = 1 of every split), which set each
   split's bounds;
3. the interior lambdas of the splits whose endpoints succeeded, in stacks
   of at most stack_size() networks that mix splits;
4. per split, the scoring of every candidate on the split's test rows,
   whose propensity scores are predicted once.

Phases 2 and 3 are discover_bounds and train_scalarised, which take the
group's TrainingSplits (with their bounds, for the interior) and hand
_fit_stacks one (split, lambda, seed pair, bounds) entry per network;
_fit_stacks alone turns those into fit_network's per-member lists, beside
the splits' one feature matrix.  Every phase of either sweep cuts its
networks into stacks with _train_in_stacks.  A stacked network's numbers
equal those of the same network trained alone, so results depend neither
on the stack size nor on the grouping, and a split whose propensity fit or
endpoints fail fails alone.

This sweep and the adversarial one (adversarial.run_adversarial_sweep) run
one split stage, _split_stage: the same splits, calibrated propensity models,
seed streams, test scoring, failure records and pool dispatch.  Each sweep
plugs in only its trainer of a group's splits, whose stacks mix the splits;
this module's is _train_scalarised_group.

A group's payload holds its splits' index arrays, never rows: the split
stage reads the dataset that _run_splits installs for the sweep.  Forked
pool workers inherit it with the rest of the module, so they read the
parent's rows copy-on-write instead of each unpickling a copy.  Each group
returns one SweepResult, and _run_splits merges them.
"""
from __future__ import annotations

import csv
import ctypes
import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, SplitPlan, make_splits
from .errors import (
    DROPOUT,
    FRACTION,
    ConfigError,
    FairfrontError,
    InputError,
    ShapeError,
    TrainingError,
    at_least,
    check_fields,
    check_value,
    open_input,
)
from .evaluation import METRIC_NAMES, evaluate_test_metrics
from .network import NetworkConfig, NetworkParams, StandardisationBounds
from .propensity import PropensityConfig, calibrate_temperature, predict_propensity, train_propensity
from .training import FitResult, TrainConfig, derive_seeds, fit_network

log = logging.getLogger(__name__)

LAMBDA_INTERIOR_LOW = 1e-2
LAMBDA_INTERIOR_HIGH = 0.9

CSV_HEADER = ["split_id", "lambda", *METRIC_NAMES, "nondominated_ato"]

# A failed job of these kinds is recorded and the sweep goes on; any other
# exception is a programming error and propagates.
EXPECTED_FAILURES = (FairfrontError, ArithmeticError)

# Stacking pays while a step's arrays are small enough for numpy's per-call
# overhead to dominate.  A stack holds STACK_CAP // (batch_size x widest layer)
# networks, at least one.  Measured per network step with the C allocator's
# thresholds settled (training._settle_malloc), on 2 CPUs with BLAS pinned to
# one thread, best of 3 in each of two runs (README.md has the table): stacks
# of 5-24 at 250 x 10 took 0.30-0.39 of the separate time, 7 at 250 x 32
# 0.36-0.44 and 3 at 500 x 32 0.75-0.86; 2 at 1000 x 32 or 2000 x 32 read
# 0.71-0.98, and 2 or 5 at 2000 x 64 took longer than separate fits.
STACK_CAP = 60_000

# Stream tags keeping per-split auxiliary seeds clear of the lambda-job ids.
_PROPENSITY_STREAM = 2**33
_CALIBRATION_STREAM = 2**33 + 1


@dataclass
class LambdaGrid:
    """Ascending lambda values; endpoints 0 and 1 are always present."""

    values: list[float]

    def __post_init__(self):
        if len(self.values) < 2:
            raise ConfigError("a lambda grid needs at least the two endpoints")
        if self.values[0] != 0.0 or self.values[-1] != 1.0:
            raise ConfigError(f"lambda grid must run from 0 to 1, got {self.values[:3]}...")
        if not all(b > a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("lambda grid must be strictly ascending")

    def __len__(self) -> int:
        return len(self.values)


def build_lambda_grid(count: int) -> LambdaGrid:
    """{0, 1} plus count - 2 geometrically spaced values in [1e-2, 0.9]."""
    interior = check_value("lambda_count", count, **at_least(2)) - 2
    if interior == 0:
        inner: list[float] = []
    elif interior == 1:
        inner = [float(np.sqrt(LAMBDA_INTERIOR_LOW * LAMBDA_INTERIOR_HIGH))]
    else:
        inner = [float(v) for v in np.geomspace(LAMBDA_INTERIOR_LOW, LAMBDA_INTERIOR_HIGH, interior)]
    return LambdaGrid(values=[0.0] + inner + [1.0])


@dataclass
class SweepConfig:
    """Everything run_sweep needs besides the data, splits and grid."""

    num_layers: int = field(default=2, metadata=at_least(1))
    hidden_width: int = field(default=8, metadata=at_least(1))
    dropout_prob: float = field(default=0.2, metadata=DROPOUT)
    train: TrainConfig = field(default_factory=TrainConfig)
    propensity: PropensityConfig = field(default_factory=PropensityConfig)
    calibration_fraction: float = field(default=0.2, metadata=FRACTION)

    __post_init__ = check_fields

    def layer_sizes(self, input_dim: int) -> list[int]:
        return [input_dim] + [self.hidden_width] * (self.num_layers - 1) + [1]


@dataclass
class BoundsResult:
    bounds: StandardisationBounds
    risk_fit: FitResult
    unfairness_fit: FitResult


@dataclass
class TrainingSplit:
    """A split's training rows and per-lambda seeds, as a sweep's trainer gets them.

    The training rows are features[train_idx]; the split holds the matrix
    (the dataset's, in a sweep) and the indices, not a copy of the rows.
    The splits that train together share the matrix.  The per-row vectors
    hold one entry per listed row.
    """

    features: np.ndarray
    train_idx: np.ndarray
    labels: np.ndarray  # float64
    sensitives: np.ndarray
    propensities: np.ndarray  # calibrated propensity scores of the rows
    template: NetworkConfig  # the classifier architecture, shared by the sweep
    seeds: list[tuple[int, int]]  # (init seed, loop seed) of each lambda index


def stack_size(batch_size: int, layer_sizes: list[int]) -> int:
    """How many networks of this shape train as one stack."""
    return max(1, STACK_CAP // (batch_size * max(layer_sizes)))


def _train_in_stacks(train, count: int, batch_size: int, layer_sizes: list[int]) -> list:
    """Train count networks of one shape, stack_size() at a time.

    train(stack) trains the networks that the slice ``stack`` selects as one
    stack and returns one entry per network.  Returns one entry per network:
    train's, or the expected failure of a stack that raised, for each of
    its networks.
    """
    size = stack_size(batch_size, layer_sizes)
    results = []
    for start in range(0, count, size):
        stack = slice(start, min(start + size, count))
        try:
            results += train(stack)
        except EXPECTED_FAILURES as exc:
            results += [exc] * (stack.stop - start)
    return results


def _fit_stacks(members: list[tuple], train_config: TrainConfig) -> list[FitResult | Exception]:
    """Train one network per member, stack_size() at a time.

    A member is (split, lambda, (init seed, loop seed), bounds): the network
    trains on the TrainingSplit's rows, read from the splits' one feature
    matrix by fit_network's feature_rows, with bounds None for the identity
    standardisation.  The splits share one architecture, their template.
    This is where a group's splits become fit_network's per-member lists.
    Returns one entry per member: the fit, or the expected failure that
    ended it (a stack that raises fails each of its networks).
    """
    if not members:
        return []
    splits, lambdas, seeds, bounds = (list(column) for column in zip(*members))
    features, template = splits[0].features, splits[0].template
    if any(s.features is not features for s in splits):
        raise ConfigError("the splits that train together must share one feature matrix")

    def fit(stack):
        return fit_network(
            features,
            [s.labels for s in splits[stack]],
            template,
            train_config,
            seeds[stack],
            lambda_=lambdas[stack],
            bounds=None if bounds[0] is None else bounds[stack],
            sensitives=[s.sensitives for s in splits[stack]],
            propensities=[s.propensities for s in splits[stack]],
            feature_rows=[s.train_idx for s in splits[stack]],
        )

    return _train_in_stacks(fit, len(members), train_config.batch_size, template.layer_sizes)


def discover_bounds(splits: list[TrainingSplit], train_config: TrainConfig) -> list[BoundsResult | Exception]:
    """Run each split's two endpoint trainings and collect its standardisation ranges.

    The lambda = 0 run (seeds split.seeds[0]) is plain BCE training; every
    minibatch risk it ever sees defines [risk_min, risk_max].  The lambda = 1
    run (split.seeds[-1]) is pure penalty descent and defines the unfairness
    range from the batches where the penalty was computable.  The endpoints
    of all the splits train as stacks of up to stack_size() networks.
    Returns, per split, a BoundsResult holding both trained models for
    reuse, or the expected failure that sank the split's endpoints.
    """
    fits = _fit_stacks(
        [(s, lam, seeds, None) for s in splits for lam, seeds in ((0.0, s.seeds[0]), (1.0, s.seeds[-1]))],
        train_config,
    )
    return [_endpoint_bounds(*fits[i : i + 2]) for i in range(0, len(fits), 2)]


def _endpoint_bounds(risk_fit, unfair_fit) -> BoundsResult | Exception:
    """A split's bounds from its endpoint fits, or the expected failure that prevents them."""
    try:
        for fit in (risk_fit, unfair_fit):
            if isinstance(fit, Exception):
                raise fit
        u_min, u_max = unfair_fit.unfairness_range
        if u_min > u_max:
            raise TrainingError("no minibatch of the lambda = 1 run contained both sensitive groups")
        bounds = StandardisationBounds(*risk_fit.risk_range, u_min, u_max)
    except EXPECTED_FAILURES as exc:
        return exc
    return BoundsResult(bounds=bounds, risk_fit=risk_fit, unfairness_fit=unfair_fit)


def train_scalarised(
    bounded: list[tuple[TrainingSplit, StandardisationBounds]],
    lambdas: list[float],
    train_config: TrainConfig,
) -> list[FitResult | Exception]:
    """Train the interior-lambda classifiers of each split against its frozen bounds.

    ``bounded`` pairs each split with its discovered bounds; lambdas[i]
    trains with the split's seeds[i + 1], the seeds of its lambda index in a
    grid whose endpoints flank ``lambdas``.  The networks of all the splits
    share stacks.  Returns one entry per (split, lambda), by split and then
    lambda: the fit, or the expected failure (a TrainingError of a diverged
    network, say) that ended it.
    """
    if any(bounds is None for _, bounds in bounded):
        raise ConfigError("train_scalarised needs discovered standardisation bounds")
    return _fit_stacks(
        [(s, lam, seeds, bounds) for s, bounds in bounded for lam, seeds in zip(lambdas, s.seeds[1:])],
        train_config,
    )


@dataclass
class ParetoCandidate:
    """One trained classifier with its held-out metric bundle."""

    split_id: int
    lambda_index: int
    lambda_: float
    params: NetworkParams
    net_config: NetworkConfig
    metrics: dict[str, float]
    final_epoch_objective: float
    final_learning_rate: float
    skipped_group_batches: int = 0


@dataclass
class SweepResult:
    candidates: list[ParetoCandidate]
    failures: list[dict]
    bounds: dict[int, StandardisationBounds] = field(default_factory=dict)
    propensity_models: dict[int, object] = field(default_factory=dict)


def run_sweep(
    dataset: Dataset, plan: SplitPlan, grid: LambdaGrid, config: SweepConfig, jobs: int = 1
) -> SweepResult:
    """Train and evaluate the full (split, lambda) grid of candidates.

    Per split: carve a calibration holdout, fit and temperature-calibrate the
    propensity model, discover standardisation bounds (whose endpoint models
    become the lambda = 0 and lambda = 1 candidates), then train the
    interior lambdas; each of these phases trains as stacks across the
    splits of a split group (see the module docstring).  Every candidate is
    scored on the split's test rows.
    Jobs that fail with a package error or a numeric error are recorded and
    the sweep continues; any other exception is a bug and propagates.  All
    randomness derives from (plan.master_seed, split_id, lambda_index), so
    results depend neither on the degree of parallelism nor on the stack
    size or grouping.  jobs, the number of worker processes, must be a
    positive integer.  The penalty reads a hidden layer, so a config with
    num_layers 1 raises ConfigError before any split runs.
    """
    if config.num_layers < 2:
        raise ConfigError(
            f"num_layers must be >= 2 in the scalarised sweep, whose penalty reads a hidden layer; "
            f"got {config.num_layers}"
        )
    return _run_splits(_split_worker, dataset, plan, grid, config, jobs, None)


def _split_worker(payload):
    return _split_stage(payload, _train_scalarised_group, "train_or_eval")


def _train_scalarised_group(splits: list[TrainingSplit], grid: LambdaGrid, config: SweepConfig, _extra):
    """The scalarised sweep's trainer: the group's endpoints, then its interior lambdas, stacked across splits.

    A split whose endpoints failed gets that failure, and none of its
    interior lambdas trains.
    """
    found = discover_bounds(splits, config.train)
    interior = grid.values[1:-1]
    bounded = [(split, res.bounds) for split, res in zip(splits, found) if not isinstance(res, Exception)]
    fits = iter(train_scalarised(bounded, interior, config.train))
    return [
        res if isinstance(res, Exception)
        else ([res.risk_fit, *(next(fits) for _ in interior), res.unfairness_fit], res.bounds)
        for res in found
    ]


def split_groups(num_splits: int, group_cap: int, jobs: int) -> list[range]:
    """Cut split ids 0..num_splits-1 into near-equal contiguous groups.

    There are as many groups as it takes to keep each within group_cap
    splits, and at least one per worker (up to one per split).
    """
    count = max(-(-num_splits // group_cap), min(jobs, num_splits))
    cuts = [i * num_splits // count for i in range(count + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def _openblas(symbol: str):
    """A function of numpy's bundled OpenBLAS, or None where there is no such function."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            return getattr(ctypes.CDLL(str(lib)), symbol)
        except (OSError, AttributeError):
            continue
    return None


def _set_blas_threads(count: int) -> int | None:
    """Set numpy's BLAS thread count; returns the previous one, or None (nothing set) without OpenBLAS."""
    get, set_ = _openblas("scipy_openblas_get_num_threads64_"), _openblas("scipy_openblas_set_num_threads64_")
    if get is None or set_ is None:
        return None
    previous = get()
    if previous != count:
        set_(count)
    return previous


# The dataset _split_stage reads, set by _run_splits for the sweep; forked
# pool workers inherit it like any other module state.
_dataset: Dataset | None = None


def _run_splits(
    worker, dataset: Dataset, plan: SplitPlan, grid: LambdaGrid, config: SweepConfig, jobs: int, extra
) -> SweepResult:
    """Run a sweep's split worker on every split group and merge the groups' SweepResults.

    ``worker`` is a module-level pool target calling _split_stage; ``extra``
    goes to its trainer.  A group holds at most as many splits as have their
    endpoints fit one stack (stack_size() // 2, at least one), and there is
    at least one group per worker.  A group's payload is (its splits'
    (split_id, train_idx, test_idx), grid, config, master seed, extra):
    index arrays, no rows.  The dataset is installed for the sweep and
    cleared after it, and the groups run in a process pool of forked workers
    when jobs > 1, in this process otherwise.  Either way with one BLAS
    thread (numpy's bundled OpenBLAS, where it is found): this process is
    pinned before the pool forks, and the workers inherit the pin.  A
    multi-threaded BLAS may round differently, and results must not depend
    on jobs.  The merged failures are ordered by (split_id, lambda_index).
    """
    global _dataset
    check_value("jobs", jobs, **at_least(1))
    splits = make_splits(dataset.n_rows, plan, sensitives=dataset.sensitives, labels=dataset.labels)
    group_cap = max(1, stack_size(config.train.batch_size, config.layer_sizes(dataset.n_features)) // 2)
    payloads = [
        ([(i, *splits[i]) for i in ids], grid, config, plan.master_seed, extra)
        for ids in split_groups(len(splits), group_cap, jobs)
    ]
    previous = _set_blas_threads(1)
    _dataset = dataset
    try:
        if jobs > 1 and len(payloads) > 1:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(payloads)),
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                results = list(pool.map(worker, payloads))
        else:
            results = [worker(p) for p in payloads]
    finally:
        _dataset = None
        if previous is not None:
            _set_blas_threads(previous)
    merged = SweepResult(candidates=[], failures=[])
    for res in results:
        merged.candidates += res.candidates
        merged.failures += res.failures
        merged.bounds.update(res.bounds)
        merged.propensity_models.update(res.propensity_models)
    merged.failures.sort(key=lambda f: (f["split_id"], f["lambda_index"]))
    for failure in merged.failures:
        log.warning("sweep job failed: %s", failure)
    return merged


def _failure_record(split_id: int, lambda_index: int, lambda_: float, stage: str, exc: Exception):
    """One failed (split, lambda) job, as SweepResult.failures lists it."""
    return {
        "split_id": split_id,
        "lambda_index": lambda_index,
        "lambda": lambda_,
        "stage": stage,
        "error": f"{type(exc).__name__}: {exc}",
    }


def _fail_split(split_id: int, grid: LambdaGrid, stage: str, exc: Exception) -> list[dict]:
    """The failure records of a split whose every lambda failed at ``stage``."""
    return [_failure_record(split_id, k, lam, stage, exc) for k, lam in enumerate(grid.values)]


def _fit_propensities(features, group, a_s, config: SweepConfig, master_seed: int) -> list:
    """Fit and calibrate each split's propensity model, and score its training and test rows.

    ``group`` lists each split's (split_id, train_idx, test_idx), indices
    into ``features``; a_s holds the sensitives of each split's training
    rows.  A calibration holdout of config.calibration_fraction of the
    training rows is carved off first.  The holdout and the model's seed
    come from (master_seed, split_id) on streams of their own, clear of the
    lambda jobs' seeds.  The splits' raw fits train on their rows of
    ``features`` in stacks of stack_size() networks, sized by the propensity
    batch and layers; each model is then temperature-calibrated on its
    holdout and scores its split's training and test rows.  Each of these
    row sets is gathered only for the call that reads it.  Returns, per
    split, (calibrated model, training scores, test scores), or the
    expected failure that sank any of these.
    """
    n = a_s[0].shape[0]
    n_cal = max(1, int(np.floor(config.calibration_fraction * n)))
    prop_seeds = [
        int(np.random.SeedSequence([master_seed, split_id, _PROPENSITY_STREAM]).generate_state(1)[0])
        for split_id, _, _ in group
    ]
    perms = [
        np.random.default_rng(np.random.SeedSequence([master_seed, split_id, _CALIBRATION_STREAM])).permutation(n)
        for split_id, _, _ in group
    ]
    fit_sensitives = [a[perm[n_cal:]] for a, perm in zip(a_s, perms)]
    fit_rows = [train_idx[perm[n_cal:]] for (_, train_idx, _), perm in zip(group, perms)]
    prop = config.propensity
    raw_models = _train_in_stacks(
        lambda s: train_propensity(features, fit_sensitives[s], prop, prop_seeds[s], feature_rows=fit_rows[s]),
        len(group),
        prop.batch_size,
        prop.layer_sizes(features.shape[1]),
    )
    scored = []
    for raw, (_, train_idx, test_idx), a, perm in zip(raw_models, group, a_s, perms):
        try:
            if isinstance(raw, Exception):
                raise raw
            model = calibrate_temperature(raw, features[train_idx[perm[:n_cal]]], a[perm[:n_cal]])
            scored.append(
                (model, predict_propensity(model, features[train_idx]), predict_propensity(model, features[test_idx]))
            )
        except EXPECTED_FAILURES as exc:
            scored.append(exc)
    return scored


def _split_stage(payload, train, stage: str) -> SweepResult:
    """Everything a group of splits does but training, around a sweep's trainer ``train``.

    Fits, calibrates and scores the splits' propensity models (stacked);
    a split whose model failed has every lambda fail at stage "propensity".
    Then ``train(splits, grid, config, extra)`` gets the other splits'
    TrainingSplits and returns, per split, either its fits (one FitResult or
    expected failure per lambda) and standardisation bounds (or None), or
    the expected failure that sank the split: every lambda of it fails at
    stage "bounds" (only the scalarised endpoints fail this way).  Each fit
    is scored on the split's test rows into a ParetoCandidate; a lambda
    whose training or scoring failed is recorded at ``stage``.  Returns the
    group's SweepResult; a split that failed as a whole has no bounds and
    no propensity model in it.

    ``payload`` is (group, grid, config, master_seed, extra), with group a
    list of (split_id, train_idx, test_idx): index arrays into the dataset
    that _run_splits installed for the sweep.  The stage reads the
    dataset's feature rows by those indices and holds no copy of a split's
    rows: a TrainingSplit carries the dataset's matrix and train_idx, and a
    split's test rows are gathered once, after training, to score its
    candidates.
    """
    group, grid, config, master_seed, extra = payload
    dataset = _dataset
    template = NetworkConfig(
        layer_sizes=config.layer_sizes(dataset.n_features), dropout_prob=config.dropout_prob
    )
    a_s = [dataset.sensitives[train_idx] for _, train_idx, _ in group]
    scored = _fit_propensities(dataset.features, group, a_s, config, master_seed)

    result = SweepResult(candidates=[], failures=[])
    trained = []  # (split_id, test_idx, test propensities, propensity model) of each split that trains
    splits: list[TrainingSplit] = []
    for (split_id, train_idx, test_idx), a_tr, prop in zip(group, a_s, scored):
        if isinstance(prop, Exception):
            result.failures += _fail_split(split_id, grid, "propensity", prop)
            continue
        model, e_tr, e_te = prop
        trained.append((split_id, test_idx, e_te, model))
        seeds = [derive_seeds(master_seed, split_id, k) for k in range(len(grid))]
        y_tr = dataset.labels[train_idx].astype(np.float64)
        splits.append(TrainingSplit(dataset.features, train_idx, y_tr, a_tr, e_tr, template, seeds))

    outcomes = train(splits, grid, config, extra) if splits else []
    for (split_id, test_idx, e_te, model), outcome in zip(trained, outcomes):
        if isinstance(outcome, Exception):
            result.failures += _fail_split(split_id, grid, "bounds", outcome)
            continue
        fits, bounds = outcome
        if bounds is not None:
            result.bounds[split_id] = bounds
        result.propensity_models[split_id] = model
        test = (dataset.features[test_idx], dataset.sensitives[test_idx], dataset.labels[test_idx], e_te)
        for k, (lam, fit) in enumerate(zip(grid.values, fits)):
            try:
                if isinstance(fit, Exception):
                    raise fit
                metrics = evaluate_test_metrics(fit.params, template, *test)
            except EXPECTED_FAILURES as exc:
                result.failures.append(_failure_record(split_id, k, lam, stage, exc))
                continue
            result.candidates.append(
                ParetoCandidate(
                    split_id=split_id,
                    lambda_index=k,
                    lambda_=lam,
                    params=fit.params,
                    net_config=template,
                    metrics=metrics,
                    final_epoch_objective=fit.epoch_objectives[-1],
                    final_learning_rate=fit.final_learning_rate,
                    skipped_group_batches=fit.skipped_group_batches,
                )
            )
        del test  # before the next split gathers its own
    return result


def cull_nondominated(risks, unfairness) -> np.ndarray:
    """Boolean keep-mask: True where no point weakly dominates with one strict edge.

    Point j dominates i when r_j <= r_i and u_j <= u_i with at least one
    inequality strict; exact duplicates of a non-dominated pair are all kept.
    Sort-and-scan, O(n log n).
    """
    r = np.asarray(risks, dtype=np.float64)
    u = np.asarray(unfairness, dtype=np.float64)
    if r.shape != u.shape or r.ndim != 1:
        raise ShapeError(f"risks {r.shape} and unfairness {u.shape} must be equal-length vectors")
    if r.size == 0:
        raise InputError("no points to cull")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(u))):
        raise InputError("culling requires finite coordinates")
    order = np.lexsort((u, r))
    keep = np.zeros(r.size, dtype=bool)
    best_u_prev = np.inf  # min u over strictly smaller r
    i = 0
    while i < r.size:
        j = i
        while j < r.size and r[order[j]] == r[order[i]]:
            j += 1
        group_min_u = u[order[i]]
        for k in range(i, j):
            idx = order[k]
            keep[idx] = u[idx] < best_u_prev and u[idx] == group_min_u
        best_u_prev = min(best_u_prev, group_min_u)
        i = j
    return keep


def chebyshev_toy_minimiser(lambda_: float, j1, j2) -> int:
    """Index minimising max{(1-lambda) * J1, lambda * J2} on a sampled curve."""
    a = np.asarray(j1, dtype=np.float64)
    b = np.asarray(j2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ShapeError("J1 and J2 must be equal-length non-empty vectors")
    return int(np.argmin(np.maximum((1.0 - lambda_) * a, lambda_ * b)))


def linear_toy_minimiser(lambda_: float, j1, j2) -> int:
    """Index minimising (1-lambda) * J1 + lambda * J2 on a sampled curve."""
    a = np.asarray(j1, dtype=np.float64)
    b = np.asarray(j2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ShapeError("J1 and J2 must be equal-length non-empty vectors")
    return int(np.argmin((1.0 - lambda_) * a + lambda_ * b))


def write_candidates_csv(path, candidates: list[ParetoCandidate]) -> np.ndarray:
    """Serialise candidates with a freshly computed (r_test, u_ato) keep-mask, and return the mask.

    Floats carry 17 significant digits so a rerun with identical numbers
    produces a byte-identical file.
    """
    if not candidates:
        raise InputError("no candidates to write")
    rows = [{"split_id": c.split_id, "lambda": c.lambda_, **c.metrics} for c in candidates]
    r = np.array([row["r_test"] for row in rows])
    u = np.array([row["u_ato"] for row in rows])
    keep = cull_nondominated(r, u)
    write_candidate_rows(path, rows, keep, CSV_HEADER[-1])
    return keep


def write_candidate_rows(path, rows: list[dict], keep: np.ndarray, mask_column: str):
    """Write candidate rows (split_id, lambda and the five metrics) plus a keep-mask column."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER[:-1] + [mask_column])
        for row, kept in zip(rows, keep):
            writer.writerow(
                [str(row["split_id"])]
                + [_fmt(row[name]) for name in CSV_HEADER[1:-1]]
                + [str(int(kept))]
            )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def read_candidates_csv(path) -> tuple[list[dict], str]:
    """Parse a candidates CSV; returns (rows, name-of-the-mask-column).

    Accepts any final column named nondominated_<metric> so culled copies can
    be re-culled.
    """
    with open_input(path, "candidates file", InputError, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty candidates file")
        width = len(CSV_HEADER)
        if header[:-1] != CSV_HEADER[:-1] or len(header) != width or not header[-1].startswith("nondominated"):
            raise InputError(f"{path}: unexpected candidates header {header}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise InputError(f"{path}:{line_no}: expected {width} cells, got {len(row)}")
            try:
                values = dict(zip(CSV_HEADER[1:-1], map(float, row[1:-1])))
                rows.append({"split_id": int(row[0]), **values, "nondominated": int(row[-1])})
            except ValueError as exc:
                raise InputError(f"{path}:{line_no}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no candidate rows")
    return rows, header[-1]
