"""Chebyshev-scalarised sweep over the risk/unfairness trade-off.

For each train/test split the sweep trains one classifier per lambda on the
objective max{(1-lambda) * R~, lambda * U~}.  The two endpoint runs double as
the standardisation-bound discovery: the lambda = 0 run records the range of
minibatch risks, the lambda = 1 run the range of minibatch penalties, and the
endpoint models are reused as the lambda = 0 / lambda = 1 candidates instead
of being retrained.

The classifiers of a split train as stacks (see training.fit_network): one
stack of the two endpoints, then the interior lambdas, each stack holding at
most stack_size() networks.  A stacked network's numbers equal those of the
same network trained alone, so results do not depend on the stack size.

This sweep and the adversarial one (adversarial.run_adversarial_sweep) run
one split stage, _split_stage: the same splits, calibrated propensity model,
seed streams, test scoring, failure records and pool dispatch.  Each sweep
plugs in only its per-split trainer; this module's is
_train_scalarised_split.
"""
from __future__ import annotations

import csv
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, SplitPlan, make_splits
from .errors import ConfigError, FairfrontError, InputError, ShapeError, TrainingError
from .evaluation import evaluate_test_metrics
from .metrics import PENALTY_MODES, PENALTY_PENULTIMATE
from .network import NetworkConfig, NetworkParams, StandardisationBounds
from .propensity import PropensityConfig, calibrate_temperature, predict_propensity, train_propensity
from .training import FitResult, TrainConfig, derive_seeds, fit_network

log = logging.getLogger(__name__)

LAMBDA_INTERIOR_LOW = 1e-2
LAMBDA_INTERIOR_HIGH = 0.9

CSV_HEADER = ["split_id", "lambda", "r_test", "u_ato", "mv_eo", "mv_eopp", "mv_dp", "nondominated_ato"]

# A failed job of these kinds is recorded and the sweep goes on; any other
# exception is a programming error and propagates.
EXPECTED_FAILURES = (FairfrontError, ArithmeticError)

# Stacking pays while a step's arrays are small enough for numpy's per-call
# overhead to dominate.  A stack holds STACK_CAP // (batch_size x widest layer)
# networks, at least one.  Measured per network step on 2 CPUs, BLAS pinned to
# one thread (README.md has the table): stacks of 5-12 at 250 x 10 took
# 0.41-0.46 of the separate time, 4 at 250 x 30 0.71, 2 at 500 x 32 0.94,
# and 2 at 1000 x 32 or 5 at 2000 x 64 took longer than separate fits.
STACK_CAP = 30_000

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
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("lambda grid must be strictly ascending")

    def __len__(self) -> int:
        return len(self.values)


def build_lambda_grid(count: int) -> LambdaGrid:
    """{0, 1} plus count - 2 geometrically spaced values in [1e-2, 0.9]."""
    if count < 2:
        raise ConfigError(f"lambda count must be >= 2, got {count}")
    interior = count - 2
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

    num_layers: int = 2
    hidden_width: int = 8
    dropout_prob: float = 0.2
    penalty_mode: str = PENALTY_PENULTIMATE
    train: TrainConfig = field(default_factory=TrainConfig)
    propensity: PropensityConfig = field(default_factory=PropensityConfig)
    calibration_fraction: float = 0.2

    def __post_init__(self):
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden_width < 1:
            raise ConfigError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ConfigError(f"dropout_prob must lie in [0, 1), got {self.dropout_prob}")
        if self.penalty_mode not in PENALTY_MODES:
            raise ConfigError(f"unknown penalty mode {self.penalty_mode!r}")
        if not 0.0 < self.calibration_fraction < 1.0:
            raise ConfigError("calibration_fraction must lie in (0, 1)")

    def layer_sizes(self, input_dim: int) -> list[int]:
        return [input_dim] + [self.hidden_width] * (self.num_layers - 1) + [1]


@dataclass
class BoundsResult:
    bounds: StandardisationBounds
    risk_fit: FitResult
    unfairness_fit: FitResult


def stack_size(batch_size: int, layer_sizes: list[int]) -> int:
    """How many networks of this shape train as one stack."""
    return max(1, STACK_CAP // (batch_size * max(layer_sizes)))


def _fit_stacks(
    features: np.ndarray,
    labels: np.ndarray,
    net_template: NetworkConfig,
    train_config: TrainConfig,
    lambdas: list[float],
    seeds: list[tuple[int, int]],
    **kw,
) -> list[FitResult | Exception]:
    """Train one network per (lambda, (init seed, loop seed)), stack_size() at a time.

    Returns one entry per lambda: the fit, or the expected failure that ended
    it (a stack that raises fails each of its networks).
    """
    size = stack_size(train_config.batch_size, net_template.layer_sizes)
    fits: list[FitResult | Exception] = []
    for i in range(0, len(lambdas), size):
        chunk = seeds[i : i + size]
        try:
            fits += fit_network(
                features,
                labels,
                [replace(net_template, seed=init_seed) for init_seed, _ in chunk],
                train_config,
                [loop_seed for _, loop_seed in chunk],
                lambda_=lambdas[i : i + size],
                **kw,
            )
        except EXPECTED_FAILURES as exc:
            fits += [exc] * len(chunk)
    return fits


def discover_bounds(
    features: np.ndarray,
    labels: np.ndarray,
    sensitives: np.ndarray,
    propensities: np.ndarray,
    net_template: NetworkConfig,
    train_config: TrainConfig,
    penalty_mode: str,
    risk_seeds: tuple[int, int],
    unfairness_seeds: tuple[int, int],
) -> BoundsResult:
    """Run the two endpoint trainings and collect the standardisation ranges.

    The lambda = 0 run is plain BCE training; every minibatch risk it ever
    sees defines [risk_min, risk_max].  The lambda = 1 run is pure penalty
    descent and defines the unfairness range from the batches where the
    penalty was computable.  Both trained models are returned for reuse.
    """
    risk_fit, unfair_fit = _fit_stacks(
        features,
        labels,
        net_template,
        train_config,
        [0.0, 1.0],
        [risk_seeds, unfairness_seeds],
        sensitives=sensitives,
        propensities=propensities,
        penalty_mode=penalty_mode,
    )
    for fit in (risk_fit, unfair_fit):
        if isinstance(fit, Exception):
            raise fit
    u_min, u_max = unfair_fit.unfairness_range
    if u_min > u_max:
        raise TrainingError("no minibatch of the lambda = 1 run contained both sensitive groups")
    bounds = StandardisationBounds(*risk_fit.risk_range, u_min, u_max)
    return BoundsResult(bounds=bounds, risk_fit=risk_fit, unfairness_fit=unfair_fit)


def train_scalarised(
    features: np.ndarray,
    labels: np.ndarray,
    sensitives: np.ndarray,
    propensities: np.ndarray,
    net_template: NetworkConfig,
    train_config: TrainConfig,
    lambdas: list[float],
    bounds: StandardisationBounds,
    penalty_mode: str,
    seeds: list[tuple[int, int]],
) -> list[FitResult | Exception]:
    """Train the interior-lambda classifiers against frozen bounds.

    seeds[i] is the (init seed, loop seed) pair of lambdas[i].  Returns one
    entry per lambda: the fit, or the expected failure (a TrainingError of a
    diverged network, say) that ended it.
    """
    if bounds is None:
        raise ConfigError("train_scalarised needs discovered standardisation bounds")
    return _fit_stacks(
        features,
        labels,
        net_template,
        train_config,
        lambdas,
        seeds,
        bounds=bounds,
        sensitives=sensitives,
        propensities=propensities,
        penalty_mode=penalty_mode,
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


@dataclass
class TrainingSplit:
    """A split's training rows and per-lambda seeds, as a sweep's trainer gets them."""

    features: np.ndarray
    labels: np.ndarray  # float64
    sensitives: np.ndarray
    propensities: np.ndarray  # calibrated propensity scores of the rows
    template: NetworkConfig  # the classifier architecture, seed unset
    seeds: list[tuple[int, int]]  # (init seed, loop seed) of each lambda index


def run_sweep(
    dataset: Dataset, plan: SplitPlan, grid: LambdaGrid, config: SweepConfig, jobs: int | None = 1
) -> SweepResult:
    """Train and evaluate the full (split, lambda) grid of candidates.

    Per split: carve a calibration holdout, fit and temperature-calibrate the
    propensity model, discover standardisation bounds (whose endpoint models
    become the lambda = 0 and lambda = 1 candidates), then train the
    interior lambdas.  Every candidate is scored on the split's test rows.
    Jobs that fail with a package error or a numeric error are recorded and
    the sweep continues; any other exception is a bug and propagates.  All
    randomness derives from (plan.master_seed, split_id, lambda_index), so
    results depend neither on the degree of parallelism nor on the stack
    size.  jobs=None runs one process per split, up to the CPU count; any
    other value must be a positive integer.
    """
    return _run_splits(_split_worker, dataset, plan, grid, config, jobs, None)


def _split_worker(payload):
    return _split_stage(payload, _train_scalarised_split, "train_or_eval")


def _train_scalarised_split(split: TrainingSplit, grid: LambdaGrid, config: SweepConfig, _extra):
    """The scalarised sweep's trainer: the endpoint stack, then the interior stacks."""
    rows = (split.features, split.labels, split.sensitives, split.propensities, split.template, config.train)
    bounds_res = discover_bounds(*rows, config.penalty_mode, split.seeds[0], split.seeds[-1])
    interior_fits = train_scalarised(
        *rows, grid.values[1:-1], bounds_res.bounds, config.penalty_mode, split.seeds[1:-1]
    )
    return [bounds_res.risk_fit, *interior_fits, bounds_res.unfairness_fit], bounds_res.bounds


def check_jobs(jobs) -> None:
    """Raise ConfigError unless ``jobs`` is a positive integer or None."""
    if jobs is not None and (
        isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)) or jobs < 1
    ):
        raise ConfigError(f"jobs must be a positive integer or None, got {jobs!r}")


def _run_splits(
    worker, dataset: Dataset, plan: SplitPlan, grid: LambdaGrid, config: SweepConfig, jobs: int | None, extra
) -> SweepResult:
    """Run a sweep's split worker on every split and merge the results into a SweepResult.

    ``worker`` is a module-level pool target calling _split_stage; ``extra``
    goes to its trainer.  The splits run in a process pool when jobs > 1;
    jobs=None uses one process per split, up to the CPU count.
    """
    check_jobs(jobs)
    splits = make_splits(dataset.n_rows, plan, sensitives=dataset.sensitives, labels=dataset.labels)
    payloads = [
        (split_id, train_idx, test_idx, dataset, grid, config, plan.master_seed, extra)
        for split_id, (train_idx, test_idx) in enumerate(splits)
    ]
    if jobs is None:
        jobs = max(1, min(len(payloads), os.cpu_count() or 1))
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            results = list(pool.map(worker, payloads))
    else:
        results = [worker(p) for p in payloads]
    merged = SweepResult(candidates=[], failures=[])
    for split_id, candidates, failures, bounds, prop_model in results:
        merged.candidates.extend(candidates)
        merged.failures.extend(failures)
        if bounds is not None:
            merged.bounds[split_id] = bounds
        if prop_model is not None:
            merged.propensity_models[split_id] = prop_model
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


def _fail_split(split_id: int, grid: LambdaGrid, stage: str, exc: Exception) -> tuple:
    """Split-stage result of a split whose every lambda failed at ``stage``."""
    failures = [_failure_record(split_id, k, lam, stage, exc) for k, lam in enumerate(grid.values)]
    return split_id, [], failures, None, None


def _fit_split_propensity(x_tr, a_tr, config: SweepConfig, master_seed: int, split_id: int):
    """Fit and temperature-calibrate a split's propensity model on its training rows.

    A calibration holdout of config.calibration_fraction of the rows is carved
    off first.  The holdout and the model's seed come from (master_seed,
    split_id) on streams of their own, clear of the lambda jobs' seeds.
    """
    prop_seed = int(
        np.random.SeedSequence([master_seed, split_id, _PROPENSITY_STREAM]).generate_state(1)[0]
    )
    cal_rng = np.random.default_rng(np.random.SeedSequence([master_seed, split_id, _CALIBRATION_STREAM]))
    n = a_tr.shape[0]
    perm = cal_rng.permutation(n)
    n_cal = max(1, int(np.floor(config.calibration_fraction * n)))
    if n_cal >= n:
        raise ConfigError("calibration holdout would swallow the whole training split")
    cal_rows, fit_rows = perm[:n_cal], perm[n_cal:]
    raw_model = train_propensity(x_tr[fit_rows], a_tr[fit_rows], config.propensity, prop_seed)
    return calibrate_temperature(raw_model, x_tr[cal_rows], a_tr[cal_rows])


def _split_stage(payload, train, stage: str) -> tuple:
    """Everything a split does but training, around a sweep's trainer ``train``.

    Fits the split's propensity model; a failure there sinks every lambda at
    stage "propensity".  Then ``train(split, grid, config, extra)`` gets a
    TrainingSplit and returns one FitResult or expected failure per lambda,
    plus the split's standardisation bounds or None.  An expected failure it
    raises (only the scalarised endpoint stack raises one) sinks every lambda
    at stage "bounds".  Each fit is scored on the test rows into a
    ParetoCandidate; a lambda whose training or scoring failed is recorded at
    ``stage``.  Returns (split_id, candidates, failures, bounds, propensity
    model), the last two None when the split failed as a whole.
    """
    split_id, train_idx, test_idx, dataset, grid, config, master_seed, extra = payload
    x_tr = dataset.features[train_idx]
    y_tr = dataset.labels[train_idx].astype(np.float64)
    a_tr = dataset.sensitives[train_idx]
    x_te, a_te, y_te = dataset.features[test_idx], dataset.sensitives[test_idx], dataset.labels[test_idx]
    template = NetworkConfig(
        layer_sizes=config.layer_sizes(dataset.n_features), dropout_prob=config.dropout_prob
    )
    try:
        prop_model = _fit_split_propensity(x_tr, a_tr, config, master_seed, split_id)
        e_tr = predict_propensity(prop_model, x_tr)
    except EXPECTED_FAILURES as exc:
        return _fail_split(split_id, grid, "propensity", exc)
    seeds = [derive_seeds(master_seed, split_id, k) for k in range(len(grid))]
    try:
        fits, bounds = train(TrainingSplit(x_tr, y_tr, a_tr, e_tr, template, seeds), grid, config, extra)
    except EXPECTED_FAILURES as exc:
        return _fail_split(split_id, grid, "bounds", exc)

    candidates: list[ParetoCandidate] = []
    failures: list[dict] = []
    for k, (lam, fit) in enumerate(zip(grid.values, fits)):
        try:
            if isinstance(fit, Exception):
                raise fit
            metrics = evaluate_test_metrics(fit.params, template, x_te, a_te, y_te, prop_model)
        except EXPECTED_FAILURES as exc:
            failures.append(_failure_record(split_id, k, lam, stage, exc))
            continue
        candidates.append(
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
    return split_id, candidates, failures, bounds, prop_model


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


@dataclass
class FrontPoint:
    """A candidate's coordinates in one trade-off plane."""

    index: int
    risk: float
    unfairness: float
    dominated: bool


def build_front(risks, unfairness) -> list[FrontPoint]:
    """Wrap cull_nondominated's verdicts in per-point records."""
    keep = cull_nondominated(risks, unfairness)
    r = np.asarray(risks, dtype=np.float64)
    u = np.asarray(unfairness, dtype=np.float64)
    return [
        FrontPoint(index=i, risk=float(r[i]), unfairness=float(u[i]), dominated=not keep[i])
        for i in range(r.size)
    ]


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


def write_candidates_csv(path, candidates: list[ParetoCandidate]):
    """Serialise candidates with a freshly computed (r_test, u_ato) keep-mask.

    Floats carry 17 significant digits so a rerun with identical numbers
    produces a byte-identical file.
    """
    if not candidates:
        raise InputError("no candidates to write")
    rows = [{"split_id": c.split_id, "lambda": c.lambda_, **c.metrics} for c in candidates]
    r = np.array([row["r_test"] for row in rows])
    u = np.array([row["u_ato"] for row in rows])
    write_candidate_rows(path, rows, cull_nondominated(r, u), CSV_HEADER[-1])


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
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise InputError(f"candidates file not found: {path}")
    with fh:
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
            values = dict(zip(CSV_HEADER[1:-1], map(float, row[1:-1])))
            rows.append({"split_id": int(row[0]), **values, "nondominated": int(row[-1])})
    if not rows:
        raise InputError(f"{path}: no candidate rows")
    return rows, header[-1]
