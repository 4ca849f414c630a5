"""Lambda grids, bounds discovery, sweep orchestration, culling, CSV IO."""
from __future__ import annotations

import gc
import os
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fairfront import adversarial, pareto, propensity, training
from fairfront.adversarial import AdversaryConfig, run_adversarial_sweep
from fairfront.data import Dataset, SplitPlan, generate_synthetic, make_splits
from fairfront.errors import ConfigError, InputError, TrainingError
from fairfront.network import NetworkConfig
from fairfront.pareto import (
    LAMBDA_INTERIOR_HIGH,
    LAMBDA_INTERIOR_LOW,
    LambdaGrid,
    SweepConfig,
    SweepResult,
    TrainingSplit,
    build_lambda_grid,
    chebyshev_toy_minimiser,
    cull_nondominated,
    discover_bounds,
    linear_toy_minimiser,
    read_candidates_csv,
    run_sweep,
    stack_size,
    train_scalarised,
    write_candidates_csv,
)
from fairfront.propensity import PropensityConfig
from fairfront.training import EMPTY_RANGE, TrainConfig, derive_seeds

from conftest import minor_faults_of_a_second_call, needs_mallopt
from oracles import bf_nondominated


SMALL_SWEEP = SweepConfig(
    num_layers=2,
    hidden_width=4,
    dropout_prob=0.2,
    train=TrainConfig(epochs=10, batch_size=64),
    propensity=PropensityConfig(hidden_layers=1, hidden_width=6, epochs=15, batch_size=64),
    calibration_fraction=0.2,
)


# ---------------------------------------------------------------------------
# lambda grid


def test_grid_endpoints_and_interior_spacing():
    grid = build_lambda_grid(15)
    assert len(grid) == 15
    assert grid.values[0] == 0.0 and grid.values[-1] == 1.0
    interior = np.array(grid.values[1:-1])
    assert interior[0] == pytest.approx(LAMBDA_INTERIOR_LOW)
    assert interior[-1] == pytest.approx(LAMBDA_INTERIOR_HIGH)
    ratios = interior[1:] / interior[:-1]
    assert ratios == pytest.approx(np.full(12, ratios[0]))  # geometric

def test_grid_small_counts():
    assert build_lambda_grid(2).values == [0.0, 1.0]
    mid = build_lambda_grid(3).values[1]
    assert mid == pytest.approx((LAMBDA_INTERIOR_LOW * LAMBDA_INTERIOR_HIGH) ** 0.5)
    with pytest.raises(ConfigError):
        build_lambda_grid(1)


def test_grid_validation():
    with pytest.raises(ConfigError):
        LambdaGrid(values=[0.1, 0.5, 1.0])
    with pytest.raises(ConfigError):
        LambdaGrid(values=[0.0, 0.5, 0.4, 1.0])
    with pytest.raises(ConfigError, match="strictly ascending"):
        LambdaGrid(values=[0.0, float("nan"), 1.0])


# ---------------------------------------------------------------------------
# culling


def test_cull_matches_brute_force_with_ties_and_duplicates():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 120))
        # low-resolution grid makes exact ties and exact duplicates common
        r = rng.integers(0, 8, size=n) / 7.0
        u = rng.integers(0, 8, size=n) / 7.0
        assert np.array_equal(cull_nondominated(r, u), bf_nondominated(r, u))


def test_cull_keeps_duplicates_of_front_points():
    r = np.array([0.1, 0.1, 0.5, 0.9])
    u = np.array([0.9, 0.9, 0.4, 0.9])
    keep = cull_nondominated(r, u)
    assert list(keep) == [True, True, True, False]


def test_cull_single_and_identical_points():
    assert list(cull_nondominated(np.array([0.3]), np.array([0.7]))) == [True]
    r = np.full(5, 0.2)
    u = np.full(5, 0.4)
    assert cull_nondominated(r, u).all()


# ---------------------------------------------------------------------------
# toy scalarisations


def quarter_circle(num=200):
    # the arc (cos t, sin t) bulges away from the origin, so its only convex
    # hull points are the endpoints; weighted sums can't land anywhere else
    t = np.linspace(0.0, np.pi / 2.0, num)
    return np.cos(t), np.sin(t)


def test_chebyshev_recovers_interior_linear_does_not():
    j1, j2 = quarter_circle()
    lambdas = np.linspace(0.05, 0.95, 13)
    cheb = {chebyshev_toy_minimiser(lam, j1, j2) for lam in lambdas}
    lin = {linear_toy_minimiser(lam, j1, j2) for lam in lambdas}
    interior = {i for i in cheb if 0 < i < len(j1) - 1}
    assert len(interior) >= 5
    assert lin.issubset({0, len(j1) - 1})


def test_chebyshev_balanced_lambda_picks_the_diagonal():
    j1, j2 = quarter_circle(181)  # half-degree resolution
    idx = chebyshev_toy_minimiser(0.5, j1, j2)
    assert idx == 90  # t = pi/4 equalises both objectives


@pytest.mark.parametrize(
    "lam, j1, j2",
    [(1.0, [1.0, 1.0, 1.0], [-1.0, -2.0, -3.0]), (0.0, [-1.0, -2.0, -3.0], [1.0, 1.0, 1.0])],
    ids=["lambda-1", "lambda-0"],
)
def test_chebyshev_endpoints_minimise_their_one_objective_below_zero(lam, j1, j2):
    # max(0 * J1, J2) would read 0 for every negative J2 and pick index 0;
    # the trainer's rule minimises J2 alone at lambda = 1 and J1 alone at 0
    assert chebyshev_toy_minimiser(lam, j1, j2) == 2


@pytest.mark.parametrize("minimiser", [chebyshev_toy_minimiser, linear_toy_minimiser])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("curve", [0, 1], ids=["J1", "J2"])
def test_toy_minimisers_reject_a_non_finite_curve(minimiser, bad, curve):
    # 0 * inf is nan, and argmin would return the nan's index
    j = [[bad, 1.0, 0.0], [1.0, 1.0, 0.0]]
    if curve:
        j.reverse()
    with pytest.raises(InputError, match="finite"):
        minimiser(1.0 - curve, *j)


# ---------------------------------------------------------------------------
# bounds discovery and scalarised training


def test_discover_bounds_spans_and_reuse():
    ds = generate_synthetic(n=200, p=4, bias_strength=2.0, seed=6)
    e = np.clip(np.full(200, 0.5), 0.01, 0.99)
    net = NetworkConfig(layer_sizes=[4, 3, 1], dropout_prob=0.2)
    cfg = TrainConfig(epochs=6, batch_size=64)
    # a one-split group whose seeds are those of a three-lambda grid
    seeds = [derive_seeds(1, 0, k) for k in range(3)]
    split = TrainingSplit(ds.features, np.arange(200), ds.labels.astype(float), ds.sensitives, e, net, seeds)
    (res,) = discover_bounds([split], cfg)
    b = res.bounds
    assert b.risk_min <= b.risk_max
    assert b.unfairness_min <= b.unfairness_max
    assert (b.risk_min, b.risk_max) == res.risk_fit.risk_range
    assert (b.unfairness_min, b.unfairness_max) == res.unfairness_fit.unfairness_range


def test_discover_bounds_needs_a_lambda_one_batch_with_both_groups():
    # batches of one row each hold a single sensitive group
    ds = generate_synthetic(n=200, p=4, bias_strength=2.0, seed=6)
    a = np.zeros(200, dtype=int)
    a[17] = 1
    net = NetworkConfig(layer_sizes=[4, 3, 1], dropout_prob=0.0)
    split = TrainingSplit(
        ds.features, np.arange(200), ds.labels.astype(float), a, np.full(200, 0.5), net, [(1, 2), (3, 4)]
    )
    (res,) = discover_bounds([split], TrainConfig(epochs=2, batch_size=1))
    assert isinstance(res, TrainingError) and "both sensitive groups" in str(res)


def test_splits_that_train_together_share_one_feature_matrix():
    ds = generate_synthetic(n=100, p=3, bias_strength=1.0, seed=1)
    net = NetworkConfig(layer_sizes=[3, 2, 1], dropout_prob=0.0)
    splits = [
        TrainingSplit(x, np.arange(100), ds.labels.astype(float), ds.sensitives, np.full(100, 0.5), net, [(0, 0)] * 3)
        for x in (ds.features, ds.features.copy())
    ]
    with pytest.raises(ConfigError, match="share one feature matrix"):
        discover_bounds(splits, TrainConfig(epochs=1, batch_size=32))


def test_train_scalarised_requires_bounds():
    ds = generate_synthetic(n=100, p=3, bias_strength=1.0, seed=1)
    net = NetworkConfig(layer_sizes=[3, 2, 1], dropout_prob=0.0)
    split = TrainingSplit(
        ds.features, np.arange(100), ds.labels.astype(float), ds.sensitives, np.full(100, 0.5), net, [(0, 0)] * 3
    )
    with pytest.raises(ConfigError, match="bounds"):
        train_scalarised([(split, None)], [0.5], TrainConfig(epochs=1, batch_size=32))


# ---------------------------------------------------------------------------
# sweep orchestration


def test_run_sweep_is_deterministic_and_complete():
    ds = generate_synthetic(n=240, p=4, bias_strength=2.0, seed=9)
    plan = SplitPlan(num_splits=2, train_fraction=0.5, master_seed=4)
    grid = build_lambda_grid(3)
    res1 = run_sweep(ds, plan, grid, SMALL_SWEEP, jobs=1)
    res2 = run_sweep(ds, plan, grid, SMALL_SWEEP, jobs=2)
    assert len(res1.candidates) == 2 * 3
    assert not res1.failures
    keys1 = [(c.split_id, c.lambda_index) for c in res1.candidates]
    assert keys1 == sorted(keys1)
    for c1, c2 in zip(res1.candidates, res2.candidates):
        assert c1.metrics == c2.metrics
        for w1, w2 in zip(c1.params.weights, c2.params.weights):
            assert np.array_equal(w1, w2)
    assert set(res1.bounds) == {0, 1}
    assert set(res1.propensity_models) == {0, 1}


def test_no_copy_of_a_splits_rows_is_live_while_a_network_trains(monkeypatch):
    """Every fit of a sweep reads feature rows from the dataset's matrix; none of them holds a gathered copy.

    tracemalloc starts after the dataset is made, so its matrix is not
    traced.  On entry to each fit and at its first step, every traced block
    must be smaller than the fewest rows that any of the fits trains on (the
    propensity fit's 8,000), as float64 features.
    """
    ds = generate_synthetic(n=20_000, p=30, bias_strength=2.0, seed=3)
    plan = SplitPlan(num_splits=2, train_fraction=0.5, master_seed=1)
    config = SweepConfig(
        hidden_width=8,
        train=TrainConfig(epochs=1, batch_size=250),
        propensity=PropensityConfig(hidden_layers=1, hidden_width=8, epochs=1, batch_size=250),
    )
    fewest_rows_bytes = 8_000 * 30 * 8
    largest = []  # the largest traced block at each look
    first_step = []  # set on entry to a fit, cleared at its first forward

    def look():
        largest.append(max(trace.size for trace in tracemalloc.take_snapshot().traces))

    for module in (pareto, propensity):
        def fit(*args, _real=module.fit_network, **kwargs):
            look()
            first_step.append(True)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "fit_network", fit)

    def forward(*args, _real=training.forward, **kwargs):
        if first_step:
            first_step.clear()
            look()
        return _real(*args, **kwargs)

    monkeypatch.setattr(training, "forward", forward)
    tracemalloc.start()
    try:
        res = run_sweep(ds, plan, build_lambda_grid(3), config, jobs=1)
    finally:
        tracemalloc.stop()
    assert len(res.candidates) == 2 * 3
    # three fits (propensity, endpoints, interior), each looked at twice
    assert len(largest) == 6
    assert max(largest) < fewest_rows_bytes


SWEEP_SETUP = """
from fairfront.data import SplitPlan, generate_synthetic
from fairfront.pareto import SweepConfig, build_lambda_grid, run_sweep
from fairfront.propensity import PropensityConfig
from fairfront.training import TrainConfig

ds = generate_synthetic(n=4000, p=10, bias_strength=3.0, seed=0)
config = SweepConfig(train=TrainConfig(epochs=5, batch_size=250), propensity=PropensityConfig(epochs=2, batch_size=250))
args = ds, SplitPlan(num_splits=3, master_seed=0), build_lambda_grid(7), config
"""


@needs_mallopt
def test_a_sweep_reuses_its_step_arrays_from_the_heap():
    # In a fresh interpreter, 12 stacked networks at batch 250 allocate arrays
    # of 192 kB each step; at glibc's initial thresholds a second sweep took
    # about 14,700 minor page faults, with the thresholds settled about 70.
    assert minor_faults_of_a_second_call(SWEEP_SETUP, "run_sweep(*args)") < 2_000


def test_run_sweep_reuses_endpoint_models():
    ds = generate_synthetic(n=200, p=4, bias_strength=2.0, seed=12)
    plan = SplitPlan(num_splits=1, train_fraction=0.5, master_seed=2)
    grid = build_lambda_grid(3)
    res = run_sweep(ds, plan, grid, SMALL_SWEEP, jobs=1)
    lam0 = next(c for c in res.candidates if c.lambda_index == 0)
    # the lambda = 0 candidate must be the very model that set the risk bounds:
    # retraining it from the same seeds reproduces its parameters exactly
    from fairfront.training import fit_network
    net = NetworkConfig(layer_sizes=SMALL_SWEEP.layer_sizes(ds.n_features), dropout_prob=SMALL_SWEEP.dropout_prob)
    train_idx = None  # reconstruct the split exactly as the sweep did
    from fairfront.data import make_splits
    train_idx, _ = make_splits(ds.n_rows, plan, sensitives=ds.sensitives, labels=ds.labels)[0]
    (refit,) = fit_network(
        ds.features[train_idx], [ds.labels[train_idx].astype(float)], net,
        SMALL_SWEEP.train, [derive_seeds(2, 0, 0)],
    )
    for w1, w2 in zip(lam0.params.weights, refit.params.weights):
        assert np.array_equal(w1, w2)


def test_stack_size_rule():
    assert stack_size(250, [10, 8, 1]) >= 5  # the paper-scale sweep stacks its lambdas
    adversary = AdversaryConfig().network_config().layer_sizes
    assert stack_size(250, [10, 8, 1] + adversary) == 7  # criterion 7's 7 adversarial lambdas train as one stack
    assert stack_size(2000, [30, 64, 1]) == 1  # wide nets with big batches train alone
    assert stack_size(1, [1, 1]) == pareto.STACK_CAP


def sweep_setup():
    ds = generate_synthetic(n=200, p=4, bias_strength=2.0, seed=20)
    return ds, SplitPlan(num_splits=1, train_fraction=0.5, master_seed=8), build_lambda_grid(5)


def test_results_do_not_depend_on_stack_size(monkeypatch):
    ds, plan, grid = sweep_setup()
    assert stack_size(SMALL_SWEEP.train.batch_size, SMALL_SWEEP.layer_sizes(ds.n_features)) >= 3
    stacked = run_sweep(ds, plan, grid, SMALL_SWEEP, jobs=1)
    monkeypatch.setattr(pareto, "STACK_CAP", 1)
    alone = run_sweep(ds, plan, grid, SMALL_SWEEP, jobs=1)
    assert len(stacked.candidates) == len(alone.candidates) == len(grid)
    for c1, c2 in zip(stacked.candidates, alone.candidates):
        assert c1.metrics == c2.metrics
        for w1, w2 in zip(c1.params.weights + c1.params.biases, c2.params.weights + c2.params.biases):
            assert np.array_equal(w1, w2)
    assert stacked.bounds == alone.bounds


def test_programming_errors_propagate_out_of_the_sweep(monkeypatch):
    def broken_fit(*args, **kwargs):
        raise TypeError("a bug, not a failed job")

    monkeypatch.setattr(pareto, "fit_network", broken_fit)
    ds, plan, grid = sweep_setup()
    with pytest.raises(TypeError, match="a bug"):
        run_sweep(ds, plan, grid, SMALL_SWEEP, jobs=1)


@pytest.mark.parametrize("one_per_stack", [False, True])
def test_a_failed_lambda_is_recorded_and_the_sweep_goes_on(monkeypatch, one_per_stack):
    ds, plan, grid = sweep_setup()
    doomed = grid.values[2]
    real_fit = pareto.fit_network

    def fit_failing_for_one_lambda(features, labels, net_config, train_config, seeds, *, lambda_, **kw):
        if one_per_stack and list(lambda_) == [doomed]:
            raise TrainingError("diverged")
        fits = real_fit(features, labels, net_config, train_config, seeds, lambda_=lambda_, **kw)
        return [TrainingError("diverged") if lam == doomed else fit for lam, fit in zip(lambda_, fits)]

    if one_per_stack:
        monkeypatch.setattr(pareto, "STACK_CAP", 1)
    monkeypatch.setattr(pareto, "fit_network", fit_failing_for_one_lambda)
    res = run_sweep(ds, plan, grid, SMALL_SWEEP, jobs=1)
    assert res.failures == [
        {
            "split_id": 0,
            "lambda_index": 2,
            "lambda": doomed,
            "stage": "train_or_eval",
            "error": "TrainingError: diverged",
        }
    ]
    assert [c.lambda_index for c in res.candidates] == [0, 1, 3, 4]


# ---------------------------------------------------------------------------
# the split stage both sweeps share

TINY_ADVERSARY = AdversaryConfig(
    hidden_layers=1, hidden_width=4, pretrain_classifier_epochs=1, pretrain_adversary_epochs=1, rounds=3
)


def scalarised(ds, plan, grid, jobs=1):
    return run_sweep(ds, plan, grid, SMALL_SWEEP, jobs=jobs)


def adversarial_baseline(ds, plan, grid, jobs=1):
    return run_adversarial_sweep(ds, plan, grid, SMALL_SWEEP, TINY_ADVERSARY, jobs=jobs)


BOTH_SWEEPS = pytest.mark.parametrize(
    "sweep", [scalarised, adversarial_baseline], ids=["scalarised", "adversarial"]
)


def every_lambda_failed(grid, stage, error, split_id=0):
    return [
        {"split_id": split_id, "lambda_index": k, "lambda": lam, "stage": stage, "error": error}
        for k, lam in enumerate(grid.values)
    ]


@BOTH_SWEEPS
def test_a_propensity_failure_fails_every_lambda_of_the_split(sweep, monkeypatch):
    def failing_propensity(*args, **kwargs):
        raise TrainingError("propensity diverged")

    monkeypatch.setattr(pareto, "train_propensity", failing_propensity)
    ds, plan, grid = sweep_setup()
    res = sweep(ds, plan, grid)
    assert not res.candidates
    assert res.failures == every_lambda_failed(grid, "propensity", "TrainingError: propensity diverged")
    assert res.bounds == {} and res.propensity_models == {}


def test_an_endpoint_stack_failure_fails_every_lambda_at_bounds(monkeypatch):
    stacks = []

    def failing_fit(features, labels, net_config, train_config, seeds, *, lambda_, **kw):
        stacks.append(list(lambda_))
        raise TrainingError("endpoint stack diverged")

    monkeypatch.setattr(pareto, "fit_network", failing_fit)
    ds, plan, grid = sweep_setup()
    res = scalarised(ds, plan, grid)
    assert stacks == [[0.0, 1.0]]  # no interior stack trains without bounds
    assert not res.candidates
    assert res.failures == every_lambda_failed(grid, "bounds", "TrainingError: endpoint stack diverged")
    assert res.bounds == {}


@pytest.mark.parametrize(
    "sweep, module, trainer",
    [(scalarised, pareto, "discover_bounds"), (adversarial_baseline, adversarial, "train_adversarial")],
    ids=["scalarised", "adversarial"],
)
def test_a_bug_in_the_trainer_propagates_out_of_the_sweep(sweep, module, trainer, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a failed job")

    monkeypatch.setattr(module, trainer, broken)
    ds, plan, grid = sweep_setup()
    with pytest.raises(TypeError, match="a bug"):
        sweep(ds, plan, grid)


@BOTH_SWEEPS
def test_candidates_do_not_depend_on_the_worker_count(sweep):
    ds = generate_synthetic(n=240, p=4, bias_strength=2.0, seed=9)
    plan = SplitPlan(num_splits=2, train_fraction=0.5, master_seed=4)
    grid = build_lambda_grid(3)
    serial, pooled = (sweep(ds, plan, grid, jobs=jobs) for jobs in (1, 2))
    assert len(serial.candidates) == 2 * 3 and not serial.failures
    assert [(c.split_id, c.lambda_index, c.metrics) for c in pooled.candidates] == [
        (c.split_id, c.lambda_index, c.metrics) for c in serial.candidates
    ]
    for c1, c2 in zip(serial.candidates, pooled.candidates):
        for w1, w2 in zip(c1.params.weights + c1.params.biases, c2.params.weights + c2.params.biases):
            assert np.array_equal(w1, w2)
    assert pooled.bounds == serial.bounds
    assert set(pooled.propensity_models) == {0, 1}


class UnpicklableDataset(Dataset):
    def __reduce__(self):
        raise TypeError("the dataset was pickled")


@BOTH_SWEEPS
def test_pool_workers_inherit_the_dataset_instead_of_unpickling_it(sweep):
    ds = generate_synthetic(n=240, p=4, bias_strength=2.0, seed=9)
    plan = SplitPlan(num_splits=2, train_fraction=0.5, master_seed=4)
    grid = build_lambda_grid(3)
    serial = sweep(ds, plan, grid, jobs=1)
    pooled = sweep(UnpicklableDataset(**vars(ds)), plan, grid, jobs=2)
    assert len(serial.candidates) == 2 * 3 and not pooled.failures
    assert_same_sweep(pooled, serial, split_ids=(0, 1))
    assert set(pooled.propensity_models) == set(serial.propensity_models) == {0, 1}
    for split_id, model in serial.propensity_models.items():
        other = pooled.propensity_models[split_id]
        assert other.temperature == model.temperature
        for w1, w2 in zip(model.params.weights + model.params.biases, other.params.weights + other.params.biases):
            assert np.array_equal(w1, w2)


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_reference_to_the_dataset_outlives_the_sweep(jobs, monkeypatch):
    def broken_fit(*args, **kwargs):
        raise TypeError("a bug, not a failed job")

    ds, plan, grid = sweep_setup()
    plan = replace(plan, num_splits=jobs)  # one split per worker, so that jobs=2 runs a pool
    run_sweep(ds, plan, grid, SMALL_SWEEP, jobs=jobs)
    returned = weakref.ref(ds)
    ds, _, _ = sweep_setup()
    monkeypatch.setattr(pareto, "fit_network", broken_fit)
    with pytest.raises(TypeError, match="a bug"):
        run_sweep(ds, plan, grid, SMALL_SWEEP, jobs=jobs)
    raised = weakref.ref(ds)
    del ds
    gc.collect()
    assert returned() is None and raised() is None


@BOTH_SWEEPS
@pytest.mark.parametrize("jobs", [0, -2, 1.5, "2", True, None])
def test_jobs_must_be_a_positive_integer_or_none(sweep, jobs):
    ds, plan, grid = sweep_setup()
    with pytest.raises(ConfigError, match="jobs"):
        sweep(ds, plan, grid, jobs=jobs)


# ---------------------------------------------------------------------------
# split groups


def three_splits():
    ds = generate_synthetic(n=240, p=4, bias_strength=2.0, seed=9)
    return ds, SplitPlan(num_splits=3, train_fraction=0.5, master_seed=5), build_lambda_grid(4)


def assert_same_sweep(res, ref, split_ids=(0, 1, 2)):
    """res equals ref bitwise on the given splits: candidates, parameters, bounds and failures."""
    def pick(candidates):
        return [c for c in candidates if c.split_id in split_ids]

    assert [(c.split_id, c.lambda_index, c.metrics) for c in pick(res.candidates)] == [
        (c.split_id, c.lambda_index, c.metrics) for c in pick(ref.candidates)
    ]
    for c1, c2 in zip(pick(res.candidates), pick(ref.candidates)):
        for w1, w2 in zip(c1.params.weights + c1.params.biases, c2.params.weights + c2.params.biases):
            assert np.array_equal(w1, w2)
    assert {k: b for k, b in res.bounds.items() if k in split_ids} == {
        k: b for k, b in ref.bounds.items() if k in split_ids
    }
    assert [f for f in res.failures if f["split_id"] in split_ids] == [
        f for f in ref.failures if f["split_id"] in split_ids
    ]


@pytest.fixture(scope="module")
def ungrouped():
    """The three-split sweep with every split in a group, and every network in a stack, of its own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pareto, "STACK_CAP", 1)
        return run_sweep(*three_splits(), SMALL_SWEEP, jobs=1)


def test_adversarial_results_do_not_depend_on_stack_size(monkeypatch):
    # A 16-wide adversary against a 4-wide classifier at batch 64: a cap of
    # 3 x 64 x 16 puts the three splits in one group and cuts their 3 x 4
    # networks into stacks of 3, so [s0 lambda 3, s1 lambda 0, s1 lambda 1]
    # share one, a member at lambda > 0 reading its adversary among them.
    ds, plan, grid = three_splits()
    wide = AdversaryConfig(hidden_layers=1, hidden_width=16, pretrain_classifier_epochs=1,
                           pretrain_adversary_epochs=1, rounds=3)
    real, stacks = adversarial.train_adversarial, []

    def spy(*args, feature_rows, **kwargs):
        stacks.append({id(r) for r in feature_rows})
        return real(*args, feature_rows=feature_rows, **kwargs)

    monkeypatch.setattr(adversarial, "train_adversarial", spy)
    monkeypatch.setattr(pareto, "STACK_CAP", 3 * 64 * 16)
    mixed = run_adversarial_sweep(ds, plan, grid, SMALL_SWEEP, wide, jobs=1)
    assert [len(s) for s in stacks] == [1, 2, 2, 1]  # the splits each stack's members train on
    monkeypatch.setattr(pareto, "STACK_CAP", 1)
    alone = run_adversarial_sweep(ds, plan, grid, SMALL_SWEEP, wide, jobs=1)
    assert len(stacks) == 4 + 12
    assert len(mixed.candidates) == 3 * 4 and not mixed.failures
    assert_same_sweep(mixed, alone)


def test_split_groups_are_near_equal_and_cover_every_split():
    assert pareto.split_groups(3, 6, 1) == [range(0, 3)]
    assert pareto.split_groups(3, 6, 2) == [range(0, 1), range(1, 3)]
    assert pareto.split_groups(3, 6, 8) == [range(0, 1), range(1, 2), range(2, 3)]
    assert pareto.split_groups(100, 6, 1) == [
        range(i * 100 // 17, (i + 1) * 100 // 17) for i in range(17)
    ]  # 17 groups of 5 or 6


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_grouped_sweep_is_bitwise_the_ungrouped_one(jobs, ungrouped):
    res = run_sweep(*three_splits(), SMALL_SWEEP, jobs=jobs)
    assert len(res.candidates) == 3 * 4 and not res.failures
    assert_same_sweep(res, ungrouped)


def test_a_groups_propensity_fits_train_in_stacks_of_the_stack_size_rule(monkeypatch):
    # 12 splits make one group at batch 250 and width 8, but the default
    # propensity networks (10 -> 32 x 3 -> 1) at batch 250 train 7 to a stack.
    config = SweepConfig(
        train=TrainConfig(epochs=1, batch_size=250), propensity=PropensityConfig(epochs=1, batch_size=250)
    )
    assert pareto.split_groups(12, stack_size(250, config.layer_sizes(10)) // 2, 1) == [range(12)]
    assert stack_size(250, config.propensity.layer_sizes(10)) == 7
    ds = generate_synthetic(n=600, p=10, bias_strength=2.0, seed=3)
    plan = SplitPlan(num_splits=12, train_fraction=0.5, master_seed=1)
    group = [(i, *split) for i, split in enumerate(make_splits(ds.n_rows, plan, ds.sensitives, ds.labels))]
    a_s = [ds.sensitives[train_idx] for _, train_idx, _ in group]
    real, stacks = pareto.train_propensity, []

    def spy(features, sensitives, config, seed, **kw):
        stacks.append(len(seed))
        return real(features, sensitives, config, seed, **kw)

    monkeypatch.setattr(pareto, "train_propensity", spy)
    cut = pareto._fit_propensities(ds.features, group, a_s, config, plan.master_seed)
    monkeypatch.setattr(pareto, "STACK_CAP", 10**9)
    whole = pareto._fit_propensities(ds.features, group, a_s, config, plan.master_seed)
    assert stacks == [7, 5, 12]
    for (model, e_tr, e_te), (one_stack, e_tr_1, e_te_1) in zip(cut, whole):
        params, params_1 = model.params, one_stack.params
        for w, w_1 in zip(params.weights + params.biases, params_1.weights + params_1.biases):
            assert np.array_equal(w, w_1)
        assert model.temperature == one_stack.temperature
        assert np.array_equal(e_tr, e_tr_1) and np.array_equal(e_te, e_te_1)


def test_one_split_of_a_group_failing_its_propensity_fit_fails_alone(monkeypatch, ungrouped):
    real = pareto.train_propensity
    stacked = []

    def second_member_diverges(features, sensitives, config, seed, **kw):
        stacked.append(len(seed))
        models = real(features, sensitives, config, seed, **kw)
        models[1] = TrainingError("propensity diverged")
        return models

    monkeypatch.setattr(pareto, "train_propensity", second_member_diverges)
    res = run_sweep(*three_splits(), SMALL_SWEEP, jobs=1)
    assert stacked == [3]  # the group's three propensity networks train as one stack
    grid = three_splits()[2]
    assert res.failures == every_lambda_failed(grid, "propensity", "TrainingError: propensity diverged", split_id=1)
    assert 1 not in res.bounds and 1 not in res.propensity_models
    assert_same_sweep(res, ungrouped, split_ids=(0, 2))


def test_failures_are_ordered_by_split_and_lambda_across_stages(monkeypatch):
    ds, plan, grid = three_splits()
    real_propensity, real_fit = pareto.train_propensity, pareto.fit_network
    sunk_seeds = derive_seeds(plan.master_seed, 0, 2)

    def third_member_diverges(features, sensitives, config, seed, **kw):
        models = real_propensity(features, sensitives, config, seed, **kw)
        models[2] = TrainingError("propensity diverged")
        return models

    def sink_split_0_lambda_2(features, labels, net_config, train_config, seeds, **kw):
        fits = real_fit(features, labels, net_config, train_config, seeds, **kw)
        return [TrainingError("interior diverged") if s == sunk_seeds else f for s, f in zip(seeds, fits)]

    monkeypatch.setattr(pareto, "train_propensity", third_member_diverges)
    monkeypatch.setattr(pareto, "fit_network", sink_split_0_lambda_2)
    res = run_sweep(ds, plan, grid, SMALL_SWEEP, jobs=1)
    sunk = {
        "split_id": 0,
        "lambda_index": 2,
        "lambda": grid.values[2],
        "stage": "train_or_eval",
        "error": "TrainingError: interior diverged",
    }
    assert res.failures == [sunk] + every_lambda_failed(
        grid, "propensity", "TrainingError: propensity diverged", split_id=2
    )


def test_the_scalarised_sweep_needs_a_hidden_layer_and_the_adversarial_one_does_not(monkeypatch):
    ds, plan, grid = three_splits()
    no_hidden = replace(SMALL_SWEEP, num_layers=1)

    def no_split(*args):
        raise AssertionError("a split ran")

    with monkeypatch.context() as patched:
        patched.setattr(pareto, "_run_splits", no_split)
        with pytest.raises(ConfigError, match=r"^num_layers must be >= 2 in the scalarised sweep"):
            run_sweep(ds, plan, grid, no_hidden, jobs=1)
    res = run_adversarial_sweep(ds, plan, grid, no_hidden, jobs=1, adv_config=AdversaryConfig(rounds=1))
    assert len(res.candidates) == 3 * len(grid) and not res.failures
    assert all(c.net_config.layer_sizes == [4, 1] for c in res.candidates)


def keep_no_unfairness_range(fit):
    fit.unfairness_range = EMPTY_RANGE
    return fit


@pytest.mark.parametrize(
    "sink, error",
    [
        (lambda fit: TrainingError("endpoint diverged"), "TrainingError: endpoint diverged"),
        (keep_no_unfairness_range, "TrainingError: no minibatch of the lambda = 1 run contained both sensitive groups"),
    ],
    ids=["diverged", "no-two-group-batch"],
)
def test_one_split_of_a_group_failing_its_bounds_fails_alone(sink, error, monkeypatch, ungrouped):
    ds, plan, grid = three_splits()
    split_seeds = {k: derive_seeds(plan.master_seed, 1, k) for k in range(len(grid))}
    real = pareto.fit_network
    stacks = []

    def sink_split_1_lambda_1(features, labels, net_config, train_config, seeds, *, lambda_, **kw):
        stacks.append(list(seeds))
        fits = real(features, labels, net_config, train_config, seeds, lambda_=lambda_, **kw)
        return [sink(fit) if pair == split_seeds[len(grid) - 1] else fit for pair, fit in zip(seeds, fits)]

    monkeypatch.setattr(pareto, "fit_network", sink_split_1_lambda_1)
    res = run_sweep(ds, plan, grid, SMALL_SWEEP, jobs=1)
    endpoints, *interior = stacks
    assert len(endpoints) == 6 and interior  # one endpoint stack for the group, then the interior
    assert not {split_seeds[k] for k in range(1, len(grid) - 1)} & {s for stack in interior for s in stack}
    assert res.failures == every_lambda_failed(grid, "bounds", error, split_id=1)
    assert 1 not in res.bounds
    assert_same_sweep(res, ungrouped, split_ids=(0, 2))


def test_sweeps_pin_blas_to_one_thread_and_restore_it(monkeypatch):
    counts = [4]
    fake = {"scipy_openblas_get_num_threads64_": lambda: counts[-1], "scipy_openblas_set_num_threads64_": counts.append}
    monkeypatch.setattr(pareto, "_openblas", fake.get)
    pareto._set_blas_threads(1)
    assert counts == [4, 1]
    pareto._set_blas_threads(1)
    assert counts == [4, 1]  # already one thread: nothing set
    counts[:] = [4]
    run_sweep(*sweep_setup(), SMALL_SWEEP, jobs=1)
    assert counts == [4, 1, 4]  # pinned while the splits ran in this process


def test_forked_split_workers_inherit_the_one_blas_thread(monkeypatch, tmp_path):
    previous = pareto._set_blas_threads(2)  # a parent on two threads, which the sweep pins to one
    if previous is None:
        pytest.skip("numpy's bundled OpenBLAS has no thread-count functions here")
    get = pareto._openblas("scipy_openblas_get_num_threads64_")

    def record_threads(payload, train, stage):
        (tmp_path / str(os.getpid())).write_text(str(get()))
        return SweepResult(candidates=[], failures=[])

    monkeypatch.setattr(pareto, "_split_stage", record_threads)  # forked workers inherit the patch
    try:
        ds, _, grid = sweep_setup()
        run_sweep(ds, SplitPlan(num_splits=2, train_fraction=0.5, master_seed=8), grid, SMALL_SWEEP, jobs=2)
    finally:
        pareto._set_blas_threads(previous)
    threads = {int(f.name): f.read_text() for f in tmp_path.iterdir()}
    assert threads and os.getpid() not in threads
    assert set(threads.values()) == {"1"}


def test_blas_pinning_does_nothing_when_the_symbol_lookup_fails(monkeypatch):
    class NoSymbols:
        def __init__(self, path):
            pass

    monkeypatch.setattr(pareto.ctypes, "CDLL", NoSymbols)
    assert pareto._openblas("scipy_openblas_set_num_threads64_") is None
    assert pareto._set_blas_threads(1) is None  # nothing to call, nothing raised


# ---------------------------------------------------------------------------
# CSV round trip


def fake_candidates():
    ds = generate_synthetic(n=200, p=4, bias_strength=2.0, seed=20)
    plan = SplitPlan(num_splits=1, train_fraction=0.5, master_seed=8)
    return run_sweep(ds, plan, build_lambda_grid(4), SMALL_SWEEP, jobs=1).candidates


def test_csv_round_trip_preserves_digits(tmp_path):
    candidates = fake_candidates()
    path = tmp_path / "candidates.csv"
    write_candidates_csv(path, candidates)
    first = path.read_text().splitlines()[0]
    assert first == "split_id,lambda,r_test,u_ato,mv_eo,mv_eopp,mv_dp,nondominated_ato"
    rows, mask_col = read_candidates_csv(path)
    assert mask_col == "nondominated_ato"
    assert len(rows) == len(candidates)
    for row, cand in zip(rows, candidates):
        assert row["split_id"] == cand.split_id
        assert row["lambda"] == cand.lambda_  # %.17g survives the round trip
        for key in ("r_test", "u_ato", "mv_eo", "mv_eopp", "mv_dp"):
            assert row[key] == cand.metrics[key]
    # the stored mask agrees with a recomputation in the ATO plane
    r = np.array([c.metrics["r_test"] for c in candidates])
    u = np.array([c.metrics["u_ato"] for c in candidates])
    assert [bool(row["nondominated"]) for row in rows] == list(cull_nondominated(r, u))


def test_read_csv_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("split_id,lambda,r_test\n0,0.5,0.1\n")
    with pytest.raises(InputError):
        read_candidates_csv(path)


def test_read_csv_accepts_any_nondominated_suffix(tmp_path):
    path = tmp_path / "culled.csv"
    path.write_text(
        "split_id,lambda,r_test,u_ato,mv_eo,mv_eopp,mv_dp,nondominated_mv_dp\r\n"
        "0,0.5,0.25,0.01,0.02,0.03,0.04,1\r\n"
    )
    rows, mask_col = read_candidates_csv(path)
    assert mask_col == "nondominated_mv_dp"
    assert rows[0]["nondominated"] == 1
