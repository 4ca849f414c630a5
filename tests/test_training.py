"""The shared minibatch training engine."""
from __future__ import annotations

import hashlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fairfront import training
from fairfront.data import generate_synthetic
from fairfront.errors import ConfigError, InputError, ShapeError, TrainingError
from fairfront.metrics import ato_hidden_penalty, overlap_weights
from fairfront.network import (
    MODE_TRAIN,
    NetworkConfig,
    StandardisationBounds,
    backprop,
    forward,
    init_network,
)
from fairfront.optim import PlateauScheduler
from fairfront.training import EMPTY_RANGE, FitResult, TrainConfig, derive_seeds, fit_network
from conftest import minor_faults_of_a_second_call, needs_mallopt
from oracles import LayerAdam


def test_derive_seeds_depends_on_every_key():
    base = derive_seeds(1, 2, 3)
    assert derive_seeds(1, 2, 3) == base
    assert derive_seeds(9, 2, 3) != base
    assert derive_seeds(1, 9, 3) != base
    assert derive_seeds(1, 2, 9) != base
    assert all(isinstance(s, int) and s >= 0 for s in base)


def test_fit_is_deterministic():
    ds = generate_synthetic(n=120, p=4, bias_strength=1.0, seed=0)
    net = NetworkConfig(layer_sizes=[4, 3, 1], dropout_prob=0.2)
    cfg = TrainConfig(epochs=5, batch_size=32)
    (r1,) = fit_network(ds.features, [ds.labels], net, cfg, seeds=[(11, 77)])
    (r2,) = fit_network(ds.features, [ds.labels], net, cfg, seeds=[(11, 77)])
    for w1, w2 in zip(r1.params.weights, r2.params.weights):
        assert np.array_equal(w1, w2)
    assert r1.epoch_objectives == r2.epoch_objectives


def test_lambda_zero_run_is_bitwise_plain_bce_descent():
    """The bounds-discovery risk run must literally be unpenalised training."""
    ds = generate_synthetic(n=150, p=5, bias_strength=2.0, seed=3)
    net = NetworkConfig(layer_sizes=[5, 4, 1], dropout_prob=0.2)
    cfg = TrainConfig(epochs=4, batch_size=32, learning_rate=1e-3)
    (fitted,) = fit_network(ds.features, [ds.labels], net, cfg, seeds=[(21, 5)])

    # independent reference loop: raw BCE deltas, same rng consumption order
    params = init_network(net, 21)
    adam = LayerAdam(params, cfg.learning_rate)
    sched = PlateauScheduler(factor=cfg.scheduler_factor, patience=cfg.scheduler_patience)
    rng = np.random.default_rng(5)
    for _ in range(cfg.epochs):
        risks = []
        order = rng.permutation(150)
        for start in range(0, 150, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            labels = ds.labels[rows]
            trace = forward(params, net, ds.features[rows], MODE_TRAIN, rng=rng)
            p = trace.output
            deltas = [None] * net.num_layers
            deltas[-1] = ((p - labels) / labels.size)[:, None]
            grads = backprop(params, net, trace, deltas)
            adam.step(params, grads)
            risks.append(
                float(-np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p)))
            )
        adam.learning_rate = sched.step(float(np.mean(risks)), adam.learning_rate)

    for w1, w2 in zip(fitted.params.weights + fitted.params.biases, params.weights + params.biases):
        assert np.array_equal(w1, w2)  # bitwise identical, not merely close


def test_lambda_positive_requires_group_data():
    ds = generate_synthetic(n=60, p=3, bias_strength=1.0, seed=2)
    net = NetworkConfig(layer_sizes=[3, 2, 1], dropout_prob=0.0)
    with pytest.raises(ConfigError, match="sensitives and propensities"):
        fit_network(ds.features, [ds.labels], net, TrainConfig(epochs=1, batch_size=16), [(0, 0)], lambda_=[0.5])


def test_single_group_batches_are_counted_and_survived():
    rng = np.random.default_rng(9)
    n = 60
    x = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, size=n).astype(float)
    a = np.zeros(n, dtype=int)
    a[:4] = 1  # rare group: many batches of 8 will miss it
    e = np.clip(rng.uniform(0.2, 0.8, size=n), 0.01, 0.99)
    net = NetworkConfig(layer_sizes=[3, 3, 1], dropout_prob=0.0)
    cfg = TrainConfig(epochs=6, batch_size=8)
    (result,) = fit_network(x, [y], net, cfg, seeds=[(1, 13)], lambda_=[0.4], sensitives=[a], propensities=[e])
    assert result.skipped_group_batches > 0
    u_min, u_max = result.unfairness_range
    r_min, r_max = result.risk_range
    assert np.isfinite([u_min, u_max, r_min, r_max]).all()
    assert 0.0 <= u_min <= u_max and 0.0 < r_min <= r_max
    assert len(result.epoch_objectives) == cfg.epochs


def test_ranges_and_lr_reporting():
    ds = generate_synthetic(n=90, p=3, bias_strength=1.0, seed=5)
    net = NetworkConfig(layer_sizes=[3, 2, 1], dropout_prob=0.0)
    cfg = TrainConfig(epochs=3, batch_size=30)
    (result,) = fit_network(ds.features, [ds.labels], net, cfg, seeds=[(2, 1)])
    r_min, r_max = result.risk_range
    assert np.isfinite([r_min, r_max]).all() and r_min <= r_max
    assert result.unfairness_range == EMPTY_RANGE  # a lambda = 0 fit computes no penalty
    assert result.final_learning_rate <= cfg.learning_rate


# ---------------------------------------------------------------------------
# stacked fits


def stack_problem(n=130):
    """Data whose last batch of 32 holds 2 rows, so single-group batches occur."""
    ds = generate_synthetic(n=n, p=4, bias_strength=2.0, seed=8)
    e = np.clip(np.random.default_rng(4).uniform(0.2, 0.8, size=n), 0.01, 0.99)
    return ds.features, ds.labels.astype(float), ds.sensitives, e


STACK_TRAIN = TrainConfig(
    epochs=8, batch_size=32, learning_rate=1e-2, scheduler_factor=0.5, scheduler_patience=1
)
STACK_LAMBDAS = [0.0, 0.4, 1.0]
STACK_SEEDS = [(31, 7), (32, 8), (33, 9)]
STACK_NET = NetworkConfig(layer_sizes=[4, 5, 3, 1], dropout_prob=0.2)


def fit_stack(lambdas, seeds, train=STACK_TRAIN, bounds=None):
    """The networks trained as one stack, every member on the same rows and bounds."""
    x, y, a, e = stack_problem()
    k = len(seeds)
    return fit_network(
        x, [y] * k, STACK_NET, train, list(seeds), lambda_=lambdas,
        bounds=None if bounds is None else [bounds] * k, sensitives=[a] * k, propensities=[e] * k,
    )


def assert_same_fit(f1: FitResult, f2: FitResult):
    for w1, w2 in zip(f1.params.weights + f1.params.biases, f2.params.weights + f2.params.biases):
        assert np.array_equal(w1, w2)  # bitwise identical, not merely close
    assert f1.epoch_objectives == f2.epoch_objectives
    assert f1.risk_range == f2.risk_range
    assert f1.unfairness_range == f2.unfairness_range
    assert f1.skipped_group_batches == f2.skipped_group_batches
    assert f1.final_learning_rate == f2.final_learning_rate


def test_a_step_frees_its_trace_before_the_next_forward(monkeypatch):
    # Two live traces double a step's working set; the previous one must be gone.
    traces = []
    real = training.forward

    def spy(*args, **kwargs):
        assert all(ref() is None for ref in traces)
        trace = real(*args, **kwargs)
        traces.extend(weakref.ref(a) for a in (trace, *trace.preactivations, *trace.activations))
        return trace

    monkeypatch.setattr(training, "forward", spy)
    results = fit_stack(STACK_LAMBDAS, STACK_SEEDS)
    assert all(isinstance(r, FitResult) for r in results)
    assert len(traces) == STACK_TRAIN.epochs * 5 * (1 + 3 + 3)  # 130 rows in batches of 32


@pytest.mark.parametrize("bounds", [None, StandardisationBounds(0.3, 0.8, 0.0, 0.4)])
def test_stack_members_are_bitwise_their_lone_fits(bounds):
    stacked = fit_stack(STACK_LAMBDAS, STACK_SEEDS, bounds=bounds)
    assert len(stacked) == 3
    for lam, seeds, member in zip(STACK_LAMBDAS, STACK_SEEDS, stacked):
        (alone,) = fit_stack([lam], [seeds], bounds=bounds)
        assert_same_fit(member, alone)
    # the single-group fallback ran inside the stack, and the schedules differ per member
    assert all(m.skipped_group_batches > 0 for m in stacked[1:])
    assert stacked[0].skipped_group_batches == 0
    assert len({m.final_learning_rate for m in stacked}) > 1


def test_members_with_their_own_rows_and_bounds_are_bitwise_their_lone_fits():
    # three training sets of one row count, as the splits of a sweep have them;
    # 130 rows make a last batch of 2
    x, y, a, e = stack_problem(n=390)
    rows = [np.arange(0, 390, 3), np.arange(1, 390, 3)[::-1], np.random.default_rng(5).permutation(390)[:130]]
    sets = [(x[r], y[r], a[r], e[r]) for r in rows]
    bounds = [
        StandardisationBounds(0.3, 0.8, 0.0, 0.4),
        StandardisationBounds(0.4, 0.6, 0.0, 1.0),
        StandardisationBounds(0.5, 0.7, 0.1, 0.2),
    ]
    copies, labels, sensitives, propensities = (list(c) for c in zip(*sets))

    def fit_all(**wrong):
        per_member = dict(
            features=x, labels=labels, net_config=STACK_NET, seeds=STACK_SEEDS, lambda_=STACK_LAMBDAS,
            bounds=bounds, sensitives=sensitives, propensities=propensities, feature_rows=rows,
        )
        per_member.update(wrong)
        return fit_network(train_config=STACK_TRAIN, **per_member)

    lone_fits = [
        fit_network(
            xk, [yk], STACK_NET, STACK_TRAIN, [seeds], lambda_=[lam], bounds=[b],
            sensitives=[ak], propensities=[ek],
        )[0]
        for (xk, yk, ak, ek), b, lam, seeds in zip(sets, bounds, STACK_LAMBDAS, STACK_SEEDS)
    ]
    # Each member trains on its rows of the one shared matrix, or on its
    # gathered copy, the copies joined into one matrix.
    blocks = [np.arange(130) + 130 * i for i in range(3)]
    for stacked in [fit_all(), fit_all(features=np.concatenate(copies), feature_rows=blocks)]:
        for member, alone in zip(stacked, lone_fits):
            assert_same_fit(member, alone)

    # the stack shares one 2-d feature matrix: a list of matrices, or a
    # (K, n, ...) array, arrives as 3-d
    for wrong in [copies, np.stack(copies)]:
        with pytest.raises(ShapeError, match="features must be 2-d"):
            fit_all(features=wrong)

    # every per-member argument is a list: no bare value, no shared array, no
    # (K, n, ...) array, no shared bounds; the architecture is one config
    for wrong in [
        dict(net_config=[STACK_NET] * 3),
        dict(seeds=STACK_SEEDS[0]),
        dict(lambda_=STACK_LAMBDAS[1]),
        dict(labels=np.stack(labels)),
        dict(sensitives=a[rows[0]]),
        dict(propensities=np.stack(propensities)),
        dict(bounds=bounds[0]),
        dict(feature_rows=rows[0]),
        dict(feature_rows=rows[:2]),
    ]:
        (name,) = wrong
        with pytest.raises(ConfigError, match=name):
            fit_all(**wrong)


def fit_digest(results) -> str:
    """sha256 prefix of a stack's fits: every member's parameters and the diagnostics it reports."""
    h = hashlib.sha256()
    for fit in results:
        for arr in (*fit.params.weights, *fit.params.biases, fit.epoch_objectives, fit.risk_range,
                    fit.unfairness_range, fit.final_learning_rate, fit.skipped_group_batches):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def pinned_stack_of_three():
    """Three members on their own rows of one matrix, dropout on, 130 rows at batch 32 (a last batch of 2)."""
    x, y, a, e = stack_problem(n=390)
    rows = [np.arange(0, 390, 3), np.arange(1, 390, 3)[::-1], np.random.default_rng(5).permutation(390)[:130]]
    return fit_network(
        x, [y[r] for r in rows], STACK_NET, STACK_TRAIN, STACK_SEEDS, lambda_=[0.0, 0.5, 1.0],
        bounds=[StandardisationBounds(0.3, 0.8, 0.0, 0.4)] * 3, sensitives=[a[r] for r in rows],
        propensities=[e[r] for r in rows], feature_rows=rows,
    )


def pinned_wide_lone_fit():
    """A stack of one at batch 2,000 on 4,500 rows of 30 features (a last batch of 500), 64-unit layers."""
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((4_500, 30)), (rng.random(4_500) < 0.4).astype(float)
    a, e = (rng.random(4_500) < 0.5).astype(float), rng.uniform(0.2, 0.8, 4_500)
    net = NetworkConfig(layer_sizes=[30, 64, 64, 1], dropout_prob=0.2)
    train = TrainConfig(epochs=3, batch_size=2_000, learning_rate=1e-2)
    return fit_network(x, [y], net, train, [(5, 6)], lambda_=[0.5], sensitives=[a], propensities=[e])


# Digests of whole fits (fit_digest), taken before the loop's batching was
# rewritten: a change to how a step gathers its rows must not move a bit.
FIT_DIGESTS = {pinned_stack_of_three: "f52caecdd23272dc", pinned_wide_lone_fit: "43aa97fe042d99fb"}


@pytest.mark.parametrize("fit", list(FIT_DIGESTS), ids=lambda f: f.__name__)
def test_fits_keep_their_pinned_digests(fit):
    results = fit()
    assert all(isinstance(r, FitResult) for r in results)
    assert fit_digest(results) == FIT_DIGESTS[fit]


def test_a_fit_holds_one_step_of_rows_not_an_epoch():
    # An epoch's rows of 20,000 x 30 features are 4.8 MB; one step's 250 rows are 60 kB.
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((20_000, 30)), (rng.random(20_000) < 0.5).astype(float)
    net = NetworkConfig(layer_sizes=[30, 8, 1], dropout_prob=0.2)
    tracemalloc.start()
    try:
        (fit,) = fit_network(x, [y], net, TrainConfig(epochs=1, batch_size=250), [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(fit, FitResult)
    # 1.2 MB measured (the feature check's mask and the row-count vectors); 5.6 MB with an epoch buffer
    assert peak < 3_000_000


def test_per_member_training_sets_must_line_up():
    x, y, a, e = stack_problem()
    seeds = STACK_SEEDS[:2]
    rows = [np.arange(len(x)), np.arange(len(x) - 1)]
    with pytest.raises(ConfigError, match="equal row counts"):
        fit_network(x, [y, y[:-1]], STACK_NET, STACK_TRAIN, seeds, lambda_=[0.0, 0.0], feature_rows=rows)
    with pytest.raises(ConfigError, match="labels"):
        fit_network(x, [y], STACK_NET, STACK_TRAIN, seeds, lambda_=[0.0, 0.0])
    with pytest.raises(ConfigError, match="bounds"):
        fit_network(
            x, [y, y], STACK_NET, STACK_TRAIN, seeds, lambda_=[0.5, 0.5], sensitives=[a, a],
            propensities=[e, e], bounds=[StandardisationBounds(0.3, 0.8, 0.0, 0.4)],
        )
    bad_x = x.copy()
    bad_x[3, 1] = np.nan
    with pytest.raises(InputError, match="finite"):
        fit_network(bad_x, [y, y], STACK_NET, STACK_TRAIN, seeds, lambda_=[0.0, 0.0])


def test_a_penalised_fit_needs_a_hidden_layer():
    # A network without one has no penalty to descend: a lambda > 0 member
    # would come back as its untrained initialisation.
    x, y, a, e = stack_problem()
    no_hidden = NetworkConfig(layer_sizes=[4, 1], dropout_prob=0.0)
    with pytest.raises(ConfigError, match=r"^lambda > 0 penalises a hidden layer, and layer_sizes \[4, 1\] has none$"):
        fit_network(x, [y, y], no_hidden, STACK_TRAIN, STACK_SEEDS[:2], lambda_=[0.0, 1.0], sensitives=[a, a],
                    propensities=[e, e])
    (fit,) = fit_network(x, [y], no_hidden, STACK_TRAIN, STACK_SEEDS[:1])  # lambda = 0 trains plain BCE
    assert isinstance(fit, FitResult) and fit.epoch_objectives


def test_stacked_fit_matches_a_per_model_reference_loop():
    """Three epochs of a 3-lambda stack against plain 2-d per-model Chebyshev descent."""
    ds = generate_synthetic(n=192, p=4, bias_strength=2.0, seed=10)
    x, y, a = ds.features, ds.labels.astype(float), ds.sensitives
    e = np.clip(np.random.default_rng(6).uniform(0.2, 0.8, size=192), 0.01, 0.99)
    cfg = TrainConfig(epochs=3, batch_size=48, learning_rate=1e-2, scheduler_patience=0, scheduler_factor=0.5)
    bounds = StandardisationBounds(0.55, 0.75, 0.0, 0.3)
    lambdas = [0.1, 0.5, 1.0]
    seeds = [(41, 1), (42, 2), (43, 3)]
    net = NetworkConfig(layer_sizes=[4, 6, 1], dropout_prob=0.2)
    stacked = fit_network(
        x, [y] * 3, net, cfg, seeds, lambda_=lambdas, bounds=[bounds] * 3,
        sensitives=[a] * 3, propensities=[e] * 3,
    )

    branches = set()
    for lam, (init_seed, loop_seed), fit in zip(lambdas, seeds, stacked):
        params = init_network(net, init_seed)
        adam = LayerAdam(params, cfg.learning_rate)
        sched = PlateauScheduler(factor=cfg.scheduler_factor, patience=cfg.scheduler_patience)
        rng = np.random.default_rng(loop_seed)
        for _ in range(cfg.epochs):
            objectives = []
            order = rng.permutation(192)
            for start in range(0, 192, cfg.batch_size):
                rows = order[start : start + cfg.batch_size]
                labels, s = y[rows], a[rows]
                trace = forward(params, net, x[rows], MODE_TRAIN, rng=rng)
                p = trace.output
                risk = -np.mean(labels * np.log(p) + (1 - labels) * np.log1p(-p))
                weights = overlap_weights(e[rows], s)
                unfairness, tau = ato_hidden_penalty(trace, weights)
                r_t = (1 - lam) * (risk - bounds.risk_min) / bounds.risk_span
                u_t = lam * (unfairness - bounds.unfairness_min) / bounds.unfairness_span
                deltas = [None, None]
                if lam < 1.0 and r_t >= u_t:
                    branches.add("risk")
                    deltas[1] = ((p - labels) / p.size * (1 - lam) / bounds.risk_span)[:, None]
                else:
                    branches.add("unfairness")
                    # Group totals as masked sums, as the stack forms them.  The
                    # penalty ignores the penalised layer's bias, so that bias
                    # descends on rounding noise alone, and a total summed in
                    # another order would move it by more than 1e-12.
                    w = weights.weights
                    treated, control = np.where(s == 1, w, 0.0).sum(), np.where(s == 0, w, 0.0).sum()
                    coeff = np.where(s == 1, w / treated, -w / control)
                    deltas[0] = np.outer(coeff * lam / bounds.unfairness_span, np.sign(tau))
                grads = backprop(params, net, trace, deltas)
                adam.step(params, grads)
                objectives.append(max(r_t, u_t))
            adam.learning_rate = sched.step(float(np.mean(objectives)), adam.learning_rate)

        for w1, w2 in zip(fit.params.weights + fit.params.biases, params.weights + params.biases):
            np.testing.assert_allclose(w1, w2, rtol=0, atol=1e-12)
        assert fit.final_learning_rate == adam.learning_rate
    assert branches == {"risk", "unfairness"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_member_fails_alone(monkeypatch):
    poisoned_seed = STACK_SEEDS[1][0]
    lone_init = training.init_network

    def init_network_with_poison(config, seed):
        params = lone_init(config, seed)
        if seed == poisoned_seed:
            params.weights[0][0, 0] = np.inf
        return params

    monkeypatch.setattr(training, "init_network", init_network_with_poison)
    with_poison = fit_stack(STACK_LAMBDAS, STACK_SEEDS)
    assert isinstance(with_poison[1], TrainingError)
    assert "non-finite" in str(with_poison[1])
    without = fit_stack(STACK_LAMBDAS[::2], STACK_SEEDS[::2])
    assert_same_fit(with_poison[0], without[0])
    assert_same_fit(with_poison[2], without[1])

    # a stack of one returns its failure like any other stack
    (alone,) = fit_stack(STACK_LAMBDAS[1:2], STACK_SEEDS[1:2])
    assert isinstance(alone, TrainingError) and "non-finite" in str(alone)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_member_failing_in_a_later_epoch_keeps_its_slot(monkeypatch):
    train = replace(STACK_TRAIN, epochs=4)
    steps_per_epoch = -(-stack_problem()[0].shape[0] // train.batch_size)
    poisoned_call = 2 * steps_per_epoch + 2  # the second step of epoch 2
    calls = []
    lone_adam_step = training.adam_step

    def adam_step_with_poison(state, params, grads):
        lone_adam_step(state, params, grads)
        calls.append(params.shape[0])
        if len(calls) == poisoned_call:
            params[1] = np.inf

    monkeypatch.setattr(training, "adam_step", adam_step_with_poison)
    with_poison = fit_stack(STACK_LAMBDAS, STACK_SEEDS, train=train)
    monkeypatch.undo()
    assert calls == [3] * (4 * steps_per_epoch)  # every step of every epoch, on all three rows
    assert isinstance(with_poison[1], TrainingError)
    assert str(with_poison[1]).startswith("epoch 2: non-finite")
    for k in (0, 2):
        (alone,) = fit_stack([STACK_LAMBDAS[k]], [STACK_SEEDS[k]], train=train)
        assert_same_fit(with_poison[k], alone)


def test_stack_arguments_must_line_up():
    x, y, a, e = stack_problem()
    with pytest.raises(ConfigError, match="lambda_"):
        fit_network(
            x, [y] * 3, STACK_NET, STACK_TRAIN, STACK_SEEDS, lambda_=STACK_LAMBDAS[:2],
            sensitives=[a] * 3, propensities=[e] * 3,
        )


def test_fit_rejects_bad_data_up_front():
    x, y, a, e = stack_problem()
    net = STACK_NET
    bad_x = x.copy()
    bad_x[3, 1] = np.nan
    with pytest.raises(InputError, match="finite"):
        fit_network(bad_x, [y], net, STACK_TRAIN, [(0, 0)])
    bad_a = a.copy()
    bad_a[0] = 2
    with pytest.raises(InputError, match="0/1"):
        fit_network(x, [y], net, STACK_TRAIN, [(0, 0)], lambda_=[0.5], sensitives=[bad_a], propensities=[e])
    bad_e = e.copy()
    bad_e[0] = 1.0
    with pytest.raises(InputError, match="inside"):
        fit_network(x, [y], net, STACK_TRAIN, [(0, 0)], lambda_=[0.5], sensitives=[a], propensities=[bad_e])


def test_ragged_or_text_features_raise_input_error():
    # numpy cannot make one array of these; the feature check says so, not numpy's ValueError
    x, y, _, _ = stack_problem()
    text = x.tolist()
    text[3][1] = "1.5"
    for features in ([x, x[:-1]], [row[: 1 + i % 2] for i, row in enumerate(x.tolist())], text):
        with pytest.raises(InputError, match="features must be a regular array of numbers"):
            fit_network(features, [y], STACK_NET, STACK_TRAIN, [(0, 0)])


FIT_SETUP = """
import numpy as np
from fairfront.network import NetworkConfig
from fairfront.training import TrainConfig, fit_network

rng = np.random.default_rng(0)
x, y = rng.normal(size=(1000, 10)), rng.integers(0, 2, 1000).astype(float)
a, e = rng.integers(0, 2, 1000), rng.uniform(0.2, 0.8, 1000)
args = x, [y] * 12, NetworkConfig(layer_sizes=[10, 8, 1]), TrainConfig(epochs=60, batch_size=250)
kwargs = dict(lambda_=[0.5] * 12, sensitives=[a] * 12, propensities=[e] * 12)
seeds = [(k, k) for k in range(12)]
"""


@needs_mallopt
def test_a_direct_fit_reuses_its_step_arrays_from_the_heap():
    # 12 networks at batch 250 allocate arrays of 192 kB each step; called
    # outside a sweep at glibc's initial thresholds, the second fit of 240
    # steps took 45-62k minor page faults, with the thresholds settled about 1.
    assert minor_faults_of_a_second_call(FIT_SETUP, "fit_network(*args, seeds, **kwargs)") < 2_000
