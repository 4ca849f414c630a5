"""The shared minibatch training engine."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from fairfront import training
from fairfront.data import generate_synthetic, minibatches
from fairfront.errors import ConfigError, InputError, TrainingError
from fairfront.metrics import PENALTY_PENULTIMATE, ato_hidden_penalty, overlap_weights
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
    net = NetworkConfig(layer_sizes=[4, 3, 1], dropout_prob=0.2, seed=11)
    cfg = TrainConfig(epochs=5, batch_size=32)
    r1 = fit_network(ds.features, ds.labels, net, cfg, loop_seed=77)
    r2 = fit_network(ds.features, ds.labels, net, cfg, loop_seed=77)
    for w1, w2 in zip(r1.params.weights, r2.params.weights):
        assert np.array_equal(w1, w2)
    assert r1.epoch_objectives == r2.epoch_objectives


def test_lambda_zero_run_is_bitwise_plain_bce_descent():
    """The bounds-discovery risk run must literally be unpenalised training."""
    ds = generate_synthetic(n=150, p=5, bias_strength=2.0, seed=3)
    net = NetworkConfig(layer_sizes=[5, 4, 1], dropout_prob=0.2, seed=21)
    cfg = TrainConfig(epochs=4, batch_size=32, learning_rate=1e-3)
    fitted = fit_network(ds.features, ds.labels, net, cfg, loop_seed=5)

    # independent reference loop: raw BCE deltas, same rng consumption order
    params = init_network(net)
    adam = LayerAdam(params, cfg.learning_rate)
    sched = PlateauScheduler(factor=cfg.scheduler_factor, patience=cfg.scheduler_patience)
    rng = np.random.default_rng(5)
    indices = np.arange(150)
    for _ in range(cfg.epochs):
        risks = []
        for mb in minibatches(indices, cfg.batch_size, rng, features=ds.features, labels=ds.labels):
            trace = forward(params, net, mb.features, MODE_TRAIN, rng=rng)
            p = trace.output
            deltas = [None] * net.num_layers
            deltas[-1] = ((p - mb.labels) / mb.labels.size)[:, None]
            grads, _ = backprop(params, net, trace, deltas)
            adam.step(params, grads)
            risks.append(
                float(-np.mean(mb.labels * np.log(p) + (1 - mb.labels) * np.log(1 - p)))
            )
        adam.learning_rate = sched.step(float(np.mean(risks)), adam.learning_rate)

    for w1, w2 in zip(fitted.params.weights + fitted.params.biases, params.weights + params.biases):
        assert np.array_equal(w1, w2)  # bitwise identical, not merely close


def test_lambda_positive_requires_group_data():
    ds = generate_synthetic(n=60, p=3, bias_strength=1.0, seed=2)
    net = NetworkConfig(layer_sizes=[3, 2, 1], dropout_prob=0.0, seed=0)
    with pytest.raises(ConfigError, match="sensitives and propensities"):
        fit_network(ds.features, ds.labels, net, TrainConfig(epochs=1, batch_size=16), 0, lambda_=0.5)


def test_single_group_batches_are_counted_and_survived():
    rng = np.random.default_rng(9)
    n = 60
    x = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, size=n).astype(float)
    a = np.zeros(n, dtype=int)
    a[:4] = 1  # rare group: many batches of 8 will miss it
    e = np.clip(rng.uniform(0.2, 0.8, size=n), 0.01, 0.99)
    net = NetworkConfig(layer_sizes=[3, 3, 1], dropout_prob=0.0, seed=1)
    cfg = TrainConfig(epochs=6, batch_size=8)
    result = fit_network(
        x, y, net, cfg, loop_seed=13, lambda_=0.4, sensitives=a, propensities=e
    )
    assert result.skipped_group_batches > 0
    u_min, u_max = result.unfairness_range
    r_min, r_max = result.risk_range
    assert np.isfinite([u_min, u_max, r_min, r_max]).all()
    assert 0.0 <= u_min <= u_max and 0.0 < r_min <= r_max
    assert len(result.epoch_objectives) == cfg.epochs


def test_ranges_and_lr_reporting():
    ds = generate_synthetic(n=90, p=3, bias_strength=1.0, seed=5)
    net = NetworkConfig(layer_sizes=[3, 2, 1], dropout_prob=0.0, seed=2)
    cfg = TrainConfig(epochs=3, batch_size=30)
    result = fit_network(ds.features, ds.labels, net, cfg, loop_seed=1)
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


def stack_configs(seeds):
    return [NetworkConfig(layer_sizes=[4, 5, 3, 1], dropout_prob=0.2, seed=s) for s, _ in seeds]


def fit_stack(lambdas, seeds, train=STACK_TRAIN, **kw):
    x, y, a, e = stack_problem()
    return fit_network(
        x, y, stack_configs(seeds), train, [loop for _, loop in seeds], lambda_=lambdas,
        sensitives=a, propensities=e, penalty_mode="all_layers", **kw,
    )


def assert_same_fit(f1: FitResult, f2: FitResult):
    for w1, w2 in zip(f1.params.weights + f1.params.biases, f2.params.weights + f2.params.biases):
        assert np.array_equal(w1, w2)  # bitwise identical, not merely close
    assert f1.epoch_objectives == f2.epoch_objectives
    assert f1.risk_range == f2.risk_range
    assert f1.unfairness_range == f2.unfairness_range
    assert f1.skipped_group_batches == f2.skipped_group_batches
    assert f1.final_learning_rate == f2.final_learning_rate


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


def test_stacked_fit_matches_a_per_model_reference_loop():
    """Three epochs of a 3-lambda stack against plain 2-d per-model Chebyshev descent."""
    ds = generate_synthetic(n=192, p=4, bias_strength=2.0, seed=10)
    x, y, a = ds.features, ds.labels.astype(float), ds.sensitives
    e = np.clip(np.random.default_rng(6).uniform(0.2, 0.8, size=192), 0.01, 0.99)
    cfg = TrainConfig(epochs=3, batch_size=48, learning_rate=1e-2, scheduler_patience=0, scheduler_factor=0.5)
    bounds = StandardisationBounds(0.55, 0.75, 0.0, 0.3)
    lambdas = [0.1, 0.5, 1.0]
    seeds = [(41, 1), (42, 2), (43, 3)]
    nets = [NetworkConfig(layer_sizes=[4, 6, 1], dropout_prob=0.2, seed=s) for s, _ in seeds]
    stacked = fit_network(
        x, y, nets, cfg, [loop for _, loop in seeds], lambda_=lambdas, bounds=bounds,
        sensitives=a, propensities=e,
    )

    branches = set()
    for lam, net, (_, loop_seed), fit in zip(lambdas, nets, seeds, stacked):
        params = init_network(net)
        adam = LayerAdam(params, cfg.learning_rate)
        sched = PlateauScheduler(factor=cfg.scheduler_factor, patience=cfg.scheduler_patience)
        rng = np.random.default_rng(loop_seed)
        for _ in range(cfg.epochs):
            objectives = []
            batches = minibatches(
                np.arange(192), cfg.batch_size, rng, features=x, sensitives=a, labels=y, propensities=e
            )
            for mb in batches:
                trace = forward(params, net, mb.features, MODE_TRAIN, rng=rng)
                p = trace.output
                risk = -np.mean(mb.labels * np.log(p) + (1 - mb.labels) * np.log1p(-p))
                weights = overlap_weights(mb.propensities, mb.sensitives)
                unfairness, taus = ato_hidden_penalty(trace, weights, PENALTY_PENULTIMATE)
                r_t = (1 - lam) * (risk - bounds.risk_min) / bounds.risk_span
                u_t = lam * (unfairness - bounds.unfairness_min) / bounds.unfairness_span
                deltas = [None, None]
                if lam < 1.0 and r_t >= u_t:
                    branches.add("risk")
                    deltas[1] = ((p - mb.labels) / p.size * (1 - lam) / bounds.risk_span)[:, None]
                else:
                    branches.add("unfairness")
                    # Group totals as masked sums, as the stack forms them.  The
                    # penalty ignores the penalised layer's bias, so that bias
                    # descends on rounding noise alone, and a total summed in
                    # another order would move it by more than 1e-12.
                    w, s = weights.weights, mb.sensitives
                    treated, control = np.where(s == 1, w, 0.0).sum(), np.where(s == 0, w, 0.0).sum()
                    coeff = np.where(s == 1, w / treated, -w / control)
                    deltas[0] = np.outer(coeff * lam / bounds.unfairness_span, np.sign(taus[0]))
                grads, _ = backprop(params, net, trace, deltas)
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

    def init_network_with_poison(config):
        params = lone_init(config)
        if config.seed == poisoned_seed:
            params.weights[0][0, 0] = np.inf
        return params

    monkeypatch.setattr(training, "init_network", init_network_with_poison)
    with_poison = fit_stack(STACK_LAMBDAS, STACK_SEEDS)
    assert isinstance(with_poison[1], TrainingError)
    assert "non-finite" in str(with_poison[1])
    without = fit_stack(STACK_LAMBDAS[::2], STACK_SEEDS[::2])
    assert_same_fit(with_poison[0], without[0])
    assert_same_fit(with_poison[2], without[1])

    # a lone network's failure is raised, not returned
    x, y, a, e = stack_problem()
    with pytest.raises(TrainingError):
        fit_network(
            x, y, stack_configs(STACK_SEEDS)[1], STACK_TRAIN, 8, lambda_=0.4, sensitives=a, propensities=e
        )


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
    with pytest.raises(ConfigError, match="one loop seed"):
        fit_network(
            x, y, stack_configs(STACK_SEEDS), STACK_TRAIN, [1, 2], lambda_=STACK_LAMBDAS,
            sensitives=a, propensities=e,
        )
    mixed = stack_configs(STACK_SEEDS[:1]) + [NetworkConfig(layer_sizes=[4, 2, 1], seed=0)]
    with pytest.raises(ConfigError, match="architecture"):
        fit_network(x, y, mixed, STACK_TRAIN, [1, 2], lambda_=[0.0, 0.0])


def test_fit_rejects_bad_data_up_front():
    x, y, a, e = stack_problem()
    net = stack_configs(STACK_SEEDS)[0]
    bad_x = x.copy()
    bad_x[3, 1] = np.nan
    with pytest.raises(InputError, match="finite"):
        fit_network(bad_x, y, net, STACK_TRAIN, 0)
    bad_a = a.copy()
    bad_a[0] = 2
    with pytest.raises(InputError, match="0/1"):
        fit_network(x, y, net, STACK_TRAIN, 0, lambda_=0.5, sensitives=bad_a, propensities=e)
    bad_e = e.copy()
    bad_e[0] = 1.0
    with pytest.raises(InputError, match="inside"):
        fit_network(x, y, net, STACK_TRAIN, 0, lambda_=0.5, sensitives=a, propensities=bad_e)
