"""Adversarial baseline: gradient path, freezing, alternation, sweep."""
from __future__ import annotations

import math

import numpy as np
import pytest

from fairfront import adversarial
from fairfront.adversarial import (
    AdversaryConfig,
    _cycled_batches,
    classifier_objective_gradient,
    run_adversarial_sweep,
    train_adversarial,
)
from fairfront.data import SplitPlan, generate_synthetic, minibatches
from fairfront.errors import ConfigError, InputError, NumericError, ShapeError
from fairfront.network import (
    MODE_EVAL,
    MODE_TRAIN,
    NetworkConfig,
    NetworkParams,
    backprop,
    bce_loss,
    forward,
    init_network,
)
from fairfront.pareto import SweepConfig, build_lambda_grid
from fairfront.propensity import PropensityConfig
from fairfront.training import TrainConfig, derive_seeds

from conftest import draw_gradient_fixture
from oracles import LayerAdam, adversarial_objective, fd_gradient, max_relative_error


def adversary_with_margins(rng, scores, hidden_layers=2, width=6):
    """Init adversaries until the given scores sit clear of its ReLU kinks."""
    config = AdversaryConfig(hidden_layers=hidden_layers, hidden_width=width)
    while True:
        net = config.network_config(int(rng.integers(2**31)))
        params = init_network(net)
        trace = forward(params, net, scores[:, None], MODE_EVAL)
        if all(np.min(np.abs(h)) > 1e-3 for h in trace.preactivations[:-1]):
            return params, net


def test_classifier_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    for _ in range(3):
        fx = draw_gradient_fixture(rng)
        adv_params, adv_net = adversary_with_margins(rng, fx["trace"].output)
        a = fx["sensitives"].astype(float)
        for lam in (0.0, 0.7):
            grads, value = classifier_objective_gradient(
                fx["params"], fx["config"], adv_params, adv_net,
                fx["trace"], fx["labels"], a, lam,
            )
            objective = lambda p: adversarial_objective(
                p, fx["config"], adv_params, adv_net,
                fx["x"], fx["labels"], a, lam, fx["masks"],
            )
            assert value == pytest.approx(objective(fx["params"]), abs=1e-12)
            assert max_relative_error(grads, fd_gradient(objective, fx["params"])) < 1e-4


def test_adversary_gradient_matches_finite_differences_at_the_clamp():
    # A 1 -> 1 adversary with weight 40 maps scores 0.9 and 0.95 to sigmoid
    # values the output clamp pins at 1 - CLAMP, where the loss no longer moves.
    net = NetworkConfig(layer_sizes=[1, 1], dropout_prob=0.0)
    params = NetworkParams([np.array([[40.0]])], [np.zeros(1)])
    scores, a = np.array([0.9, 0.95]), np.zeros(2)
    grads, d_first, _ = adversarial._adversary_gradient(params, net, scores, a)
    objective = lambda p: bce_loss(forward(p, net, scores[:, None], MODE_EVAL).output, a)
    numeric = fd_gradient(objective, params)
    assert numeric.weights[0][0, 0] == 0.0
    assert max_relative_error(grads, numeric) == 0.0
    assert np.array_equal((d_first @ params.weights[0])[:, 0], np.zeros(2))


def small_problem(seed=0, n=140):
    ds = generate_synthetic(n=n, p=4, bias_strength=2.0, seed=seed)
    clf = NetworkConfig(layer_sizes=[4, 4, 1], dropout_prob=0.2)
    train = TrainConfig(epochs=3, batch_size=32)
    return ds, clf, train


def test_classifier_steps_never_touch_the_adversary():
    ds, clf, train = small_problem(1)
    adv_cfg = AdversaryConfig(
        hidden_layers=2, hidden_width=5,
        pretrain_classifier_epochs=3, pretrain_adversary_epochs=0, rounds=0,
    )
    result = train_adversarial(
        ds.features, ds.labels.astype(float), ds.sensitives, clf, train, adv_cfg, 0.8, (3, 4)
    )
    fresh = init_network(result.adversary_config)
    for w1, w2 in zip(result.adversary_params.weights, fresh.weights):
        assert np.array_equal(w1, w2)  # adversary still at initialisation


def test_adversary_pretraining_never_touches_the_classifier():
    ds, clf, train = small_problem(2)
    adv_cfg = AdversaryConfig(
        hidden_layers=2, hidden_width=5,
        pretrain_classifier_epochs=0, pretrain_adversary_epochs=3, rounds=0,
    )
    result = train_adversarial(
        ds.features, ds.labels.astype(float), ds.sensitives, clf, train, adv_cfg, 0.8, (3, 4)
    )
    fresh = init_network(result.classifier_config)
    for w1, w2 in zip(result.classifier_params.weights, fresh.weights):
        assert np.array_equal(w1, w2)


def test_alternation_takes_one_step_of_each_player_per_round(monkeypatch):
    ds, clf, train = small_problem(3)
    adv_cfg = AdversaryConfig(
        hidden_layers=1, hidden_width=4,
        pretrain_classifier_epochs=2, pretrain_adversary_epochs=2, rounds=7,
    )
    classifier_steps, adversary_epochs = [], []
    real_gradient, real_forward = adversarial.classifier_objective_gradient, adversarial.forward

    def count_step(*args):
        classifier_steps.append(1)
        return real_gradient(*args)

    def count_epoch(params, config, inputs, mode=MODE_EVAL, **kwargs):
        if mode == MODE_EVAL and config.layer_sizes[0] != 1:  # each adversary epoch scores the classifier once
            adversary_epochs.append(1)
        return real_forward(params, config, inputs, mode, **kwargs)

    monkeypatch.setattr(adversarial, "classifier_objective_gradient", count_step)
    monkeypatch.setattr(adversarial, "forward", count_epoch)
    train_adversarial(ds.features, ds.labels.astype(float), ds.sensitives, clf, train, adv_cfg, 0.5, (0, 1))
    batches_per_epoch = -(-ds.n_rows // train.batch_size)
    assert len(classifier_steps) == 2 * batches_per_epoch + 7
    assert len(adversary_epochs) == 2 + 7


def test_training_is_deterministic_in_seeds():
    ds, clf, train = small_problem(4)
    adv_cfg = AdversaryConfig(hidden_layers=1, hidden_width=4, rounds=5,
                              pretrain_classifier_epochs=1, pretrain_adversary_epochs=1)
    r1 = train_adversarial(ds.features, ds.labels.astype(float), ds.sensitives, clf, train, adv_cfg, 0.3, (8, 9))
    r2 = train_adversarial(ds.features, ds.labels.astype(float), ds.sensitives, clf, train, adv_cfg, 0.3, (8, 9))
    r3 = train_adversarial(ds.features, ds.labels.astype(float), ds.sensitives, clf, train, adv_cfg, 0.3, (8, 10))
    for w1, w2 in zip(r1.classifier_params.weights, r2.classifier_params.weights):
        assert np.array_equal(w1, w2)
    assert any(
        not np.array_equal(w1, w3)
        for w1, w3 in zip(r1.classifier_params.weights, r3.classifier_params.weights)
    )


def test_batch_cycler_covers_everything_and_reshuffles():
    rng = np.random.default_rng(0)
    idx = np.arange(10)
    batches = _cycled_batches(idx, 4, rng)
    first_pass = [next(batches) for _ in range(3)]
    assert [len(b) for b in first_pass] == [4, 4, 2]
    assert np.array_equal(np.sort(np.concatenate(first_pass)), idx)
    second_pass = [next(batches) for _ in range(3)]
    assert np.array_equal(np.sort(np.concatenate(second_pass)), idx)
    assert any(
        not np.array_equal(a, b) for a, b in zip(first_pass, second_pass)
    )  # new shuffle, not a replay


def test_adversarial_sweep_rows_and_objective_fields():
    ds = generate_synthetic(n=220, p=4, bias_strength=2.0, seed=15)
    plan = SplitPlan(num_splits=1, train_fraction=0.5, master_seed=6)
    cfg = SweepConfig(
        num_layers=2, hidden_width=4, dropout_prob=0.2, penalty_mode="penultimate",
        train=TrainConfig(epochs=5, batch_size=64),
        propensity=PropensityConfig(hidden_layers=1, hidden_width=6, epochs=10, batch_size=64),
    )
    adv_cfg = AdversaryConfig(hidden_layers=1, hidden_width=4, rounds=4,
                              pretrain_classifier_epochs=1, pretrain_adversary_epochs=1)
    res = run_adversarial_sweep(ds, plan, build_lambda_grid(3), cfg, adv_cfg, jobs=1)
    assert len(res.candidates) == 3
    assert not res.failures
    for c in res.candidates:
        assert set(c.metrics) == {"r_test", "u_ato", "mv_eo", "mv_eopp", "mv_dp"}
        assert math.isnan(c.final_epoch_objective)  # no epoch objective in this protocol
    assert 0 in res.propensity_models


def reference_adversarial(x, y, a, clf_template, train, adv_config, lambda_, seeds):
    """The alternation written plainly: per-layer parameter arrays, each with
    its own Adam state, and the classifier re-scored on every adversary
    minibatch.  Returns the final (classifier, adversary) parameters."""
    clf_cfg = NetworkConfig(
        layer_sizes=list(clf_template.layer_sizes), dropout_prob=clf_template.dropout_prob, seed=seeds[0]
    )
    adv_init, loop_seed = derive_seeds(seeds[1])
    adv_cfg = adv_config.network_config(adv_init)
    clf, adv = init_network(clf_cfg), init_network(adv_cfg)
    clf_adam = LayerAdam(clf, train.learning_rate)
    adv_adam = LayerAdam(adv, adv_config.learning_rate)
    rng = np.random.default_rng(loop_seed)
    idx = np.arange(y.size)

    def classifier_step(rows):
        trace = forward(clf, clf_cfg, x[rows], MODE_TRAIN, rng=rng)
        grads, _ = classifier_objective_gradient(clf, clf_cfg, adv, adv_cfg, trace, y[rows], a[rows], lambda_)
        clf_adam.step(clf, grads)

    def adversary_epoch():
        for mb in minibatches(idx, train.batch_size, rng):
            scores = forward(clf, clf_cfg, x[mb.indices], MODE_EVAL).output
            trace = forward(adv, adv_cfg, scores[:, None], MODE_EVAL)
            deltas = [None] * adv_cfg.num_layers
            deltas[-1] = ((trace.output - a[mb.indices]) / mb.indices.size)[:, None]
            grads, _ = backprop(adv, adv_cfg, trace, deltas)
            adv_adam.step(adv, grads)

    for _ in range(adv_config.pretrain_classifier_epochs):
        for mb in minibatches(idx, train.batch_size, rng):
            classifier_step(mb.indices)
    for _ in range(adv_config.pretrain_adversary_epochs):
        adversary_epoch()
    order, pos = idx[:0], 0
    for _ in range(adv_config.rounds):
        adversary_epoch()
        if pos >= order.size:
            order, pos = idx[rng.permutation(idx.size)], 0
        classifier_step(order[pos : pos + train.batch_size])
        pos += train.batch_size
    return clf, adv


@pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
def test_training_matches_the_plain_reference_loop(lam):
    ds, clf, train = small_problem(5)
    adv_cfg = AdversaryConfig(
        hidden_layers=2, hidden_width=6,
        pretrain_classifier_epochs=2, pretrain_adversary_epochs=2, rounds=9,
    )
    y, a = ds.labels.astype(float), ds.sensitives.astype(float)
    result = train_adversarial(ds.features, y, ds.sensitives, clf, train, adv_cfg, lam, (11, 12))
    ref_clf, ref_adv = reference_adversarial(ds.features, y, a, clf, train, adv_cfg, lam, (11, 12))
    for got, want in ((result.classifier_params, ref_clf), (result.adversary_params, ref_adv)):
        for g, w in zip((*got.weights, *got.biases), (*want.weights, *want.biases)):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-12
    assert not np.array_equal(result.classifier_params.weights[0], init_network(result.classifier_config).weights[0])


def _no_step(*args, **kwargs):
    raise AssertionError("the loop started before the inputs were validated")


@pytest.mark.parametrize(
    "corrupt, error",
    [
        (lambda x, y, a: (np.where(np.arange(x.size).reshape(x.shape) == 5, np.nan, x), y, a), InputError),
        (lambda x, y, a: (x, y, np.where(np.arange(a.size) == 3, 2, a)), InputError),
        (lambda x, y, a: (x, y[:-1], a), ShapeError),
        (lambda x, y, a: (x, y, a[:-1]), ShapeError),
        (lambda x, y, a: (x[:, :3], y, a), ShapeError),
    ],
    ids=["nonfinite-features", "nonbinary-sensitives", "short-labels", "short-sensitives", "narrow-features"],
)
def test_inputs_are_rejected_before_any_step(corrupt, error, monkeypatch):
    ds, clf, train = small_problem(6)
    monkeypatch.setattr(adversarial, "forward", _no_step)
    monkeypatch.setattr(adversarial, "adam_step", _no_step)
    adv_cfg = AdversaryConfig(hidden_layers=1, hidden_width=4, rounds=2)
    x, y, a = corrupt(ds.features, ds.labels.astype(float), ds.sensitives)
    with pytest.raises(error):
        train_adversarial(x, y, a, clf, train, adv_cfg, 0.5, (0, 1))


@pytest.mark.parametrize("lam", [-0.1, 1.5, float("nan")])
def test_lambda_outside_the_unit_interval_is_rejected(lam):
    ds, clf, train = small_problem(6)
    with pytest.raises(ConfigError):
        train_adversarial(ds.features, ds.labels, ds.sensitives, clf, train, AdversaryConfig(), lam, (0, 1))


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
def test_adversary_learning_rate_must_be_positive(rate):
    with pytest.raises(ConfigError, match="learning_rate"):
        AdversaryConfig(learning_rate=rate)


# A step size this large sends the classifier's parameters to inf within two
# steps, and its gradients to nan after that.
DIVERGING = TrainConfig(epochs=1, batch_size=32, learning_rate=1e308)


def test_diverged_parameters_raise_numeric_error():
    ds, clf, _ = small_problem(7)
    adv_cfg = AdversaryConfig(
        hidden_layers=1, hidden_width=4,
        pretrain_classifier_epochs=1, pretrain_adversary_epochs=0, rounds=3,
    )
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="classifier pretraining epoch 0"):
        train_adversarial(ds.features, ds.labels, ds.sensitives, clf, DIVERGING, adv_cfg, 0.5, (0, 1))


def test_diverged_runs_become_adversarial_failure_records():
    ds = generate_synthetic(n=220, p=4, bias_strength=2.0, seed=15)
    plan = SplitPlan(num_splits=1, train_fraction=0.5, master_seed=6)
    cfg = SweepConfig(
        num_layers=2, hidden_width=4, dropout_prob=0.2, train=DIVERGING,
        propensity=PropensityConfig(hidden_layers=1, hidden_width=6, epochs=10, batch_size=64),
    )
    adv_cfg = AdversaryConfig(hidden_layers=1, hidden_width=4, rounds=2,
                              pretrain_classifier_epochs=1, pretrain_adversary_epochs=1)
    with np.errstate(all="ignore"):
        res = run_adversarial_sweep(ds, plan, build_lambda_grid(3), cfg, adv_cfg, jobs=1)
    assert not res.candidates
    assert [(f["lambda_index"], f["stage"]) for f in res.failures] == [(k, "adversarial") for k in range(3)]
    assert all(f["error"].startswith("NumericError") for f in res.failures)
    assert 0 in res.propensity_models
