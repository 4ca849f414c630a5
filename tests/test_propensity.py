"""Propensity training and temperature calibration."""
from __future__ import annotations

import math

import numpy as np
import pytest

from fairfront.errors import ConfigError, ShapeError
from fairfront.network import CLAMP, NetworkConfig, NetworkParams, _sigmoid, bce_loss
from fairfront.propensity import (
    PropensityConfig,
    PropensityModel,
    calibrate_temperature,
    predict_propensity,
    propensity_logits,
    train_propensity,
)

from oracles import bf_temperature_grid


def logit_passthrough_model(scale=1.0) -> PropensityModel:
    """A 1-feature linear "network" whose logit equals scale * x."""
    config = NetworkConfig(layer_sizes=[1, 1], dropout_prob=0.0)
    params = NetworkParams([np.array([[scale]])], [np.zeros(1)])
    return PropensityModel(params=params, config=config)


def miscalibrated_sample(rng, n=400, t_true=2.0):
    z = rng.normal(0.0, 2.0, size=n)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z / t_true))).astype(float)
    return z, y


def nll_of(model, features, targets) -> float:
    return bce_loss(predict_propensity(model, features), targets)


@pytest.mark.parametrize(
    "field, value",
    [("epochs", 0), ("batch_size", 0), ("learning_rate", 0.0), ("learning_rate", -1e-3),
     ("dropout_prob", 1.5), ("dropout_prob", -0.1), ("hidden_layers", 0)],
)
def test_config_rejects_values_no_fit_can_run_with(field, value):
    with pytest.raises(ConfigError, match=field.split("_")[0]):
        PropensityConfig(**{field: value})


def test_training_learns_separable_attribute():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(300, 3))
    a = (x[:, 0] > 0).astype(int)
    config = PropensityConfig(
        hidden_layers=2, hidden_width=8, epochs=200, batch_size=64, dropout_prob=0.1, learning_rate=3e-3
    )
    (model,) = train_propensity(x, [a], config, seed=[4])
    assert model.temperature == 1.0  # calibration is a separate, later step
    e = predict_propensity(model, x)
    assert np.all((e > 0) & (e < 1))
    # should separate the groups far better than chance
    assert e[a == 1].mean() - e[a == 0].mean() > 0.5


def test_training_is_deterministic_in_seed():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(100, 3))
    a = (rng.random(100) < 0.5).astype(int)
    config = PropensityConfig(hidden_layers=1, hidden_width=4, epochs=10, batch_size=32)
    (m1,) = train_propensity(x, [a], config, seed=[9])
    (m2,) = train_propensity(x, [a], config, seed=[9])
    for w1, w2 in zip(m1.params.weights, m2.params.weights):
        assert np.array_equal(w1, w2)


@pytest.mark.parametrize("name", ["sensitives", "seed"])
def test_training_takes_one_list_entry_per_model(name):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 3))
    a = (rng.random(40) < 0.5).astype(int)
    config = PropensityConfig(hidden_layers=1, hidden_width=4, epochs=1, batch_size=16)
    per_model = dict(features=x, sensitives=[a], seed=[3])
    per_model[name] = per_model[name][0]  # a bare value, not a list of one
    with pytest.raises(ConfigError, match=name):
        train_propensity(config=config, **per_model)


def test_training_takes_one_feature_matrix_for_every_model():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 3))
    a = (rng.random(40) < 0.5).astype(int)
    config = PropensityConfig(hidden_layers=1, hidden_width=4, epochs=1, batch_size=16)
    with pytest.raises(ShapeError, match=r"^features must be 2-d \(rows, features\), got shape \(1, 40, 3\)$"):
        train_propensity([x], [a], config, [3])
    assert len(train_propensity(x, [a, a], config, [3, 4])) == 2


def test_calibration_never_hurts_validation_nll():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t_true = float(rng.uniform(0.4, 4.0))
        z, y = miscalibrated_sample(rng, t_true=t_true)
        model = logit_passthrough_model()
        calibrated = calibrate_temperature(model, z[:, None], y)
        assert nll_of(calibrated, z[:, None], y) <= nll_of(model, z[:, None], y) + 1e-9


def test_calibration_matches_dense_grid_search():
    rng = np.random.default_rng(6)
    z, y = miscalibrated_sample(rng, n=600, t_true=2.5)
    calibrated = calibrate_temperature(logit_passthrough_model(), z[:, None], y)
    t_grid = bf_temperature_grid(z, y)
    assert abs(math.log(calibrated.temperature) - math.log(t_grid)) < 5e-4


def test_calibration_stationary_at_one_stays_one():
    # logits +-log 3 with 3:1 outcome ratios make T=1 the exact optimum
    z = np.array([math.log(3.0)] * 4 + [-math.log(3.0)] * 4)
    y = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    calibrated = calibrate_temperature(logit_passthrough_model(), z[:, None], y)
    assert abs(math.log(calibrated.temperature)) < 1e-3


def test_doubled_logits_double_the_temperature():
    rng = np.random.default_rng(8)
    z, y = miscalibrated_sample(rng, n=500, t_true=1.7)
    t1 = calibrate_temperature(logit_passthrough_model(1.0), z[:, None], y).temperature
    t2 = calibrate_temperature(logit_passthrough_model(2.0), z[:, None], y).temperature
    assert abs(math.log(t2 / 2.0) - math.log(t1)) < 1e-3


def test_useless_logits_fall_back_to_identity():
    # labels independent of the logits: flattening (T -> bracket top) wins, but
    # if the improvement is not real the guard must keep T = 1; either way the
    # calibrated model is never worse than the raw one.
    rng = np.random.default_rng(12)
    z = rng.normal(size=200)
    y = (rng.random(200) < 0.5).astype(float)
    model = logit_passthrough_model()
    calibrated = calibrate_temperature(model, z[:, None], y)
    assert nll_of(calibrated, z[:, None], y) <= nll_of(model, z[:, None], y) + 1e-9


def test_predict_is_clamped_scaled_sigmoid():
    model = logit_passthrough_model(3.0)
    recal = PropensityModel(params=model.params, config=model.config, temperature=2.0)
    x = np.array([[-100.0], [0.0], [100.0]])
    e = predict_propensity(recal, x)
    assert e[0] == CLAMP and e[2] == 1.0 - CLAMP
    assert e[1] == pytest.approx(0.5)
    logits = propensity_logits(recal, x)
    assert logits[1] == 0.0 and logits[2] == 300.0
    # bitwise the sigmoid clipped by np.clip, on logits spanning +-40
    z = np.linspace(-40.0, 40.0, 2001)
    halved = PropensityModel(params=logit_passthrough_model().params, config=model.config, temperature=2.0)
    assert np.array_equal(predict_propensity(halved, z[:, None]), np.clip(_sigmoid(z / 2.0), CLAMP, 1.0 - CLAMP))


def test_propensity_model_validates_temperature():
    model = logit_passthrough_model()
    with pytest.raises(Exception):
        PropensityModel(params=model.params, config=model.config, temperature=0.0)
