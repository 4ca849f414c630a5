"""Every public entry point checks the rows it receives before any network runs.

forward, overlap_weights and bce_loss check nothing.  The entry points check
their rows once, with the one feature check (network._validated_features, or
network._validated_data with the labels) and, where they take groups, the one
group check (metrics._validated_groups).  Labels and sensitives go through
metrics._as_binary, which also checks their length against the row count.
So each kind of bad row raises one exception type with one message,
whichever entry point receives it.  Features may come as any array-like,
such as nested lists.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fairfront import adversarial, evaluation, propensity, training
from fairfront.adversarial import AdversaryConfig, train_adversarial
from fairfront.errors import InputError, ShapeError
from fairfront.evaluation import evaluate_test_metrics
from fairfront.network import NetworkConfig, init_network
from fairfront.propensity import (
    PropensityConfig,
    PropensityModel,
    calibrate_temperature,
    predict_propensity,
    train_propensity,
)
from fairfront.training import TrainConfig, fit_network

NET = NetworkConfig(layer_sizes=[3, 4, 1], dropout_prob=0.0)
TRAIN = TrainConfig(epochs=1, batch_size=4)
MODEL = PropensityModel(init_network(NET), NET)
PROPENSITY = PropensityConfig(hidden_layers=1, hidden_width=4, epochs=1, batch_size=4)

# Each entry point as a call on (features, labels, sensitives, propensities),
# with the row arguments it takes.
ENTRY_POINTS = {
    "fit_network": (
        lambda x, y, a, e: fit_network([x], [y], [NET], TRAIN, [0], lambda_=[0.5], sensitives=[a], propensities=[e]),
        {"features", "labels", "sensitives", "propensities"},
    ),
    "train_adversarial": (
        lambda x, y, a, e: train_adversarial(x, y, a, NET, TRAIN, AdversaryConfig(rounds=1), 0.5, (0, 1)),
        {"features", "labels", "sensitives"},
    ),
    "evaluate_test_metrics": (
        lambda x, y, a, e: evaluate_test_metrics(init_network(NET), NET, x, a, y, e),
        {"features", "labels", "sensitives", "propensities"},
    ),
    "predict_propensity": (lambda x, y, a, e: predict_propensity(MODEL, x), {"features"}),
    "calibrate_temperature": (lambda x, y, a, e: calibrate_temperature(MODEL, x, a), {"features", "sensitives"}),
    "train_propensity": (lambda x, y, a, e: train_propensity([x], [a], PROPENSITY, [0]), {"features", "sensitives"}),
}
# train_propensity sizes its network from the features, so no feature width is wrong there.
SIZED_BY_FEATURES = {"train_propensity"}


def _with(rows, i, value):
    bad = rows.copy()
    bad[i] = value
    return bad


# kind -> (the row argument it corrupts, the corruption, the one error and message)
BAD_ROWS = {
    "wrong-width": ("features", lambda x: x[:, :2], ShapeError, "features have 2 columns but the network expects 3"),
    "1-d": ("features", lambda x: x[:, 0], ShapeError, "features must be 2-d (rows, features), got shape (8,)"),
    "0-d": ("features", lambda x: x[0, 0], ShapeError, "features must be 2-d (rows, features), got shape ()"),
    "non-finite": ("features", lambda x: _with(x, (5, 1), np.nan), InputError, "features contain non-finite entries"),
    "propensity-0": (
        "propensities", lambda e: _with(e, 2, 0.0), InputError, "propensities must lie strictly inside (0, 1)"
    ),
    "propensity-1": (
        "propensities", lambda e: _with(e, 2, 1.0), InputError, "propensities must lie strictly inside (0, 1)"
    ),
    "fractional-sensitive": (
        "sensitives", lambda a: _with(a.astype(float), 3, 0.5), InputError, "sensitives must contain only 0/1 values"
    ),
    "2-d-sensitive": (
        "sensitives", lambda a: a[:, None], ShapeError, "sensitives must be one-dimensional, got shape (8, 1)"
    ),
    "fractional-label": ("labels", lambda y: _with(y, 3, 0.5), InputError, "labels must contain only 0/1 values"),
    "2-d-label": ("labels", lambda y: y[:, None], ShapeError, "labels must be one-dimensional, got shape (8, 1)"),
    "short-labels": ("labels", lambda y: y[:-1], ShapeError, "labels has 7 entries, but the row count is 8"),
    "short-sensitives": (
        "sensitives", lambda a: a[:-1], ShapeError, "sensitives has 7 entries, but the row count is 8"
    ),
    "short-propensities": (
        "propensities", lambda e: e[:-1], ShapeError, "propensities has 7 entries, but the row count is 8"
    ),
}


def _rows():
    rng = np.random.default_rng(0)
    return {
        "features": rng.normal(size=(8, 3)),
        "labels": np.array([0.0, 1.0] * 4),
        "sensitives": np.array([0, 0, 1, 1] * 2),
        "propensities": rng.uniform(0.2, 0.8, size=8),
    }


def _no_forward(*args, **kwargs):
    raise AssertionError("a network ran before the rows were checked")


@pytest.fixture
def no_forward(monkeypatch):
    for module in (training, adversarial, evaluation, propensity):
        monkeypatch.setattr(module, "forward", _no_forward)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_clean_rows_reach_the_network(entry, no_forward):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(AssertionError, match="a network ran"):
        call(*_rows().values())


@pytest.mark.parametrize(
    "entry, kind",
    [
        (entry, kind)
        for entry, (_, takes) in ENTRY_POINTS.items()
        for kind, bad in BAD_ROWS.items()
        if bad[0] in takes and not (kind == "wrong-width" and entry in SIZED_BY_FEATURES)
    ],
)
def test_bad_rows_are_rejected_with_one_message_before_any_network_runs(entry, kind, no_forward):
    call, _ = ENTRY_POINTS[entry]
    name, corrupt, error, message = BAD_ROWS[kind]
    rows = _rows()
    rows[name] = corrupt(rows[name])
    with pytest.raises(error) as err:
        call(*rows.values())
    assert str(err.value) == message


def _plain(value):
    """value with every dataclass turned into a dict, so np.testing.assert_equal can compare it."""
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_features_as_nested_lists_give_what_the_array_gives(entry):
    call, _ = ENTRY_POINTS[entry]
    rows = _rows()
    from_array = call(*rows.values())
    rows["features"] = rows["features"].tolist()
    np.testing.assert_equal(_plain(call(*rows.values())), _plain(from_array))
