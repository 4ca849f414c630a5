"""Every public entry point checks the rows and the seeds it receives before any network runs.

forward, overlap_weights and bce_loss check nothing.  The entry points check
their rows once, with the one feature check (network._validated_features).
The stacked trainers (fit_network, train_adversarial, train_propensity)
check all their rows through one helper, training._stack_rows.  Labels and
sensitives go through metrics._as_binary, and propensities through
metrics._as_propensities, which also check their length against the row
count.
An entry point that takes feature_rows checks them with the one row-list
check (network._validated_rows), and the listed rows set the row count.
So each kind of bad row raises one exception type with one message,
whichever entry point receives it.  Features may come as any array-like,
such as nested lists.  A seed is an integer >= 0 (errors.SEED), and each entry
point that takes one raises ConfigError naming any other value.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fairfront import adversarial, evaluation, propensity, training
from fairfront.adversarial import AdversaryConfig, train_adversarial
from fairfront.errors import ConfigError, InputError, ShapeError
from fairfront.evaluation import evaluate_test_metrics
from fairfront.network import NetworkConfig, init_network
from fairfront.propensity import (
    PropensityConfig,
    PropensityModel,
    calibrate_temperature,
    predict_propensity,
    train_propensity,
)
from fairfront.training import TrainConfig, derive_seeds, fit_network

NET = NetworkConfig(layer_sizes=[3, 4, 1], dropout_prob=0.0)
TRAIN = TrainConfig(epochs=1, batch_size=4)
MODEL = PropensityModel(init_network(NET, 0), NET)
PROPENSITY = PropensityConfig(hidden_layers=1, hidden_width=4, epochs=1, batch_size=4)

# Each entry point as a call on (features, labels, sensitives, propensities,
# feature_rows), with the row arguments it takes.  The entry points that
# take feature_rows train on the listed rows of the features, and their
# labels and sensitives hold one entry per listed row.
ENTRY_POINTS = {
    "fit_network": (
        lambda x, y, a, e, r: fit_network(
            x, [y], NET, TRAIN, [(0, 0)], lambda_=[0.5], sensitives=[a], propensities=[e], feature_rows=[r]
        ),
        {"features", "labels", "sensitives", "propensities", "feature_rows"},
    ),
    "train_adversarial": (
        lambda x, y, a, e, r: train_adversarial(
            x, [y], [a], NET, TRAIN, AdversaryConfig(rounds=1), [0.5], [(0, 1)], feature_rows=[r]
        ),
        {"features", "labels", "sensitives", "feature_rows"},
    ),
    "evaluate_test_metrics": (
        lambda x, y, a, e, r: evaluate_test_metrics(init_network(NET, 0), NET, x, a, y, e),
        {"features", "labels", "sensitives", "propensities"},
    ),
    "predict_propensity": (lambda x, y, a, e, r: predict_propensity(MODEL, x), {"features"}),
    "calibrate_temperature": (lambda x, y, a, e, r: calibrate_temperature(MODEL, x, a), {"features", "sensitives"}),
    "train_propensity": (
        lambda x, y, a, e, r: train_propensity(x, [a], PROPENSITY, [0], feature_rows=[r]),
        {"features", "sensitives", "feature_rows"},
    ),
}
# The argument that holds an entry point's labels, where it is not "labels".
LABELS = {"train_propensity": "sensitives"}
# train_propensity sizes its network from the features, so no feature width is wrong there.
SIZED_BY_FEATURES = {"train_propensity"}


def _with(rows, i, value):
    bad = rows.copy()
    bad[i] = value
    return bad


OUT_OF_RANGE = "feature_rows must lie in [0, 8), the rows of its features"
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
    "row-out-of-range": ("feature_rows", lambda r: _with(r, 4, 8), InputError, OUT_OF_RANGE),
    "negative-row": ("feature_rows", lambda r: _with(r, 4, -1), InputError, OUT_OF_RANGE),
    "bool-rows": (
        "feature_rows", lambda r: r % 2 == 0, InputError, "feature_rows must hold integer row indices, got dtype bool"
    ),
    "float-rows": (
        "feature_rows", lambda r: r.astype(float), InputError,
        "feature_rows must hold integer row indices, got dtype float64",
    ),
    "2-d-rows": (
        "feature_rows", lambda r: r[:, None], ShapeError, "feature_rows must be one-dimensional, got shape (8, 1)"
    ),
    # The listed rows set the row count, which the labels are checked against.
    "short-rows": ("feature_rows", lambda r: r[:-1], ShapeError, "{labels} has 8 entries, but the row count is 7"),
}


def _rows():
    rng = np.random.default_rng(0)
    return {
        "features": rng.normal(size=(8, 3)),
        "labels": np.array([0.0, 1.0] * 4),
        "sensitives": np.array([0, 0, 1, 1] * 2),
        "propensities": rng.uniform(0.2, 0.8, size=8),
        "feature_rows": np.array([5, 0, 7, 2, 2, 6, 1, 3]),  # in no order, and row 2 twice
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
    assert str(err.value) == message.format(labels=LABELS.get(entry, "labels"))


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


# Each entry point that takes seeds, as a call with one seed replaced, and the name its error gives that seed.
SEED_ENTRY_POINTS = {
    "fit_network-init": (lambda s, x, y, a: fit_network(x, [y], NET, TRAIN, [(s, 0)]), "seeds[0][0]"),
    "fit_network-loop": (lambda s, x, y, a: fit_network(x, [y], NET, TRAIN, [(0, 0), (0, s)]), "seeds[1][1]"),
    "train_propensity": (lambda s, x, y, a: train_propensity(x, [a], PROPENSITY, [s]), "seed"),
    "train_adversarial-classifier": (
        lambda s, x, y, a: train_adversarial(x, [y], [a], NET, TRAIN, AdversaryConfig(rounds=1), [0.5], [(s, 1)]),
        "seeds[0][0]",
    ),
    "train_adversarial-adversary": (
        lambda s, x, y, a: train_adversarial(
            x, [y] * 2, [a] * 2, NET, TRAIN, AdversaryConfig(rounds=1), [0.5, 0.5], [(0, 1), (0, s)]
        ),
        "seeds[1][1]",
    ),
    "derive_seeds": (lambda s, x, y, a: derive_seeds(4, s), "seed"),
    "init_network": (lambda s, x, y, a: init_network(NET, s), "seed"),
}
BAD_SEEDS = {"bool": True, "fractional": 1.5, "negative": -1, "text": "3", "none": None}


@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
@pytest.mark.parametrize("kind", BAD_SEEDS)
def test_a_bad_seed_raises_config_error_naming_it_before_any_network_runs(entry, kind, no_forward):
    call, name = SEED_ENTRY_POINTS[entry]
    rows = _rows()
    with pytest.raises(ConfigError) as err:
        call(BAD_SEEDS[kind], rows["features"], rows["labels"], rows["sensitives"])
    assert str(err.value) == f"{name} must be an integer >= 0, got {BAD_SEEDS[kind]!r}"


@pytest.mark.parametrize("pair", [5, (1,), (1, 2, 3), None], ids=repr)
def test_a_seed_pair_of_another_form_is_rejected(pair, no_forward):
    rows = _rows()
    with pytest.raises(ConfigError, match=r"^seeds\[0\] must be an \(init seed, loop seed\) pair, got "):
        fit_network(rows["features"], [rows["labels"]], NET, TRAIN, [pair])
    with pytest.raises(ConfigError, match=r"^seeds\[0\] must be an \(init seed, loop seed\) pair, got "):
        train_adversarial(
            rows["features"], [rows["labels"]], [rows["sensitives"]], NET, TRAIN, AdversaryConfig(rounds=1), [0.5],
            [pair],
        )


def test_numpy_integer_seeds_seed_as_their_values():
    big = np.uint64(2**63)
    assert derive_seeds(np.int64(4), big) == derive_seeds(4, 2**63)
    np.testing.assert_equal(_plain(init_network(NET, big)), _plain(init_network(NET, 2**63)))
