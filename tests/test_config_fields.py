"""Each config class declares what its fields accept, and construction checks it.

Every int and float field carries a rule in its metadata
(errors.rule), and errors.check_fields, the classes' __post_init__, is the
one code that enforces it: for a library caller as for the CLI.  A bad
value raises ConfigError at construction, naming the field, instead of
failing later inside a sweep or being truncated to another value.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fairfront.adversarial import AdversaryConfig
from fairfront.data import SplitPlan
from fairfront.errors import ConfigError
from fairfront.network import NetworkConfig, init_network
from fairfront.pareto import SweepConfig
from fairfront.propensity import PropensityConfig, PropensityModel
from fairfront.training import TrainConfig

NET = NetworkConfig(layer_sizes=[2, 1])
# The arguments each class needs besides the field under test.
REQUIRED = {
    TrainConfig: {},
    PropensityConfig: {},
    AdversaryConfig: {},
    SweepConfig: {},
    SplitPlan: {"num_splits": 1},
    NetworkConfig: {"layer_sizes": [2, 1]},
    PropensityModel: {"params": init_network(NET, 0), "config": NET},
}
# (class, field) -> a value of the field's kind outside its range
OUT_OF_RANGE = {
    (TrainConfig, "epochs"): 0,
    (TrainConfig, "batch_size"): 0,
    (TrainConfig, "learning_rate"): 0.0,
    (TrainConfig, "scheduler_factor"): 1.5,
    (TrainConfig, "scheduler_patience"): -1,
    (PropensityConfig, "hidden_layers"): 0,
    (PropensityConfig, "hidden_width"): 0,
    (PropensityConfig, "dropout_prob"): 1.0,
    (PropensityConfig, "epochs"): 0,
    (PropensityConfig, "batch_size"): 0,
    (PropensityConfig, "learning_rate"): -1e-3,
    (AdversaryConfig, "hidden_layers"): 0,
    (AdversaryConfig, "hidden_width"): 0,
    (AdversaryConfig, "pretrain_classifier_epochs"): -1,
    (AdversaryConfig, "pretrain_adversary_epochs"): -1,
    (AdversaryConfig, "rounds"): -1,
    (AdversaryConfig, "learning_rate"): 0.0,
    (SweepConfig, "num_layers"): 0,
    (SweepConfig, "hidden_width"): 0,
    (SweepConfig, "dropout_prob"): -0.1,
    (SweepConfig, "calibration_fraction"): 1.0,
    (SplitPlan, "num_splits"): 0,
    (SplitPlan, "train_fraction"): 0.0,
    (SplitPlan, "master_seed"): -1,
    (NetworkConfig, "dropout_prob"): 1.0,
    (PropensityModel, "temperature"): 0.0,
}
# Values no field of the kind accepts, besides the out-of-range one.
WRONG_KIND = {
    "int": [True, 2.5, "3", None],
    "float": [False, float("nan"), float("inf"), -np.inf, 10**400, "0.1", None],
}


def _field(cls, name):
    return next(f for f in dataclasses.fields(cls) if f.name == name)


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (cls, name, value)
        for (cls, name), bad in OUT_OF_RANGE.items()
        for value in [bad, *WRONG_KIND[_field(cls, name).type]]
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else repr(v)[:30],
)
def test_a_bad_field_value_raises_at_construction_naming_the_field(cls, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        cls(**{**REQUIRED[cls], name: value})


@pytest.mark.parametrize("cls", REQUIRED, ids=lambda cls: cls.__name__)
def test_every_int_and_float_field_declares_its_rule(cls):
    typed = [f for f in dataclasses.fields(cls) if f.type in WRONG_KIND]
    assert typed
    for f in typed:
        assert f.metadata.get("kind") is not None, f"{cls.__name__}.{f.name} declares no rule"
        assert f.metadata["kind"].__name__ == f.type, f"{cls.__name__}.{f.name} declares the wrong kind"
        assert (cls, f.name) in OUT_OF_RANGE, f"{cls.__name__}.{f.name} is not tested"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TrainConfig(epochs=2.5), "epochs must be an integer >= 1, got 2.5"),
        (lambda: SplitPlan(num_splits=1.5), "num_splits must be an integer >= 1, got 1.5"),
        (lambda: SweepConfig(hidden_width=8.5), "hidden_width must be an integer >= 1, got 8.5"),
        (lambda: TrainConfig(learning_rate=float("inf")), "learning_rate must be a finite number > 0, got inf"),
        (lambda: PropensityConfig(hidden_layers=0), "hidden_layers must be an integer >= 1, got 0"),
        (lambda: TrainConfig(scheduler_factor=0.0), "scheduler_factor must be a finite number in (0, 1], got 0.0"),
        (lambda: NetworkConfig(layer_sizes=[3, 8.5, 1]), "layer_sizes[1] must be an integer >= 1, got 8.5"),
        (lambda: NetworkConfig(layer_sizes=[3, True, 1]), "layer_sizes[1] must be an integer >= 1, got True"),
    ],
    ids=["fractional-epochs", "fractional-num_splits", "fractional-hidden_width", "infinite-learning_rate",
         "no-hidden-layer", "zero-scheduler_factor", "fractional-layer-size",
         "bool-layer-size"],
)
def test_the_message_says_what_the_field_wants(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


def test_accepted_values_are_stored_as_the_fields_kind():
    config = TrainConfig(epochs=np.int64(3), learning_rate=1, scheduler_factor=np.float32(0.5))
    assert type(config.epochs) is int and config.epochs == 3
    assert type(config.learning_rate) is float and config.learning_rate == 1.0
    assert type(config.scheduler_factor) is float and config.scheduler_factor == 0.5
    net = NetworkConfig(layer_sizes=[np.int64(3), 4, 1], dropout_prob=0)
    assert [type(m) for m in net.layer_sizes] == [int, int, int]
    assert type(net.dropout_prob) is float


def test_replace_checks_the_new_value():
    with pytest.raises(ConfigError, match=r"^dropout_prob must be a finite number in \[0, 1\), got 1.5"):
        dataclasses.replace(NET, dropout_prob=1.5)


def test_a_network_config_is_the_architecture_alone():
    assert [f.name for f in dataclasses.fields(NetworkConfig)] == ["layer_sizes", "dropout_prob"]


@pytest.mark.parametrize("sizes", [5, None, "21", {2: 1}], ids=["int", "None", "text", "dict"])
def test_layer_sizes_that_are_not_a_list_raise_config_error(sizes):
    with pytest.raises(ConfigError, match=r"^layer_sizes must list the input and output sizes at least, got "):
        NetworkConfig(layer_sizes=sizes)
