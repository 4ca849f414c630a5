"""Propensity estimation (P(a=1 | x)) with temperature-scaled calibration.

The propensity network is a fixed small MLP trained with BCE on the
sensitive attribute.  Calibration rescales its logits by a single scalar
fitted on a held-out slice; the mapping is monotone, so score rankings are
untouched.  A model is its network and its temperature, nothing more.
Downstream consumers treat the calibrated scores as frozen data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DROPOUT, POSITIVE, TrainingError, at_least, check_fields
from .metrics import _as_binary
from .network import (
    MODE_EVAL,
    NetworkConfig,
    NetworkParams,
    _validated_features,
    bce_loss,
    clamped_sigmoid,
    forward,
    row_blocks,
)
from .training import TrainConfig, _members, derive_seeds, fit_network

TEMPERATURE_BRACKET = (0.05, 20.0)
TEMPERATURE_TOL = 1e-4


@dataclass
class PropensityConfig:
    """Architecture and budget for the propensity fit."""

    hidden_layers: int = field(default=3, metadata=at_least(1))
    hidden_width: int = field(default=32, metadata=at_least(1))
    dropout_prob: float = field(default=0.2, metadata=DROPOUT)
    epochs: int = field(default=100, metadata=at_least(1))
    batch_size: int = field(default=128, metadata=at_least(1))
    learning_rate: float = field(default=1e-3, metadata=POSITIVE)

    __post_init__ = check_fields


@dataclass
class PropensityModel:
    """Trained scorer plus its calibration temperature."""

    params: NetworkParams
    config: NetworkConfig
    temperature: float = field(default=1.0, metadata=POSITIVE)

    __post_init__ = check_fields


def train_propensity(
    features: list[np.ndarray],
    sensitives: list[np.ndarray],
    config: PropensityConfig,
    seed: list[int],
) -> list[PropensityModel | TrainingError]:
    """Fit K propensity networks as one stack by plain BCE on the sensitive attribute.

    features, sensitives and seed are lists of K, one entry per model, all
    of one row count (training.fit_network); any other form raises
    ConfigError naming the argument.  Each sensitives vector must hold one
    0/1 value per row of its features (metrics._as_binary).  Each model's
    initialisation and loop seeds both derive from its seed
    (training.derive_seeds).  Returns one uncalibrated model (temperature
    1), or the TrainingError of a diverged fit, per entry.
    """
    k = len(seed) if isinstance(seed, list) else 1
    seeds = _members("seed", seed, k)
    # The network's width is read off the features, so they are checked, at any width, before the sensitives.
    xs = [_validated_features(x) for x in _members("features", features, k)]
    a_s = _members("sensitives", sensitives, k)
    labels = [_as_binary(a, "sensitives", len(x)).astype(np.float64) for x, a in zip(xs, a_s)]
    layer_sizes = [xs[0].shape[1]] + [config.hidden_width] * config.hidden_layers + [1]
    inits, loops = zip(*(derive_seeds(s) for s in seeds))
    net_configs = [NetworkConfig(layer_sizes=layer_sizes, dropout_prob=config.dropout_prob, seed=i) for i in inits]
    train_config = TrainConfig(
        epochs=config.epochs, batch_size=config.batch_size, learning_rate=config.learning_rate
    )
    fits = fit_network(xs, labels, net_configs, train_config, list(loops))
    return [
        fit if isinstance(fit, TrainingError) else PropensityModel(params=fit.params, config=net, temperature=1.0)
        for fit, net in zip(fits, net_configs)
    ]


def propensity_logits(model: PropensityModel, features: np.ndarray) -> np.ndarray:
    """Pre-sigmoid outputs of the propensity network in eval mode, after the one feature check.

    The rows run through the network in blocks (network.row_blocks), and
    only each block's output preactivation is kept, so the pass holds one
    block's trace at a time whatever the row count.  The logits equal those
    of one pass over all rows bitwise.
    """
    params, net = model.params, model.config
    x = _validated_features(features, net)
    return np.concatenate(
        [forward(params, net, x[rows], MODE_EVAL).preactivations[-1][:, 0] for rows in row_blocks(len(x))]
    )


def predict_propensity(model: PropensityModel, features: np.ndarray) -> np.ndarray:
    """Calibrated scores sigmoid(logit / T), clamped inside (0, 1)."""
    logits = propensity_logits(model, features)
    return clamped_sigmoid(logits / model.temperature)


def calibrate_temperature(
    model: PropensityModel, val_features: np.ndarray, val_sensitives: np.ndarray
) -> PropensityModel:
    """Fit the temperature on a validation slice and return a new model.

    Minimises the validation BCE of sigmoid(logit / T) over log T in
    [log 0.05, log 20] by golden-section search (bracket tolerance 1e-4).
    T = 1 is always a feasible fallback, so the calibrated validation BCE can
    never exceed the uncalibrated one.
    """
    x = _validated_features(val_features, model.config)
    a = _as_binary(val_sensitives, "sensitives", len(x))
    logits = propensity_logits(model, x)

    def nll_at(log_t: float) -> float:
        return float(bce_loss(clamped_sigmoid(logits / math.exp(log_t)), a))

    lo, hi = (math.log(b) for b in TEMPERATURE_BRACKET)
    best_log_t = _golden_section(nll_at, lo, hi, TEMPERATURE_TOL)
    temperature = math.exp(best_log_t)
    if nll_at(best_log_t) > nll_at(0.0):
        temperature = 1.0
    return PropensityModel(params=model.params, config=model.config, temperature=temperature)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Minimum of a unimodal f on [lo, hi] to bracket width tol."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
    return (lo + hi) / 2.0
