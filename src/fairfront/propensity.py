"""Propensity estimation (P(a=1 | x)) with temperature-scaled calibration.

The propensity network is a fixed small MLP trained with BCE on the
sensitive attribute.  Calibration rescales its logits by a single scalar
fitted on a held-out slice; the mapping is monotone, so score rankings are
untouched.  A model is its network and its temperature, nothing more.
Downstream consumers treat the calibrated scores as frozen data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, TrainingError
from .network import MODE_EVAL, NetworkConfig, NetworkParams, _bce, clamped_sigmoid, forward
from .training import TrainConfig, _members, derive_seeds, fit_network

TEMPERATURE_BRACKET = (0.05, 20.0)
TEMPERATURE_TOL = 1e-4


@dataclass
class PropensityConfig:
    """Architecture and budget for the propensity fit."""

    hidden_layers: int = 3
    hidden_width: int = 32
    dropout_prob: float = 0.2
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.hidden_layers < 1 or self.hidden_width < 1:
            raise ConfigError("propensity network needs at least one hidden layer and unit")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ConfigError(f"propensity dropout_prob must lie in [0, 1), got {self.dropout_prob}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(
                f"propensity epochs and batch_size must be >= 1, got {self.epochs} and {self.batch_size}"
            )
        if not self.learning_rate > 0.0:
            raise ConfigError(f"propensity learning_rate must be positive, got {self.learning_rate}")


@dataclass
class PropensityModel:
    """Trained scorer plus its calibration temperature."""

    params: NetworkParams
    config: NetworkConfig
    temperature: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ConfigError(f"temperature must be positive and finite, got {self.temperature}")


def train_propensity(
    features: list[np.ndarray],
    sensitives: list[np.ndarray],
    config: PropensityConfig,
    seed: list[int],
) -> list[PropensityModel | TrainingError]:
    """Fit K propensity networks as one stack by plain BCE on the sensitive attribute.

    features, sensitives and seed are lists of K, one entry per model, all
    of one row count (training.fit_network); any other form raises
    ConfigError naming the argument.  Each model's initialisation and loop
    seeds both derive from its seed (training.derive_seeds).  Returns one
    uncalibrated model (temperature 1), or the TrainingError of a diverged
    fit, per entry.
    """
    k = len(seed) if isinstance(seed, list) else 1
    seeds = _members("seed", seed, k)
    xs, a_s = _members("features", features, k), _members("sensitives", sensitives, k)
    layer_sizes = [xs[0].shape[1]] + [config.hidden_width] * config.hidden_layers + [1]
    inits, loops = zip(*(derive_seeds(s) for s in seeds))
    net_configs = [NetworkConfig(layer_sizes=layer_sizes, dropout_prob=config.dropout_prob, seed=i) for i in inits]
    train_config = TrainConfig(
        epochs=config.epochs, batch_size=config.batch_size, learning_rate=config.learning_rate
    )
    labels = [np.asarray(a, dtype=np.float64) for a in a_s]
    fits = fit_network(xs, labels, net_configs, train_config, list(loops))
    return [
        fit if isinstance(fit, TrainingError) else PropensityModel(params=fit.params, config=net, temperature=1.0)
        for fit, net in zip(fits, net_configs)
    ]


def propensity_logits(model: PropensityModel, features: np.ndarray) -> np.ndarray:
    """Pre-sigmoid outputs of the propensity network in eval mode."""
    trace = forward(model.params, model.config, features, MODE_EVAL)
    return trace.preactivations[-1][:, 0]


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
    a = np.asarray(val_sensitives, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] != val_features.shape[0]:
        raise InputError("validation features and sensitives disagree on the row count")
    logits = propensity_logits(model, val_features)

    def nll_at(log_t: float) -> float:
        return float(_bce(clamped_sigmoid(logits / math.exp(log_t)), a))

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
