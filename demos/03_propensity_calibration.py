# Temperature scaling in isolation.
#
# A model can rank groups well while its probabilities are too confident or
# too timid.  Dividing the logits by a fitted temperature T fixes the scale
# without touching the ranking.  The search always keeps T = 1 as a fallback,
# so calibration can only help the validation loss.

import numpy as np

from fairfront import (
    NetworkConfig,
    NetworkParams,
    PropensityModel,
    bce_loss,
    calibrate_temperature,
    predict_propensity,
)

rng = np.random.default_rng(5)

# a passthrough "network" whose logit equals its single input feature,
# handy for studying the calibrator with logits we fully control; a
# NetworkConfig is the architecture alone, and an untrained model needs no seed
passthrough = PropensityModel(
    params=NetworkParams([np.array([[1.0]])], [np.zeros(1)]),
    config=NetworkConfig(layer_sizes=[1, 1], dropout_prob=0.0),
)

for t_true in (0.5, 2.0, 4.0):
    z = rng.normal(0.0, 2.0, size=3000)
    y = (rng.random(3000) < 1.0 / (1.0 + np.exp(-z / t_true))).astype(float)
    cal = calibrate_temperature(passthrough, z[:, None], y)
    before = bce_loss(predict_propensity(passthrough, z[:, None]), y)
    after = bce_loss(predict_propensity(cal, z[:, None]), y)
    print(f"true T {t_true:.1f}: fitted T {cal.temperature:.3f}, "
          f"val BCE {before:.4f} -> {after:.4f}")

# doubling every logit doubles the fitted temperature and nothing else
z = rng.normal(0.0, 2.0, size=3000)
y = (rng.random(3000) < 1.0 / (1.0 + np.exp(-z / 2.0))).astype(float)
t1 = calibrate_temperature(passthrough, z[:, None], y).temperature
t2 = calibrate_temperature(passthrough, 2.0 * z[:, None], y).temperature
print()
print(f"doubled logits: T goes {t1:.4f} -> {t2:.4f} (ratio {t2 / t1:.4f})")
