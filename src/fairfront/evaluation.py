"""Held-out metric bundle for one trained classifier."""
from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateGroupError, EvaluationError
from .metrics import ato_estimate, conditional_mv_index, mv_index, overlap_weights
from .network import MODE_EVAL, NetworkConfig, NetworkParams, bce_loss, forward

METRIC_NAMES = ("r_test", "u_ato", "mv_eo", "mv_eopp", "mv_dp")


def evaluate_test_metrics(
    params: NetworkParams,
    config: NetworkConfig,
    features: np.ndarray,
    sensitives: np.ndarray,
    labels: np.ndarray,
    propensities: np.ndarray,
) -> dict[str, float]:
    """Score the test rows and compute the five standard metrics.

    r_test is the BCE of the eval-mode scores; u_ato the absolute
    overlap-weighted contrast of the scores, the weights coming from the
    rows' calibrated propensity scores (propensity.predict_propensity, which
    a sweep calls once per split, not once per candidate); mv_dp the
    marginal MV index over groups; mv_eo the worst label-stratum MV index;
    mv_eopp the MV index within the y = 1 stratum.  A label stratum without both groups contributes zero with a
    warning rather than failing the evaluation.
    """
    a = np.asarray(sensitives)
    y = np.asarray(labels)
    if not features.shape[0] == a.shape[0] == y.shape[0] == np.shape(propensities)[0]:
        raise EvaluationError("features, sensitives, labels and propensities disagree on the row count")
    if features.shape[0] == 0:
        raise EvaluationError("empty test split")
    if np.unique(a).shape[0] < 2 or np.unique(y).shape[0] < 2:
        raise EvaluationError("test split must contain both sensitive groups and both labels")

    scores = forward(params, config, features, MODE_EVAL).output
    r_test = bce_loss(scores, y)
    u_ato = float(abs(ato_estimate(scores, overlap_weights(propensities, a))))
    mv_dp = mv_index(scores, a)

    try:
        mv_eo = conditional_mv_index(scores, a, y)
    except DegenerateGroupError:
        warnings.warn("every label stratum lacks a group; mv_eo set to 0", UserWarning, stacklevel=2)
        mv_eo = 0.0
    y1 = y == 1
    if np.unique(a[y1]).shape[0] < 2:
        warnings.warn("stratum y=1 lacks a group; mv_eopp set to 0", UserWarning, stacklevel=2)
        mv_eopp = 0.0
    else:
        mv_eopp = mv_index(scores[y1], a[y1])

    return {"r_test": r_test, "u_ato": u_ato, "mv_eo": mv_eo, "mv_eopp": mv_eopp, "mv_dp": mv_dp}
