"""Held-out metric bundle for one trained classifier."""
from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateGroupError, InputError
from .metrics import _as_binary, _as_propensities, ato_estimate, conditional_mv_index, mv_index, overlap_weights
from .network import MODE_EVAL, NetworkConfig, NetworkParams, _validated_features, bce_loss, forward, row_blocks

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
    mv_eopp the MV index within the y = 1 stratum.  A label stratum without
    both groups contributes zero with a warning rather than failing the
    evaluation.

    The rows are checked before the network runs, by the feature, 0/1 and
    propensity checks every entry point shares; features may be any
    array-like.  A split that lacks a group or a label raises InputError.
    The network scores the rows in blocks (network.row_blocks), keeping only
    each block's output column, so scoring holds one block's trace at a
    time; the scores equal those of one pass over all rows bitwise.
    """
    x = _validated_features(features, config)
    y = _as_binary(labels, "labels", len(x)).astype(np.float64)
    a, e = _as_binary(sensitives, "sensitives", len(x)), _as_propensities(propensities, "propensities", len(x))
    for name, vec in (("sensitives", a), ("labels", y)):
        if np.unique(vec).shape[0] < 2:
            raise InputError(f"{name} must contain both levels")

    scores = np.concatenate([forward(params, config, x[rows], MODE_EVAL).output for rows in row_blocks(len(x))])
    r_test = float(bce_loss(scores, y))
    u_ato = float(abs(ato_estimate(scores, overlap_weights(e, a))))
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
