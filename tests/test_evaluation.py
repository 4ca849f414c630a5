"""Test-set metric assembly."""
from __future__ import annotations

import numpy as np
import pytest

from fairfront.errors import InputError, ShapeError
from fairfront.evaluation import METRIC_NAMES, evaluate_test_metrics
from fairfront.metrics import overlap_weights
from fairfront.network import MODE_EVAL, NetworkConfig, NetworkParams, bce_loss, forward, init_network
from fairfront.propensity import PropensityModel, predict_propensity

from oracles import bf_ato, bf_conditional_mv, bf_mv


def linear_propensity(p, seed=0) -> PropensityModel:
    rng = np.random.default_rng(seed)
    config = NetworkConfig(layer_sizes=[p, 1], dropout_prob=0.0, seed=0)
    params = NetworkParams([rng.normal(0.0, 0.4, size=(1, p))], [np.zeros(1)])
    return PropensityModel(params=params, config=config)


def build_case(seed=0, n=80, p=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    a = rng.integers(0, 2, size=n)
    y = rng.integers(0, 2, size=n)
    a[:2], y[:2] = [0, 1], [0, 1]  # both levels guaranteed
    config = NetworkConfig(layer_sizes=[p, 5, 1], dropout_prob=0.2, seed=seed)
    params = init_network(config)
    return params, config, x, a.astype(np.int64), y.astype(np.float64)


def test_metric_dict_matches_independent_recomputation():
    params, config, x, a, y = build_case(3)
    prop = linear_propensity(4, seed=1)
    e = predict_propensity(prop, x)
    out = evaluate_test_metrics(params, config, x, a, y, e)
    assert tuple(out) == METRIC_NAMES
    scores = forward(params, config, x, MODE_EVAL).output
    assert out["r_test"] == pytest.approx(bce_loss(scores, y), abs=1e-15)
    assert out["u_ato"] == pytest.approx(abs(bf_ato(scores, a, e)), abs=1e-10)
    assert out["mv_dp"] == pytest.approx(bf_mv(scores, a), abs=1e-12)
    assert out["mv_eo"] == pytest.approx(bf_conditional_mv(scores, a, y), abs=1e-12)
    y1 = y == 1.0
    assert out["mv_eopp"] == pytest.approx(bf_mv(scores[y1], a[y1]), abs=1e-12)
    # scores are eval-mode: dropout must not perturb evaluation
    again = evaluate_test_metrics(params, config, x, a, y, e)
    assert out == again


def test_u_ato_is_the_coefficient_contrast_of_the_scores_bitwise():
    for seed in range(4):
        params, config, x, a, y = build_case(seed)
        e = predict_propensity(linear_propensity(4, seed=seed), x)
        scores = forward(params, config, x, MODE_EVAL).output
        out = evaluate_test_metrics(params, config, x, a, y, e)
        assert out["u_ato"] == abs(overlap_weights(e, a).coefficients @ scores)


def test_single_group_positive_stratum_warns_and_zeroes_eopp():
    params, config, x, a, y = build_case(5, n=30)
    a = np.where(y == 1.0, 0, a)  # no group-1 rows among the positives
    if len(np.unique(a)) < 2:
        a[np.argmin(y)] = 1
    e = predict_propensity(linear_propensity(4), x)
    with pytest.warns(UserWarning, match=r"strata \[1\.0\] lack two group levels"):
        with pytest.warns(UserWarning, match="mv_eopp"):
            out = evaluate_test_metrics(params, config, x, a, y, e)
    assert out["mv_eopp"] == 0.0
    assert out["mv_dp"] > 0.0


def test_validation_failures():
    params, config, x, a, y = build_case(7, n=20)
    e = predict_propensity(linear_propensity(4), x)
    with pytest.raises(InputError, match="features have no rows"):
        evaluate_test_metrics(params, config, x[:0], a[:0], y[:0], e[:0])
    with pytest.raises(ShapeError, match="sensitives has 19 entries, but the row count is 20"):
        evaluate_test_metrics(params, config, x, a[:-1], y, e)
    with pytest.raises(ShapeError, match="propensities has 19 entries, but the row count is 20"):
        evaluate_test_metrics(params, config, x, a, y, e[:-1])
    with pytest.raises(InputError, match="sensitives must contain both levels"):
        evaluate_test_metrics(params, config, x, np.zeros_like(a), y, e)
