"""Eval-mode scoring of a whole row set runs in row blocks: the same numbers, a bounded trace.

propensity_logits (so predict_propensity and calibrate_temperature) and
evaluate_test_metrics run forward over network.row_blocks and keep only the
output column of each block.  The blocked numbers must equal those of one
forward over the whole matrix bitwise, and the transient memory must stay
near one block's trace whatever the row count.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fairfront import evaluation, network, propensity
from fairfront.evaluation import evaluate_test_metrics
from fairfront.network import (
    MODE_EVAL,
    SCORE_BLOCK_ROWS,
    NetworkConfig,
    clamped_sigmoid,
    forward,
    init_network,
    row_blocks,
)
from fairfront.propensity import PropensityConfig, PropensityModel, calibrate_temperature, predict_propensity


def _rows(n, p=30, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(n, p)),
        rng.integers(0, 2, size=n),
        rng.integers(0, 2, size=n).astype(np.float64),
        rng.uniform(0.1, 0.9, size=n),
    )


def _propensity_model(p=30, seed=1) -> PropensityModel:
    """An untrained propensity network of the default architecture."""
    config = PropensityConfig()
    net = NetworkConfig([p] + [config.hidden_width] * config.hidden_layers + [1], config.dropout_prob, seed)
    return PropensityModel(init_network(net), net, temperature=1.7)


def _counting_forward(monkeypatch, module) -> list[int]:
    """Replace module.forward with a spy that records the row count of each pass."""
    rows, real = [], module.forward

    def spy(params, config, inputs, *args, **kwargs):
        rows.append(len(inputs))
        return real(params, config, inputs, *args, **kwargs)

    monkeypatch.setattr(module, "forward", spy)
    return rows


def test_row_blocks_cover_the_rows_in_order():
    n = 2 * SCORE_BLOCK_ROWS + 5
    blocks = row_blocks(n)
    assert [(b.start, b.stop) for b in blocks] == [
        (0, SCORE_BLOCK_ROWS), (SCORE_BLOCK_ROWS, 2 * SCORE_BLOCK_ROWS), (2 * SCORE_BLOCK_ROWS, n)
    ]
    assert row_blocks(1) == [slice(0, 1)] and row_blocks(SCORE_BLOCK_ROWS) == [slice(0, SCORE_BLOCK_ROWS)]
    assert row_blocks(0) == []


def test_blocked_scoring_equals_one_pass_bitwise(monkeypatch):
    """A ragged last block included; each reference comes from one forward over the whole matrix."""
    n = 5 * SCORE_BLOCK_ROWS // 2
    x, a, y, e = _rows(n)
    model = _propensity_model()
    clf_net = NetworkConfig([30, 64, 1], dropout_prob=0.2, seed=3)
    clf = init_network(clf_net)
    prop_rows = _counting_forward(monkeypatch, propensity)
    eval_rows = _counting_forward(monkeypatch, evaluation)
    blocked_e = predict_propensity(model, x)
    blocked_t = calibrate_temperature(model, x, a).temperature
    blocked_metrics = evaluate_test_metrics(clf, clf_net, x, a, y, e)
    blocks = [SCORE_BLOCK_ROWS, SCORE_BLOCK_ROWS, SCORE_BLOCK_ROWS // 2]
    assert prop_rows == blocks * 2 and eval_rows == blocks

    logits = forward(model.params, model.config, x, MODE_EVAL).preactivations[-1][:, 0]
    assert np.array_equal(blocked_e, clamped_sigmoid(logits / model.temperature))
    # One block of n rows is one forward over the whole matrix.
    monkeypatch.setattr(network, "SCORE_BLOCK_ROWS", n)
    prop_rows.clear()
    eval_rows.clear()
    assert calibrate_temperature(model, x, a).temperature == blocked_t
    assert evaluate_test_metrics(clf, clf_net, x, a, y, e) == blocked_metrics
    assert prop_rows == eval_rows == [n]


@pytest.mark.parametrize(
    "score, bound_mb",
    [
        (lambda x, a, y, e: predict_propensity(_propensity_model(), x), 10.0),
        (
            lambda x, a, y, e: evaluate_test_metrics(
                init_network(NetworkConfig([30, 64, 1], seed=3)), NetworkConfig([30, 64, 1], seed=3), x, a, y, e
            ),
            8.0,
        ),
    ],
    ids=["predict_propensity", "evaluate_test_metrics"],
)
def test_scoring_memory_stays_near_one_block(score, bound_mb):
    """One pass over 20,000 rows held 31.5 MB (3x32 propensity net) and 22.4 MB (30->64->1)."""
    rows = _rows(20_000)
    tracemalloc.start()
    try:
        score(*rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < bound_mb
