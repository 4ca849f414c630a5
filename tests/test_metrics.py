"""Estimator correctness against hand anchors, brute force, and properties."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfront.errors import DegenerateGroupError, InputError, ShapeError
from fairfront.metrics import (
    PENALTY_ALL_LAYERS,
    PENALTY_PENULTIMATE,
    ato_estimate,
    ato_hidden_penalty,
    conditional_mv_index,
    mv_index,
    overlap_weights,
)
from fairfront.network import MODE_EVAL, forward

from conftest import _random_batch, _random_config, _random_params
from oracles import bf_ato, bf_ato_penalty, bf_conditional_mv, bf_mv


# ---------------------------------------------------------------------------
# hand-derived anchors


def test_mv_two_point_anchor():
    # Two scores, one per group.  Pooled F takes values 1/2 and 1; each
    # group's F is a single step.  Working the sum through by hand gives 1/8.
    result = mv_index(np.array([0.1, 0.9]), np.array([0, 1]))
    assert result == pytest.approx(0.125, abs=1e-12)


def test_ato_two_point_anchor():
    # w = (1-0.9, 0.3) = (0.1, 0.3); tau = 0.8 - 0.2 ... weighted means of
    # singleton groups are just the outcomes, so tau = 0.8 - 0.2 = 0.6.
    weights = overlap_weights(np.array([0.9, 0.3]), np.array([1, 0]))
    result = ato_estimate(np.array([0.8, 0.2]), weights)
    assert result == pytest.approx(0.6, abs=1e-10)
    assert weights.weights == pytest.approx([0.1, 0.3])


# ---------------------------------------------------------------------------
# brute-force agreement


def test_ato_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 120))
        a = rng.integers(0, 2, size=n)
        if a.min() == a.max():
            continue
        e = rng.uniform(0.02, 0.98, size=n)
        o = rng.normal(size=n)
        w = overlap_weights(e, a)
        assert ato_estimate(o, w) == pytest.approx(bf_ato(o, a, e), abs=1e-10)


def test_ato_vector_outcomes_are_columnwise():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 2, size=40)
    a[0], a[1] = 0, 1
    e = rng.uniform(0.1, 0.9, size=40)
    o = rng.normal(size=(40, 5))
    w = overlap_weights(e, a)
    taus = ato_estimate(o, w)
    assert taus.shape == (5,)
    for j in range(5):
        assert taus[j] == pytest.approx(bf_ato(o[:, j], a, e), abs=1e-10)


def test_mv_matches_brute_force_with_ties():
    rng = np.random.default_rng(55)
    for _ in range(60):
        n = int(rng.integers(3, 80))
        # draw from a coarse lattice so ties are common
        scores = rng.integers(0, 6, size=n) / 5.0
        levels = int(rng.integers(2, 4))
        groups = rng.integers(0, levels, size=n)
        if len(np.unique(groups)) < 2:
            continue
        assert mv_index(scores, groups) == pytest.approx(bf_mv(scores, groups), abs=1e-12)


def test_conditional_mv_matches_brute_force():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(6, 80))
        scores = rng.uniform(size=n)
        groups = rng.integers(0, 2, size=n)
        strata = rng.integers(0, 3, size=n)
        expected = bf_conditional_mv(scores, groups, strata)
        if expected is None:
            with pytest.raises(DegenerateGroupError):
                conditional_mv_index(scores, groups, strata)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # partial degeneracy may warn
            result = conditional_mv_index(scores, groups, strata)
        assert result == pytest.approx(expected, abs=1e-12)
        checked += 1
    assert checked > 30


def test_penalty_matches_brute_force_both_modes():
    rng = np.random.default_rng(31)
    for mode in (PENALTY_PENULTIMATE, PENALTY_ALL_LAYERS):
        for _ in range(30):
            config = _random_config(rng)
            params = _random_params(config, rng)
            x, _, a, e = _random_batch(rng, config.layer_sizes[0])
            trace = forward(params, config, x, MODE_EVAL)
            w = overlap_weights(e, a)
            penalty, taus = ato_hidden_penalty(trace, w, mode)
            assert penalty == pytest.approx(bf_ato_penalty(trace, a, e, mode), abs=1e-10)
            # the reported taus must reproduce the penalty
            assert penalty == pytest.approx(sum(np.abs(t).sum() for t in taus), abs=1e-12)


# ---------------------------------------------------------------------------
# degenerate and error cases


def test_single_affine_layer_has_zero_penalty():
    rng = np.random.default_rng(3)
    config = _random_config(rng)
    while config.num_layers != 1:
        config = _random_config(rng)
    params = _random_params(config, rng)
    x, _, a, e = _random_batch(rng, config.layer_sizes[0])
    trace = forward(params, config, x, MODE_EVAL)
    penalty, taus = ato_hidden_penalty(trace, overlap_weights(e, a), PENALTY_PENULTIMATE)
    assert penalty == 0.0
    assert all(t.size == 0 for t in taus)


def test_overlap_weights_rejects_bad_propensities():
    a = np.array([0, 1, 0, 1])
    with pytest.raises(InputError):
        overlap_weights(np.array([0.0, 0.5, 0.5, 0.5]), a)
    with pytest.raises(InputError):
        overlap_weights(np.array([1.0, 0.5, 0.5, 0.5]), a)
    with pytest.raises(ShapeError):
        overlap_weights(np.array([0.5, 0.5]), a)


def test_overlap_weights_requires_both_groups():
    with pytest.raises(DegenerateGroupError):
        overlap_weights(np.array([0.4, 0.6]), np.array([1, 1]))


def test_conditional_mv_warns_and_skips_degenerate_stratum():
    scores = np.array([0.1, 0.4, 0.8, 0.9, 0.2, 0.3])
    groups = np.array([0, 1, 0, 1, 0, 0])
    strata = np.array([0, 0, 0, 0, 1, 1])  # stratum 1 is all group 0
    with pytest.warns(UserWarning, match="lack two group levels"):
        result = conditional_mv_index(scores, groups, strata)
    mask = strata == 0
    assert result == pytest.approx(bf_mv(scores[mask], groups[mask]), abs=1e-12)


def test_conditional_mv_all_degenerate_raises():
    scores = np.array([0.1, 0.4, 0.8])
    groups = np.array([0, 0, 0])
    strata = np.array([0, 0, 1])
    with pytest.warns(UserWarning):
        with pytest.raises(DegenerateGroupError):
            conditional_mv_index(scores, groups, strata)


# ---------------------------------------------------------------------------
# structural properties


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mv_invariant_under_monotone_transform(data):
    n = data.draw(st.integers(4, 40))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 8, size=n) / 7.0
    groups = rng.integers(0, 2, size=n)
    base = mv_index(scores, groups)
    # a strictly increasing map preserves every ECDF comparison exactly
    transformed = mv_index(np.exp(3.0 * scores), groups)
    assert transformed == base


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ato_affine_equivariance_and_group_flip(data):
    n = data.draw(st.integers(2, 50))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n)
    a[: 1] = 0
    a[-1:] = 1
    e = rng.uniform(0.05, 0.95, size=n)
    o = rng.normal(size=n)
    alpha = data.draw(st.floats(-3, 3, allow_nan=False))
    beta = data.draw(st.floats(-3, 3, allow_nan=False))
    w = overlap_weights(e, a)
    tau = ato_estimate(o, w)
    scaled = ato_estimate(alpha * o + beta, w)
    assert scaled == pytest.approx(alpha * tau, abs=1e-8)
    # relabelling the groups (and propensities accordingly) flips the sign
    w_flip = overlap_weights(1.0 - e, 1 - a)
    assert ato_estimate(o, w_flip) == pytest.approx(-tau, abs=1e-10)


def test_mv_nonnegative_and_zero_for_identical_groups():
    rng = np.random.default_rng(11)
    scores = np.tile(rng.uniform(size=10), 2)
    groups = np.repeat([0, 1], 10)
    # both groups hold identical samples, so every group ECDF equals the pooled one
    assert mv_index(scores, groups) == pytest.approx(0.0, abs=1e-15)
