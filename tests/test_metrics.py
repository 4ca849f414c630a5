"""Estimator correctness against hand anchors, brute force, and properties."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfront.errors import ConfigError, DegenerateGroupError, InputError, ShapeError
from fairfront.metrics import (
    PENALTY_ALL_LAYERS,
    PENALTY_PENULTIMATE,
    ato_estimate,
    ato_hidden_penalty,
    conditional_mv_index,
    mv_index,
    overlap_weights,
)
from fairfront.adversarial import AdversaryConfig, train_adversarial
from fairfront.evaluation import evaluate_test_metrics
from fairfront.network import MODE_EVAL, ForwardTrace, NetworkConfig, forward, init_network
from fairfront.training import TrainConfig, fit_network

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


def test_ato_estimate_is_the_coefficient_contrast_bitwise():
    rng = np.random.default_rng(17)
    for n in (2, 7, 40, 333):
        a = rng.integers(0, 2, size=n)
        a[0], a[1] = 0, 1
        w = overlap_weights(rng.uniform(0.05, 0.95, size=n), a)
        o = rng.normal(size=n)
        tau = ato_estimate(o, w)
        assert type(tau) is float and tau == w.coefficients @ o
        matrix = rng.normal(size=(n, 4))
        assert np.array_equal(ato_estimate(matrix, w), w.coefficients @ matrix)


@pytest.mark.parametrize(
    "outcome_shape", [(2,), (2, 3), (3,)], ids=["stack-length", "stack-length-matrix", "rows"]
)
def test_ato_estimate_rejects_stacked_weights(outcome_shape):
    # K = 2 batches of n = 3 rows: neither K nor n outcome rows align with (K, n) weights.
    a = np.array([[0, 1, 1], [1, 0, 0]])
    stacked = overlap_weights(np.full((2, 3), 0.4), a)
    with pytest.raises(ShapeError):
        ato_estimate(np.ones(outcome_shape), stacked)


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


def _stacked_penalty_problem(rng, k):
    """k members of one architecture, each with its own parameters and batch of one size."""
    config = _random_config(rng)
    while config.num_layers == 1:
        config = _random_config(rng)
    x, _, a, e = _random_batch(rng, config.layer_sizes[0])
    members = []
    for _ in range(k):
        trace = forward(_random_params(config, rng), config, rng.normal(size=x.shape), MODE_EVAL)
        members.append((trace, rng.permutation(a), rng.uniform(0.15, 0.85, size=e.shape)))
    return members


def _stack_traces(traces):
    preacts = [np.stack(layer) for layer in zip(*(t.preactivations for t in traces))]
    return ForwardTrace(np.stack([t.inputs for t in traces]), preacts, [], [])


@pytest.mark.parametrize("mode", [PENALTY_PENULTIMATE, PENALTY_ALL_LAYERS])
def test_stacked_penalty_equals_each_members_own_bitwise(mode):
    rng = np.random.default_rng(32)
    for _ in range(20):
        members = _stacked_penalty_problem(rng, 3)
        traces, a, e = zip(*members)
        weights = overlap_weights(np.stack(e), np.stack(a))
        penalty, taus = ato_hidden_penalty(_stack_traces(traces), weights, mode)
        assert penalty.shape == (3,)
        for k, (trace, a_k, e_k) in enumerate(members):
            alone, alone_taus = ato_hidden_penalty(trace, overlap_weights(e_k, a_k), mode)
            assert penalty[k] == alone
            for tau, tau_alone in zip(taus, alone_taus):
                assert np.array_equal(tau[k] if tau.size else tau, tau_alone)


def test_degenerate_stack_member_gets_zero_penalty():
    rng = np.random.default_rng(33)
    (trace, a, e), (degenerate_trace, _, e_d) = _stacked_penalty_problem(rng, 2)
    only_treated = np.ones_like(a)
    weights = overlap_weights(np.stack([e, e_d]), np.stack([a, only_treated]))
    assert weights.degenerate.tolist() == [False, True]
    assert not weights.coefficients[1].any()
    penalty, taus = ato_hidden_penalty(_stack_traces([trace, degenerate_trace]), weights, PENALTY_ALL_LAYERS)
    assert penalty[1] == 0.0
    assert penalty[0] == ato_hidden_penalty(trace, overlap_weights(e, a), PENALTY_ALL_LAYERS)[0]
    assert all(not tau[1].any() for tau in taus if tau.size)


def test_penalty_rejects_an_unknown_mode():
    rng = np.random.default_rng(34)
    ((trace, a, e),) = _stacked_penalty_problem(rng, 1)
    with pytest.raises(ConfigError, match="nope"):
        ato_hidden_penalty(trace, overlap_weights(e, a), "nope")


def test_group_check_rejects_bad_propensities():
    # overlap_weights checks nothing; fit_network checks its groups once (metrics._validated_groups)
    x, y, a = np.zeros((4, 2)), np.array([0.0, 1.0, 1.0, 0.0]), np.array([0, 1, 0, 1])
    net, train = NetworkConfig(layer_sizes=[2, 1]), TrainConfig(epochs=1, batch_size=4)
    cases = (([0.0, 0.5, 0.5, 0.5], InputError), ([1.0, 0.5, 0.5, 0.5], InputError), ([0.5, 0.5], ShapeError))
    for e, error in cases:
        with pytest.raises(error):
            fit_network([x], [y], [net], train, [0], lambda_=[0.5], sensitives=[a], propensities=[np.array(e)])


def test_group_check_rejects_sensitives_that_are_not_0_1():
    # A cast to int before the check would read these as groups [0, 1, 0, 0].
    net = NetworkConfig(layer_sizes=[2, 1])
    a, y = np.array([0.9, 1.0, 0.0, 0.2]), np.array([0, 1, 1, 0])
    with pytest.raises(InputError, match="0/1"):
        evaluate_test_metrics(init_network(net), net, np.zeros((4, 2)), a, y, np.full(4, 0.5))


def test_every_entry_point_rejects_a_fractional_sensitive_with_one_message():
    x, y, e = np.zeros((3, 2)), np.array([0.0, 1.0, 0.0]), np.full(3, 0.5)
    a = [0, 1, 0.5]
    net, train = NetworkConfig(layer_sizes=[2, 1]), TrainConfig(epochs=1, batch_size=3)
    calls = [
        lambda: evaluate_test_metrics(init_network(net), net, x, np.array(a), y, e),
        lambda: fit_network([x], [y], [net], train, [0], lambda_=[0.5], sensitives=[a], propensities=[e]),
        lambda: train_adversarial(x, y, a, net, train, AdversaryConfig(), 0.5, (1, 2)),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(InputError) as err:
            call()
        messages.add(str(err.value))
    assert messages == {"sensitives must contain only 0/1 values"}


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


@pytest.mark.parametrize(
    "scores, groups, strata, error, message",
    [
        ([0.1, 0.4, 0.8], [0, 1], [0, 0, 1], ShapeError, "groups has 2 entries, but the row count is 3"),
        (
            [0.1, 0.4, 0.8], [[0], [1], [0]], [0, 0, 1],
            ShapeError, r"groups must be one-dimensional, got shape \(3, 1\)",
        ),
        ([0.1, 0.4, 0.8], [0, 1, 0], [0, 0], ShapeError, "strata has 2 entries, but the row count is 3"),
        ([0.1, np.nan, 0.8], [0, 1, 0], [0, 0, 1], InputError, "scores contains non-finite entries"),
    ],
    ids=["short-groups", "2-d-groups", "short-strata", "non-finite-scores"],
)
def test_mv_indices_check_their_rows(scores, groups, strata, error, message):
    with pytest.raises(error, match=message):
        conditional_mv_index(scores, groups, strata)
    if "strata" not in message:
        with pytest.raises(error, match=message):
            mv_index(scores, groups)


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
