"""Forward/backward pass, initialisation, dropout, and model IO."""
from __future__ import annotations

import math

import numpy as np
import pytest

from fairfront.errors import ConfigError, InputError, NumericError, ShapeError
from fairfront.metrics import PENALTY_ALL_LAYERS, PENALTY_PENULTIMATE, ato_hidden_penalty, overlap_weights
from fairfront.network import (
    CLAMP,
    IDENTITY_BOUNDS,
    MODE_EVAL,
    MODE_TRAIN,
    NetworkConfig,
    NetworkParams,
    StandardisationBounds,
    _matmul,
    backprop,
    backward_composite,
    bce_loss,
    forward,
    init_network,
    load_model,
    save_model,
    unclamped,
)
from fairfront.propensity import PropensityModel, predict_propensity

from conftest import draw_gradient_fixture
from oracles import composite_objective, fd_gradient, max_relative_error


def small_net(seed=0, dropout=0.0, sizes=(4, 5, 3, 1)):
    config = NetworkConfig(layer_sizes=list(sizes), dropout_prob=dropout, seed=seed)
    return config, init_network(config)


# ---------------------------------------------------------------------------
# initialisation


def test_init_glorot_bounds_and_zero_biases():
    config, params = small_net(seed=123, sizes=(7, 6, 1))
    for l, w in enumerate(params.weights):
        fan_out, fan_in = w.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
        assert np.std(w) > 0.1 * limit  # actually random, not degenerate
    for b in params.biases:
        assert np.all(b == 0.0)


def test_init_deterministic_in_seed():
    _, p1 = small_net(seed=9)
    _, p2 = small_net(seed=9)
    _, p3 = small_net(seed=10)
    for a, b in zip(p1.weights, p2.weights):
        assert np.array_equal(a, b)
    assert any(not np.array_equal(a, b) for a, b in zip(p1.weights, p3.weights))


def test_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(layer_sizes=[4])
    with pytest.raises(ConfigError):
        NetworkConfig(layer_sizes=[4, 3, 2])  # output must be one unit
    with pytest.raises(ConfigError):
        NetworkConfig(layer_sizes=[4, 1], dropout_prob=1.0)


# ---------------------------------------------------------------------------
# forward pass


def test_forward_shapes_and_clamp():
    config, params = small_net()
    x = np.random.default_rng(0).normal(size=(6, 4))
    trace = forward(params, config, x)
    assert trace.output.shape == (6,)
    assert np.all(trace.output >= CLAMP) and np.all(trace.output <= 1.0 - CLAMP)
    assert len(trace.preactivations) == config.num_layers
    assert len(trace.activations) == config.num_layers


def test_forward_eval_is_pure_and_ignores_dropout():
    config, params = small_net(dropout=0.5)
    x = np.random.default_rng(1).normal(size=(5, 4))
    t1 = forward(params, config, x, MODE_EVAL)
    t2 = forward(params, config, x, MODE_EVAL)
    assert np.array_equal(t1.output, t2.output)
    assert all(np.all(m == 1.0) for m in t1.dropout_masks)


def test_forward_train_dropout_masks_are_inverted():
    config, params = small_net(dropout=0.5)
    x = np.random.default_rng(2).normal(size=(64, 4))
    trace = forward(params, config, x, MODE_TRAIN, rng=np.random.default_rng(3))
    for m in trace.dropout_masks:
        assert set(np.unique(m)).issubset({0.0, 2.0})  # 1/keep with keep=0.5
    # frozen masks reproduce the run exactly
    again = forward(params, config, x, MODE_TRAIN, masks=trace.dropout_masks)
    assert np.array_equal(trace.output, again.output)


def test_a_pass_without_dropout_carries_no_masks():
    x = np.random.default_rng(4).normal(size=(5, 4))
    for dropout, mode in ((0.5, MODE_EVAL), (0.0, MODE_TRAIN)):
        config, params = small_net(dropout=dropout)
        assert forward(params, config, x, mode, rng=np.random.default_rng(0)).dropout_masks == []


def test_gradients_without_masks_equal_those_under_all_ones_masks():
    rng = np.random.default_rng(6)
    config, params = small_net(seed=2, dropout=0.3, sizes=(4, 6, 5, 1))
    x = rng.normal(size=(16, 4))
    y = (rng.random(16) < 0.5).astype(float)
    a = np.arange(16) % 2
    weights = overlap_weights(rng.uniform(0.2, 0.8, size=16), a)
    bare = forward(params, config, x, MODE_EVAL)
    ones = [np.ones_like(h) for h in bare.preactivations[:-1]]
    masked = forward(params, config, x, MODE_TRAIN, masks=ones)
    assert bare.dropout_masks == [] and len(masked.dropout_masks) == 2
    deltas = [rng.normal(size=h.shape) for h in bare.preactivations]
    pairs = [backprop(params, config, t, deltas) for t in (bare, masked)]
    pairs += [
        (backward_composite(t, params, config, y, weights, lam, penalty_mode=mode).gradients, None)
        for lam in (0.0, 0.4, 1.0)
        for mode in (PENALTY_PENULTIMATE, PENALTY_ALL_LAYERS)
        for t in (bare, masked)
    ]
    for (g_bare, dx_bare), (g_masked, dx_masked) in zip(pairs[::2], pairs[1::2]):
        for u, v in zip((*g_bare.weights, *g_bare.biases), (*g_masked.weights, *g_masked.biases)):
            assert np.array_equal(u, v)
        if dx_bare is not None:
            assert np.array_equal(dx_bare, dx_masked)


def test_train_forward_writes_neither_params_nor_inputs_nor_frozen_masks():
    # [1, 5, 4, 1] starts with an inner-dimension-1 product, as the adversary does
    for sizes in ((4, 5, 3, 1), (1, 5, 4, 1)):
        config, params = small_net(seed=3, dropout=0.4, sizes=sizes)
        x = np.random.default_rng(5).normal(size=(7, sizes[0]))
        before = [a.copy() for a in (x, *params.weights, *params.biases)]
        drawn = forward(params, config, x, MODE_TRAIN, rng=np.random.default_rng(6))
        masks = [m.copy() for m in drawn.dropout_masks]
        frozen = forward(params, config, x, MODE_TRAIN, masks=masks)
        for a, b in zip(before, (x, *params.weights, *params.biases)):
            assert np.array_equal(a, b)
        for m, m_drawn in zip(masks, drawn.dropout_masks):
            assert np.array_equal(m, m_drawn)
        assert np.array_equal(frozen.output, drawn.output)


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((6, 1), (1, 4)), ((3, 6, 1), (3, 1, 4)), ((3, 6, 1), (1, 4)), ((6, 1), (3, 1, 4)), ((3, 6, 2), (3, 2, 4))],
    ids=["unstacked", "stacked", "stacked-by-one", "one-by-stacked", "inner-2"],
)
def test_inner_dimension_one_product_equals_matmul(a_shape, b_shape):
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
    a.flat[0] = 0.0  # exact zeros multiply exactly
    product = _matmul(a, b)
    assert product.shape == (a @ b).shape
    assert np.array_equal(product, a @ b)


def test_returned_delta_times_first_weights_is_the_input_gradient():
    rng = np.random.default_rng(13)
    config, params = small_net(seed=4, dropout=0.3, sizes=(3, 6, 4, 1))
    x = rng.normal(size=(9, 3))
    y = (rng.random(9) < 0.5).astype(float)
    masks = forward(params, config, x, MODE_TRAIN, rng=np.random.default_rng(2)).dropout_masks

    def loss(inputs):
        return bce_loss(forward(params, config, inputs, MODE_TRAIN, masks=masks).output, y)

    trace = forward(params, config, x, MODE_TRAIN, masks=masks)
    p = trace.output
    deltas = [None] * config.num_layers
    deltas[-1] = (np.where(unclamped(p), p - y, 0.0) / y.size)[:, None]
    _, d_first = backprop(params, config, trace, deltas)
    assert d_first.shape == trace.preactivations[0].shape
    numeric = np.zeros_like(x)
    step = 1e-6
    for idx in np.ndindex(*x.shape):
        up, down = x.copy(), x.copy()
        up[idx] += step
        down[idx] -= step
        numeric[idx] = (loss(up) - loss(down)) / (2 * step)
    analytic = d_first @ params.weights[0]
    assert np.max(np.abs(analytic - numeric)) <= 1e-6 * max(1.0, np.max(np.abs(numeric)))


@pytest.mark.parametrize("stack", [None, 3])
def test_a_layer_no_delta_reaches_gets_exact_zero_gradients(stack):
    rng = np.random.default_rng(17)
    config, params = small_net(seed=6, dropout=0.3, sizes=(4, 6, 5, 1))
    x = rng.normal(size=(8, 4))
    if stack is not None:
        params = NetworkParams([np.stack([w] * stack) for w in params.weights],
                               [np.stack([b] * stack) for b in params.biases])
        x = np.stack([x + k for k in range(stack)])
    masks = [(rng.random(x.shape[:-1] + (m,)) < 0.7) / 0.7 for m in config.layer_sizes[1:-1]]
    trace = forward(params, config, x, MODE_TRAIN, masks=masks)
    own = rng.normal(size=trace.preactivations[1].shape)
    # only the penultimate layer has a delta of its own, as in a penalty-branch step
    grads, d_first = backprop(params, config, trace, [None, own, None])
    # the zero-propagating reference: an explicit zero delta at the output layer
    zero_out = np.zeros_like(trace.preactivations[2])
    reference, ref_first = backprop(params, config, trace, [None, own, zero_out])
    for g, r in zip((*grads.weights, *grads.biases), (*reference.weights, *reference.biases)):
        assert g.shape == r.shape
    assert not grads.weights[2].any() and not grads.biases[2].any()
    for l in (0, 1):
        assert np.array_equal(grads.weights[l], reference.weights[l])
        assert np.array_equal(grads.biases[l], reference.biases[l])
    assert np.array_equal(d_first, ref_first)
    # with no delta anywhere, every gradient is zero and nothing reaches layer 0
    grads, d_first = backprop(params, config, trace, [None] * 3)
    assert d_first is None
    for g, r in zip((*grads.weights, *grads.biases), (*reference.weights, *reference.biases)):
        assert g.shape == r.shape and not g.any()


def test_forward_train_requires_noise_source():
    config, params = small_net(dropout=0.2)
    x = np.zeros((2, 4))
    with pytest.raises(InputError):
        forward(params, config, x, MODE_TRAIN)


def test_feature_check_rejects_bad_inputs():
    # forward checks no rows; predict_propensity checks them once (network._validated_features)
    config, params = small_net()
    model = PropensityModel(params, config)
    cases = (
        (np.zeros(4), ShapeError),
        (np.zeros((2, 5)), ShapeError),
        (np.full((2, 4), np.nan), InputError),
        (np.zeros((0, 4)), InputError),
    )
    for rows, error in cases:
        with pytest.raises(error):
            predict_propensity(model, rows)


def test_extreme_preactivations_stay_finite():
    config = NetworkConfig(layer_sizes=[1, 1], dropout_prob=0.0, seed=0)
    params = NetworkParams([np.array([[1000.0]])], [np.array([0.0])])
    for sign in (1.0, -1.0):
        trace = forward(params, config, np.array([[sign]]))
        assert np.isfinite(trace.output).all()
        loss = bce_loss(trace.output, np.array([1.0]))
        assert np.isfinite(loss)


def test_bce_anchor():
    assert bce_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(math.log(2.0), abs=1e-15)
    p = np.array([0.2, 0.9])
    y = np.array([0.0, 1.0])
    expected = -(math.log(0.8) + math.log(0.9)) / 2.0
    assert bce_loss(p, y) == pytest.approx(expected, abs=1e-15)


# ---------------------------------------------------------------------------
# composite backward pass


def _two_group_batch(rng, dim, batch=6):
    x = rng.normal(size=(batch, dim))
    y = rng.integers(0, 2, size=batch).astype(float)
    a = np.array([0, 1] * (batch // 2))
    e = rng.uniform(0.2, 0.8, size=batch)
    return x, y, a, e


def test_branch_forcing_at_endpoints_and_none_weights():
    rng = np.random.default_rng(8)
    config, params = small_net()
    x, y, a, e = _two_group_batch(rng, 4)
    w = overlap_weights(e, a)
    trace = forward(params, config, x)
    assert backward_composite(trace, params, config, y, w, 0.0).risk_branch
    assert not backward_composite(trace, params, config, y, w, 1.0).risk_branch
    # missing weights always forces the risk branch, whatever lambda says
    assert backward_composite(trace, params, config, y, None, 0.7).risk_branch


def test_branch_tie_prefers_risk():
    rng = np.random.default_rng(12)
    config, params = small_net()
    x, y, a, e = _two_group_batch(rng, 4)
    w = overlap_weights(e, a)
    trace = forward(params, config, x)
    probe = backward_composite(trace, params, config, y, w, 0.5, IDENTITY_BOUNDS)
    # bounds chosen so both standardised values are exactly 1.0: x/x == 1.0
    bounds = StandardisationBounds(0.0, probe.risk, 0.0, probe.unfairness)
    result = backward_composite(trace, params, config, y, w, 0.5, bounds)
    assert result.risk_branch


def test_lambda_zero_identity_bounds_is_plain_bce_gradient():
    rng = np.random.default_rng(21)
    config, params = small_net(dropout=0.2)
    x, y, a, e = _two_group_batch(rng, 4)
    w = overlap_weights(e, a)
    trace = forward(params, config, x, MODE_TRAIN, rng=np.random.default_rng(5))
    via_composite = backward_composite(trace, params, config, y, w, 0.0).gradients
    # reference: raw BCE deltas pushed through the same backprop
    p = trace.output
    deltas = [None] * config.num_layers
    deltas[-1] = ((p - y) / y.size)[:, None]
    reference, _ = backprop(params, config, trace, deltas)
    for g1, g2 in zip(via_composite.weights + via_composite.biases, reference.weights + reference.biases):
        assert np.array_equal(g1, g2)  # bitwise, not approximately


def test_backward_rejects_bad_lambda_and_mode():
    rng = np.random.default_rng(4)
    config, params = small_net()
    x, y, a, e = _two_group_batch(rng, 4)
    trace = forward(params, config, x)
    w = overlap_weights(e, a)
    with pytest.raises(ConfigError):
        backward_composite(trace, params, config, y, w, 1.5)
    with pytest.raises(ConfigError):
        backward_composite(trace, params, config, y, w, 0.5, penalty_mode="nope")


@pytest.mark.parametrize("mode", [PENALTY_PENULTIMATE, PENALTY_ALL_LAYERS])
def test_composite_gradient_matches_finite_differences(mode):
    rng = np.random.default_rng(77)
    for _ in range(4):
        fx = draw_gradient_fixture(rng, penalty_mode=mode)
        for lam in (0.0, 0.3, 0.7, 1.0):
            result = backward_composite(
                fx["trace"], fx["params"], fx["config"], fx["labels"],
                fx["weights"], lam, fx["bounds"], penalty_mode=mode,
            )
            numeric = fd_gradient(
                lambda p: composite_objective(
                    p, fx["config"], fx["x"], fx["labels"], fx["sensitives"],
                    fx["propensities"], lam, fx["bounds"], fx["masks"], mode,
                ),
                fx["params"],
            )
            assert max_relative_error(result.gradients, numeric) < 1e-4


@pytest.mark.parametrize("mode", [PENALTY_PENULTIMATE, PENALTY_ALL_LAYERS])
def test_backward_objective_matches_the_oracle_and_stacks_bitwise(mode):
    rng = np.random.default_rng(78)
    lambdas = [0.0, 0.3, 0.7, 1.0]
    k = len(lambdas)

    def stack(a):  # one copy per stack member
        return np.stack([a] * k)

    for _ in range(3):
        fx = draw_gradient_fixture(rng, penalty_mode=mode)
        args = (fx["params"], fx["config"], fx["labels"], fx["weights"])
        alone = [backward_composite(fx["trace"], *args, lam, fx["bounds"], mode).objective for lam in lambdas]
        for lam, value in zip(lambdas, alone):
            expected = composite_objective(
                fx["params"], fx["config"], fx["x"], fx["labels"], fx["sensitives"],
                fx["propensities"], lam, fx["bounds"], fx["masks"], mode,
            )
            assert abs(value - expected) <= 1e-12
        # without weights (the single-group fallback) the objective is the risk term alone
        fallback = backward_composite(fx["trace"], *args[:3], None, 0.7, fx["bounds"], mode)
        assert fallback.objective == (1.0 - 0.7) * fx["bounds"].standardise_risk(fallback.risk)
        # the same batch as a stack of k members, one lambda each
        params = NetworkParams([stack(w) for w in fx["params"].weights], [stack(b) for b in fx["params"].biases])
        trace = forward(params, fx["config"], stack(fx["x"]), MODE_TRAIN, masks=[stack(m) for m in fx["masks"]])
        weights = overlap_weights(stack(fx["propensities"]), stack(fx["sensitives"]))
        stacked = backward_composite(trace, params, fx["config"], stack(fx["labels"]), weights, lambdas,
                                     fx["bounds"], mode)
        assert stacked.objective.tolist() == alone


@pytest.mark.parametrize("mode", [PENALTY_PENULTIMATE, PENALTY_ALL_LAYERS])
def test_training_penalty_is_ato_hidden_penalty_bitwise(mode):
    rng = np.random.default_rng(79)
    lambdas = [0.3, 0.7, 1.0]
    k = len(lambdas)

    def stack(a):  # one copy per stack member
        return np.stack([a] * k)

    for _ in range(10):
        fx = draw_gradient_fixture(rng, penalty_mode=mode)
        args = (fx["params"], fx["config"], fx["labels"], fx["weights"])
        penalty, _ = ato_hidden_penalty(fx["trace"], fx["weights"], mode)
        for lam in lambdas:
            assert backward_composite(fx["trace"], *args, lam, fx["bounds"], mode).unfairness == penalty
        params = NetworkParams([stack(w) for w in fx["params"].weights], [stack(b) for b in fx["params"].biases])
        trace = forward(params, fx["config"], stack(fx["x"]), MODE_TRAIN, masks=[stack(m) for m in fx["masks"]])
        weights = overlap_weights(stack(fx["propensities"]), stack(fx["sensitives"]))
        stacked = backward_composite(trace, params, fx["config"], stack(fx["labels"]), weights, lambdas,
                                     fx["bounds"], mode)
        assert np.array_equal(stacked.unfairness, ato_hidden_penalty(trace, weights, mode)[0])


def test_clamp_gate_is_closed_at_the_clamp_and_open_strictly_inside():
    p = np.array([0.0, CLAMP, np.nextafter(CLAMP, 1.0), 0.5, np.nextafter(1.0 - CLAMP, 0.0), 1.0 - CLAMP, 1.0])
    assert unclamped(p).tolist() == [False, False, True, True, True, False, False]


def test_standardisation_span_floor():
    b = StandardisationBounds(0.3, 0.3, 1.0, 1.0)
    assert b.risk_span == 1e-12
    assert b.unfairness_span == 1e-12
    # identity bounds standardise to the raw value
    assert IDENTITY_BOUNDS.standardise_risk(0.4) == 0.4


# ---------------------------------------------------------------------------
# model round trip


def test_save_load_round_trip_is_bit_exact(tmp_path):
    config, params = small_net(seed=5, dropout=0.2)
    path = tmp_path / "model.json"
    save_model(path, params, config, temperature=1.25)
    loaded_params, loaded_config, temperature = load_model(path)
    assert loaded_config.layer_sizes == config.layer_sizes
    assert loaded_config.dropout_prob == config.dropout_prob
    assert temperature == 1.25
    for a, b in zip(params.weights + params.biases, loaded_params.weights + loaded_params.biases):
        assert np.array_equal(a, b)


def test_load_model_validates_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"layer_sizes": [2, 1]}')
    with pytest.raises(ConfigError):
        load_model(path)
