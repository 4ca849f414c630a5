"""Forward/backward pass, initialisation, dropout, and model IO."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfront.errors import ConfigError, InputError, NumericError, ShapeError
from fairfront.metrics import ato_hidden_penalty, overlap_weights
from fairfront.network import (
    CLAMP,
    IDENTITY_BOUNDS,
    MODE_EVAL,
    MODE_TRAIN,
    NetworkConfig,
    NetworkParams,
    StandardisationBounds,
    _matmul,
    _row_sum,
    backprop,
    backward_composite,
    bce_loss,
    chebyshev_weights,
    forward,
    init_network,
    input_delta,
    load_model,
    save_model,
    unclamped,
)
from fairfront.propensity import PropensityModel, predict_propensity

from conftest import draw_gradient_fixture
from oracles import bf_backprop, bf_dropout_masks, composite_objective, fd_gradient, max_relative_error, replay


# every depth the gradient checks draw: the penalty-free single affine map, a
# penalty on the one hidden layer, and a penalty delta sent on through a lower one
DEPTHS = pytest.mark.parametrize("affine_maps", [1, 2, 3], ids=["no_hidden", "one_hidden", "two_hidden"])


def small_net(seed=0, dropout=0.0, sizes=(4, 5, 3, 1)):
    config = NetworkConfig(layer_sizes=list(sizes), dropout_prob=dropout)
    return config, init_network(config, seed)


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
    assert t1.keep == 1.0
    for h, v in zip(t1.preactivations, t1.activations[:-1]):
        assert np.array_equal(v, np.maximum(h, 0.0))


def test_forward_train_dropout_is_inverted():
    config, params = small_net(dropout=0.5)
    x = np.random.default_rng(2).normal(size=(64, 4))
    trace = forward(params, config, x, MODE_TRAIN, rng=np.random.default_rng(3))
    assert trace.keep == 0.5
    for h, v in zip(trace.preactivations, trace.activations[:-1]):
        relu = np.maximum(h, 0.0)
        assert np.all((v == 0.0) | (v == 2.0 * relu))  # 1/keep with keep=0.5
        assert np.any((v == 0.0) & (relu > 0.0)) and np.any(v > 0.0)  # some units dropped, some kept


def test_a_pass_without_dropout_records_none():
    x = np.random.default_rng(4).normal(size=(5, 4))
    for dropout, mode in ((0.5, MODE_EVAL), (0.0, MODE_TRAIN)):
        config, params = small_net(dropout=dropout)
        assert forward(params, config, x, mode, rng=np.random.default_rng(0)).keep == 1.0


@pytest.mark.parametrize("stack", [None, 3])
def test_a_generator_in_the_same_state_replays_a_train_pass_bitwise(stack):
    config, params = small_net(seed=7, dropout=0.3, sizes=(4, 6, 5, 1))
    x = np.random.default_rng(8).normal(size=(20, 4))
    if stack is not None:
        params = NetworkParams([np.stack([w * (1 + k / 10) for k in range(stack)]) for w in params.weights],
                               [np.stack([b + k / 10 for k in range(stack)]) for b in params.biases])
        x = np.stack([x - k for k in range(stack)])
    generators = [np.random.default_rng(30 + k) for k in range(stack or 1)]
    states = [g.bit_generator.state for g in generators]
    first = forward(params, config, x, MODE_TRAIN, rng=generators if stack else generators[0])
    replays = [replay(state) for state in states]
    again = forward(params, config, x, MODE_TRAIN, rng=replays if stack else replays[0])
    assert again.keep == first.keep
    for a, b in zip((*first.preactivations, *first.activations), (*again.preactivations, *again.activations)):
        assert np.array_equal(a, b)
    assert [g.bit_generator.state for g in generators] == [g.bit_generator.state for g in replays]
    # the members drew different noise, so a replay is no accident of equal masks
    dropped = [(v == 0.0) & (h > 0.0) for h, v in zip(first.preactivations, first.activations[:-1])]
    assert all(d.any() for d in dropped)
    if stack is not None:
        assert not np.array_equal(dropped[0][0], dropped[0][1])


def test_train_forward_writes_neither_params_nor_inputs():
    # [1, 5, 4, 1] starts with an inner-dimension-1 product, as the adversary does
    for sizes in ((4, 5, 3, 1), (1, 5, 4, 1)):
        config, params = small_net(seed=3, dropout=0.4, sizes=sizes)
        x = np.random.default_rng(5).normal(size=(7, sizes[0]))
        before = [a.copy() for a in (x, *params.weights, *params.biases)]
        forward(params, config, x, MODE_TRAIN, rng=np.random.default_rng(6))
        for a, b in zip(before, (x, *params.weights, *params.biases)):
            assert np.array_equal(a, b)


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


def test_outer_product_equals_broadcasting_but_for_the_sign_of_a_zero():
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(7, 250, 1)), rng.normal(size=(7, 1, 32))
    a[0, :3, 0] = [0.0, -0.0, 0.0]
    b[0, 0, :2] = [-1.0, 0.0]
    product, broadcast = _matmul(a, b), a * b
    assert product.shape == broadcast.shape
    assert np.array_equal(product, broadcast)
    signs_differ = np.signbit(product) != np.signbit(broadcast)
    assert np.all(product[signs_differ] == 0.0)


# The arrays whose rows backprop sums into bias gradients: the three benchmark
# workloads' and the acceptance gate's (criteria 6 and 7) stacks and widths,
# (stack, rows, width) or (rows, width), and a short last batch.
ROW_SUM_SHAPES = [
    (21, 250, 8), (21, 250, 1),    # sweep_small_batch / criterion 6 classifier stack
    (3, 250, 32), (3, 250, 1),     # their propensity stack
    (2000, 64), (2000, 32), (2000, 1),  # sweep_large_batch_jobs2: one network per stack
    (7, 250, 32), (7, 250, 8), (7, 250, 1),  # adversarial_1split / criterion 7 stacks
    (7, 140, 32), (250, 8), (250, 2),
]


def _row_sum_layouts(d):
    """d itself and arrays of d's shape and values stored otherwise."""
    wide = np.zeros(d.shape[:-1] + (d.shape[-1] + 3,))
    wide[..., : d.shape[-1]] = d
    spaced = np.zeros(d.shape[:-2] + (2 * d.shape[-2], d.shape[-1]))
    spaced[..., ::2, :] = d
    return {
        "contiguous": d,
        "rows_strided": spaced[..., ::2, :],
        "columns_of_a_wider_array": wide[..., : d.shape[-1]],
        "rows_stored_reversed": np.ascontiguousarray(d[..., ::-1, :])[..., ::-1, :],
        "row_axis_contiguous": np.ascontiguousarray(d.swapaxes(-1, -2)).swapaxes(-1, -2),
    }


@pytest.mark.parametrize("shape", ROW_SUM_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_row_sum_is_sum_over_rows_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(5):
        # mixed magnitudes, so that any change of summation order shows in the last bits
        d = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 4, size=shape)
        for layout, v in _row_sum_layouts(d).items():
            assert np.array_equal(v, d)
            total = _row_sum(v)
            assert total.shape == v.sum(axis=-2).shape
            assert np.array_equal(total, v.sum(axis=-2)), layout


@pytest.mark.parametrize("stack", [None, 7])
@pytest.mark.parametrize(
    "sizes, rows",
    [((10, 8, 1), 250), ((10, 32, 32, 32, 1), 250), ((30, 64, 1), 2000), ((1, 32, 32, 32, 32, 1), 250)],
    ids=["classifier", "propensity", "wide", "adversary"],
)
def test_forward_equals_products_with_the_transposed_weight_views_bitwise(sizes, rows, stack):
    rng = np.random.default_rng(rows + len(sizes))
    config = NetworkConfig(layer_sizes=list(sizes), dropout_prob=0.0)
    members = [init_network(config, seed) for seed in range(stack or 1)]
    params = NetworkParams([np.stack(w) for w in zip(*(m.weights for m in members))],
                           [np.stack(b) for b in zip(*(m.biases for m in members))])
    params.biases = [b + rng.normal(scale=0.1, size=b.shape) for b in params.biases]
    x = rng.normal(size=(stack or 1, rows, sizes[0]))
    if stack is None:
        params, x = params.member(0), x[0]
    trace = forward(params, config, x, MODE_EVAL)
    v = x
    for l, h in enumerate(trace.preactivations):
        want = v @ params.weights[l].swapaxes(-1, -2) + params.biases[l][..., None, :]
        assert np.array_equal(h, want)
        v = np.maximum(want, 0.0)


def _member(a, k):
    """Stack member k of an array (or of each entry of a list), or the lone network's a for k None."""
    if isinstance(a, list):
        return [_member(b, k) for b in a]
    return a if k is None or a is None else a[k]


@pytest.mark.parametrize("stack", [None, 3], ids=["lone", "stacked"])
@pytest.mark.parametrize("dropout", [0.0, 0.2, 0.5])
def test_backprop_is_the_frozen_mask_reference_bitwise(dropout, stack):
    # The library gates on the post-dropout activation and scales by 1/keep;
    # the reference multiplies by the redrawn mask, then by [h > 0].
    rng = np.random.default_rng(int(dropout * 10) + (stack or 0))
    config = NetworkConfig(layer_sizes=[4, 6, 5, 1], dropout_prob=dropout)
    members = [init_network(config, seed) for seed in range(stack or 1)]
    params = NetworkParams([np.stack(w) for w in zip(*(m.weights for m in members))],
                           [np.stack(b) for b in zip(*(m.biases for m in members))])
    x = rng.normal(size=(stack or 1, 30, 4))
    x[:, :3] = 0.0  # with zero biases these rows' preactivations are exact zeros in every layer
    generators = [np.random.default_rng(40 + k) for k in range(stack or 1)]
    noise = [g.bit_generator.state for g in generators]
    if stack is None:
        params, x, generators = params.member(0), x[0], generators[0]
    trace = forward(params, config, x, MODE_TRAIN, rng=generators)
    out = rng.normal(size=trace.preactivations[-1].shape)
    own = rng.normal(size=trace.preactivations[1].shape)
    grads = backprop(params, config, trace, [None, own, out])
    d_first = input_delta(params, trace, out)
    for i in range(stack or 1):
        k = None if stack is None else i
        member = params if k is None else params.member(k)
        inputs, preacts = _member(trace.inputs, k), _member(trace.preactivations, k)
        masks = bf_dropout_masks(config, inputs.shape[0], noise[i])
        assert all((h == 0.0).any() for h in preacts)
        if masks is not None:
            assert all(((m == 0.0) & (h > 0.0)).any() for m, h in zip(masks, preacts))  # dropped live units
        want, _ = bf_backprop(member, inputs, preacts, masks, _member([None, own, out], k))
        got = grads if k is None else grads.member(k)
        for g, w in zip((*got.weights, *got.biases), (*want.weights, *want.biases)):
            assert np.array_equal(g, w)
        _, want_first = bf_backprop(member, inputs, preacts, masks, _member([None, None, out], k))
        assert np.array_equal(_member(d_first, k), want_first)


@pytest.mark.parametrize("stack", [None, 7])
def test_input_delta_is_the_reference_delta_bitwise(stack):
    rng = np.random.default_rng(19)
    for sizes, dropout in (((1, 32, 32, 32, 32, 1), 0.0), ((4, 6, 5, 1), 0.3), ((3, 1), 0.0)):
        config = NetworkConfig(layer_sizes=list(sizes), dropout_prob=dropout)
        params = init_network(config, 5)
        x = rng.normal(size=(250, sizes[0]))
        if stack is not None:
            params = NetworkParams([np.stack([w * (1 + k / 10) for k in range(stack)]) for w in params.weights],
                                   [np.stack([b + k for k in range(stack)]) for b in params.biases])
            x = rng.normal(size=(stack, 250, sizes[0]))
        generators = [np.random.default_rng(k) for k in range(stack or 1)]
        noise = [g.bit_generator.state for g in generators]
        trace = forward(params, config, x, MODE_TRAIN, rng=generators)
        out = rng.normal(size=trace.preactivations[-1].shape)
        got = input_delta(params, trace, out)
        for i in range(stack or 1):
            k = None if stack is None else i
            member = params if k is None else params.member(k)
            inputs, preacts = _member(trace.inputs, k), _member(trace.preactivations, k)
            masks = bf_dropout_masks(config, inputs.shape[0], noise[i])
            deltas = [None] * (config.num_layers - 1) + [_member(out, k)]
            _, want = bf_backprop(member, inputs, preacts, masks, deltas)
            assert np.array_equal(_member(got, k), want)


def test_input_delta_times_first_weights_is_the_input_gradient():
    rng = np.random.default_rng(13)
    config, params = small_net(seed=4, dropout=0.3, sizes=(3, 6, 4, 1))
    x = rng.normal(size=(9, 3))
    y = (rng.random(9) < 0.5).astype(float)
    noise = np.random.default_rng(2).bit_generator.state

    def loss(inputs):
        return bce_loss(forward(params, config, inputs, MODE_TRAIN, rng=replay(noise)).output, y)

    trace = forward(params, config, x, MODE_TRAIN, rng=replay(noise))
    p = trace.output
    d_first = input_delta(params, trace, (np.where(unclamped(p), p - y, 0.0) / y.size)[:, None])
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
    trace = forward(params, config, x, MODE_TRAIN, rng=[np.random.default_rng(k) for k in range(stack or 1)])
    own = rng.normal(size=trace.preactivations[1].shape)
    # only the penultimate layer has a delta of its own, as in a penalty-branch step
    grads = backprop(params, config, trace, [None, own, None])
    # the zero-propagating reference: an explicit zero delta at the output layer
    zero_out = np.zeros_like(trace.preactivations[2])
    reference = backprop(params, config, trace, [None, own, zero_out])
    for g, r in zip((*grads.weights, *grads.biases), (*reference.weights, *reference.biases)):
        assert g.shape == r.shape
    assert not grads.weights[2].any() and not grads.biases[2].any()
    for l in (0, 1):
        assert np.array_equal(grads.weights[l], reference.weights[l])
        assert np.array_equal(grads.biases[l], reference.biases[l])
    # with no delta anywhere, every gradient is zero
    grads = backprop(params, config, trace, [None] * 3)
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
    config = NetworkConfig(layer_sizes=[1, 1], dropout_prob=0.0)
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


LAMBDAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
SCALED = st.floats(-2.0, 3.0)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chebyshev_weights_follow_the_rule_and_a_stack_equals_its_members_bitwise(data):
    k = data.draw(st.integers(1, 6))
    members = st.lists(st.tuples(LAMBDAS, SCALED, st.one_of(SCALED, st.just(np.nan)), st.booleans()),
                       min_size=k, max_size=k)
    lam, r, u, penalised = (np.array(c) for c in zip(*data.draw(members)))
    risk_weight, penalty_weight, value = chebyshev_weights(lam, r, u, penalised)
    for i in range(k):
        l, r_scaled, u_scaled = lam[i], (1.0 - lam[i]) * r[i], lam[i] * u[i]
        if not penalised[i]:
            risk = True
        elif l == 1.0 or np.isnan(u[i]):
            risk = False
        else:
            risk = r_scaled >= u_scaled  # ties go to the risk branch
        assert (risk_weight[i], penalty_weight[i]) == ((1.0 - l, 0.0) if risk else (0.0, l))
        if not penalised[i] or np.isnan(u[i]):
            assert value[i] == r_scaled
        else:
            assert value[i] == (u[i] if l == 1.0 else max(r_scaled, u_scaled))
        if l > 0.0 or not penalised[i]:  # as backward_composite calls it: only lambda > 0 is penalised
            assert (penalty_weight[i] == 0.0) == risk
        alone = chebyshev_weights(*(np.asarray(a[i]) for a in (lam, r, u, penalised)))
        assert [_bits(x) for x in alone] == [_bits(x[i]) for x in (risk_weight, penalty_weight, value)]


def test_lambda_one_below_the_unfairness_bounds_descends_the_penalty(rng):
    # The batch penalty lies under unfairness_min, so U~ < 0: the objective is
    # U~ itself, not max(0 * R~, U~) = 0, and its gradient is the penalty's.
    fx = draw_gradient_fixture(rng, affine_maps=2)
    penalty, _ = ato_hidden_penalty(fx["trace"], fx["weights"])
    bounds = StandardisationBounds(fx["bounds"].risk_min, fx["bounds"].risk_max, penalty + 0.5, penalty + 1.5)
    result = backward_composite(fx["trace"], fx["params"], fx["config"], fx["labels"], fx["weights"], 1.0, bounds)
    assert not result.risk_branch
    assert result.objective == bounds.standardise_unfairness(penalty) < 0.0
    assert any(np.any(g != 0.0) for g in result.gradients.weights)
    numeric = fd_gradient(
        lambda p: composite_objective(
            p, fx["config"], fx["x"], fx["labels"], fx["sensitives"], fx["propensities"], 1.0, bounds, fx["noise"]
        ),
        fx["params"],
    )
    assert max_relative_error(result.gradients, numeric) < 1e-4


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
    reference = backprop(params, config, trace, deltas)
    for g1, g2 in zip(via_composite.weights + via_composite.biases, reference.weights + reference.biases):
        assert np.array_equal(g1, g2)  # bitwise, not approximately


def test_backward_rejects_bad_lambda():
    rng = np.random.default_rng(4)
    config, params = small_net()
    x, y, a, e = _two_group_batch(rng, 4)
    trace = forward(params, config, x)
    w = overlap_weights(e, a)
    with pytest.raises(ConfigError):
        backward_composite(trace, params, config, y, w, 1.5)


@DEPTHS
def test_composite_gradient_matches_finite_differences(affine_maps):
    rng = np.random.default_rng(77)
    for _ in range(4):
        fx = draw_gradient_fixture(rng, affine_maps=affine_maps)
        for lam in (0.0, 0.3, 0.7, 1.0):
            result = backward_composite(
                fx["trace"], fx["params"], fx["config"], fx["labels"],
                fx["weights"], lam, fx["bounds"],
            )
            numeric = fd_gradient(
                lambda p: composite_objective(
                    p, fx["config"], fx["x"], fx["labels"], fx["sensitives"],
                    fx["propensities"], lam, fx["bounds"], fx["noise"],
                ),
                fx["params"],
            )
            assert max_relative_error(result.gradients, numeric) < 1e-4


@DEPTHS
def test_backward_objective_matches_the_oracle_and_stacks_bitwise(affine_maps):
    rng = np.random.default_rng(78)
    lambdas = [0.0, 0.3, 0.7, 1.0]
    k = len(lambdas)

    def stack(a):  # one copy per stack member
        return np.stack([a] * k)

    for _ in range(3):
        fx = draw_gradient_fixture(rng, affine_maps=affine_maps)
        args = (fx["params"], fx["config"], fx["labels"], fx["weights"])
        alone = [backward_composite(fx["trace"], *args, lam, fx["bounds"]).objective for lam in lambdas]
        for lam, value in zip(lambdas, alone):
            expected = composite_objective(
                fx["params"], fx["config"], fx["x"], fx["labels"], fx["sensitives"],
                fx["propensities"], lam, fx["bounds"], fx["noise"],
            )
            assert abs(value - expected) <= 1e-12
        # without weights (the single-group fallback) the objective is the risk term alone
        fallback = backward_composite(fx["trace"], *args[:3], None, 0.7, fx["bounds"])
        assert fallback.objective == (1.0 - 0.7) * fx["bounds"].standardise_risk(fallback.risk)
        # the same batch as a stack of k members, one lambda each
        params = NetworkParams([stack(w) for w in fx["params"].weights], [stack(b) for b in fx["params"].biases])
        trace = forward(params, fx["config"], stack(fx["x"]), MODE_TRAIN, rng=[replay(fx["noise"]) for _ in range(k)])
        weights = overlap_weights(stack(fx["propensities"]), stack(fx["sensitives"]))
        stacked = backward_composite(trace, params, fx["config"], stack(fx["labels"]), weights, lambdas, fx["bounds"])
        assert stacked.objective.tolist() == alone


@DEPTHS
def test_training_penalty_is_ato_hidden_penalty_bitwise(affine_maps):
    rng = np.random.default_rng(79)
    lambdas = [0.3, 0.7, 1.0]
    k = len(lambdas)

    def stack(a):  # one copy per stack member
        return np.stack([a] * k)

    for _ in range(10):
        fx = draw_gradient_fixture(rng, affine_maps=affine_maps)
        args = (fx["params"], fx["config"], fx["labels"], fx["weights"])
        penalty, _ = ato_hidden_penalty(fx["trace"], fx["weights"])
        for lam in lambdas:
            assert backward_composite(fx["trace"], *args, lam, fx["bounds"]).unfairness == penalty
        params = NetworkParams([stack(w) for w in fx["params"].weights], [stack(b) for b in fx["params"].biases])
        trace = forward(params, fx["config"], stack(fx["x"]), MODE_TRAIN, rng=[replay(fx["noise"]) for _ in range(k)])
        weights = overlap_weights(stack(fx["propensities"]), stack(fx["sensitives"]))
        stacked = backward_composite(trace, params, fx["config"], stack(fx["labels"]), weights, lambdas, fx["bounds"])
        assert np.array_equal(stacked.unfairness, ato_hidden_penalty(trace, weights)[0])


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


def _classifier_model():
    config, params = small_net(seed=5, dropout=0.2)
    return params, config, None


def _trained_propensity_model():
    from fairfront.data import generate_synthetic
    from fairfront.propensity import PropensityConfig, calibrate_temperature, train_propensity

    ds = generate_synthetic(n=120, p=3, bias_strength=1.0, seed=4)
    config = PropensityConfig(hidden_layers=1, hidden_width=4, epochs=2, batch_size=32)
    (raw,) = train_propensity(ds.features[:80], [ds.sensitives[:80]], config, [16920295385781661272])
    model = calibrate_temperature(raw, ds.features[80:], ds.sensitives[80:])
    assert model.temperature != 1.0
    return model.params, model.config, model.temperature


@pytest.mark.parametrize(
    "build",
    [_classifier_model, _trained_propensity_model],
    ids=["classifier", "propensity"],
)
def test_a_saved_model_loads_back_to_an_equal_config_and_temperature(tmp_path, build):
    params, config, temperature = build()
    path = tmp_path / "model.json"
    save_model(path, params, config, temperature=temperature)
    loaded_params, loaded_config, loaded_temperature = load_model(path)
    assert loaded_config == config and loaded_temperature == temperature
    for a, b in zip(params.weights + params.biases, loaded_params.weights + loaded_params.biases):
        assert np.array_equal(a, b)


def test_load_model_validates_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"layer_sizes": [2, 1]}')
    with pytest.raises(ConfigError):
        load_model(path)
