"""Adversarial baseline: gradient path, freezing, alternation, sweep."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from fairfront import adversarial, network
from fairfront.adversarial import (
    AdversaryConfig,
    classifier_objective_gradient,
    run_adversarial_sweep,
    train_adversarial,
)
from fairfront.data import SplitPlan, generate_synthetic, minibatches
from fairfront.errors import ConfigError, InputError, NumericError, ShapeError
from fairfront.network import (
    MODE_EVAL,
    MODE_TRAIN,
    NetworkConfig,
    NetworkParams,
    backprop,
    bce_loss,
    forward,
    init_network,
)
from fairfront.pareto import SweepConfig, build_lambda_grid
from fairfront.propensity import PropensityConfig
from fairfront.training import TrainConfig, derive_seeds

from conftest import draw_gradient_fixture, minor_faults_of_a_second_call, needs_mallopt
from oracles import LayerAdam, adversarial_objective, fd_gradient, max_relative_error


def adversary_with_margins(rng, scores, hidden_layers=2, width=6):
    """Init adversaries until the given scores sit clear of its ReLU kinks."""
    config = AdversaryConfig(hidden_layers=hidden_layers, hidden_width=width)
    while True:
        net = config.network_config()
        params = init_network(net, int(rng.integers(2**31)))
        trace = forward(params, net, scores[:, None], MODE_EVAL)
        if all(np.min(np.abs(h)) > 1e-3 for h in trace.preactivations[:-1]):
            return params, net


def test_classifier_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    for _ in range(3):
        fx = draw_gradient_fixture(rng)
        adv_params, adv_net = adversary_with_margins(rng, fx["trace"].output)
        a = fx["sensitives"].astype(float)
        for lam in (0.0, 0.7):
            grads, value = classifier_objective_gradient(
                fx["params"], fx["config"], adv_params, adv_net,
                fx["trace"], fx["labels"], a, lam,
            )
            objective = lambda p: adversarial_objective(
                p, fx["config"], adv_params, adv_net,
                fx["x"], fx["labels"], a, lam, fx["masks"],
            )
            assert value == pytest.approx(objective(fx["params"]), abs=1e-12)
            assert max_relative_error(grads, fd_gradient(objective, fx["params"])) < 1e-4


def stack(nets: list[NetworkParams]) -> NetworkParams:
    return NetworkParams(
        weights=[np.stack(ws) for ws in zip(*(n.weights for n in nets))],
        biases=[np.stack(bs) for bs in zip(*(n.biases for n in nets))],
    )


def test_a_stacked_gradient_gives_each_member_its_lone_gradient():
    # Member 0 sits at lambda = 0 against an adversary of nan parameters: its
    # adversary term is left out, not multiplied by zero, so it never reads it.
    rng = np.random.default_rng(3)
    clf_net = NetworkConfig(layer_sizes=[4, 5, 1], dropout_prob=0.0)
    adv_net = AdversaryConfig(hidden_layers=2, hidden_width=6).network_config()
    clfs = [init_network(clf_net, s) for s in (1, 2)]
    advs = [init_network(adv_net, s) for s in (3, 4)]
    advs[0] = NetworkParams([np.full_like(w, np.nan) for w in advs[0].weights], advs[0].biases)
    x, y, a = rng.normal(size=(2, 9, 4)), rng.integers(0, 2, (2, 9)), rng.integers(0, 2, (2, 9))
    lams = np.array([0.0, 0.6])
    trace = forward(stack(clfs), clf_net, x, MODE_EVAL)
    grads, objective = classifier_objective_gradient(stack(clfs), clf_net, stack(advs), adv_net, trace, y, a, lams)
    for k in range(2):
        lone_trace = forward(clfs[k], clf_net, x[k], MODE_EVAL)
        want, value = classifier_objective_gradient(clfs[k], clf_net, advs[k], adv_net, lone_trace, y[k], a[k], lams[k])
        assert objective[k] == value
        for g, w in zip((*grads.weights, *grads.biases), (*want.weights, *want.biases)):
            assert np.array_equal(g[k], w)
    assert all(np.isfinite(g[0]).all() for g in (*grads.weights, *grads.biases))


def classifier_step_problem(stacked: bool):
    """A classifier step at the adversarial sweep's shapes: 7 members (or one), 250 rows, a 4 x 32 adversary."""
    rng = np.random.default_rng(23)
    clf_net = NetworkConfig(layer_sizes=[10, 8, 1], dropout_prob=0.2)
    adv_net = AdversaryConfig().network_config()
    seeds = range(7) if stacked else [0]
    clf = stack([init_network(clf_net, s) for s in seeds])
    adv = stack([init_network(adv_net, 100 + s) for s in seeds])
    x, y, a = (rng.normal(size=(len(seeds), 250, 10)), rng.integers(0, 2, (len(seeds), 250)),
               rng.integers(0, 2, (len(seeds), 250)))
    lams = np.linspace(0.0, 1.0, 7)
    if not stacked:
        clf, adv, x, y, a, lams = clf.member(0), adv.member(0), x[0], y[0], a[0], 0.6
    trace = forward(clf, clf_net, x, MODE_TRAIN, rng=[np.random.default_rng(s) for s in seeds])
    return clf, clf_net, adv, adv_net, trace, y, a, lams


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
def test_the_classifier_step_reads_backprops_input_delta_bitwise(stacked, monkeypatch):
    args = classifier_step_problem(stacked)
    grads, objective = classifier_objective_gradient(*args)
    seen = []

    def backprops_delta(params, trace, output_delta):
        config = args[3]
        want = backprop(params, config, trace, [None] * (config.num_layers - 1) + [output_delta])[1]
        seen.append(np.array_equal(network.input_delta(params, trace, output_delta), want))
        return want

    monkeypatch.setattr(adversarial, "input_delta", backprops_delta)
    ref_grads, ref_objective = classifier_objective_gradient(*args)
    assert seen == [True]
    assert np.array_equal(objective, ref_objective)
    for g, r in zip((*grads.weights, *grads.biases), (*ref_grads.weights, *ref_grads.biases)):
        assert np.array_equal(g, r)


def test_a_classifier_step_builds_no_adversary_parameter_gradient(monkeypatch):
    # Count the weight products and bias sums whose result has the shape of a
    # hidden adversary parameter (32 x 1, 32 x 32, 1 x 32 weights; 32 biases):
    # the classifier (10 -> 8 -> 1) and the 250-row activations have none.
    clf, clf_net, adv, adv_net, trace, y, a, lams = classifier_step_problem(stacked=True)
    adv_shapes = {w.shape for w in adv.weights} | {b.shape for b in adv.biases[:-1]}
    built = []
    real_matmul, real_row_sum = network._matmul, network._row_sum

    def counting(real):
        def call(*args):
            out = real(*args)
            built.extend([out.shape] if out.shape in adv_shapes else [])
            return out
        return call

    monkeypatch.setattr(network, "_matmul", counting(real_matmul))
    monkeypatch.setattr(network, "_row_sum", counting(real_row_sum))
    adversarial._adversary_gradient(adv, adv_net, trace.output, a)
    # the counter sees an adversary gradient: each weight product and hidden bias sum
    assert len(built) == len(adv.weights) + len(adv.biases) - 1
    built.clear()
    classifier_objective_gradient(clf, clf_net, adv, adv_net, trace, y, a, lams)
    assert built == []


def test_adversary_gradient_matches_finite_differences_at_the_clamp():
    # A 1 -> 1 adversary with weight 40 maps scores 0.9 and 0.95 to sigmoid
    # values the output clamp pins at 1 - CLAMP, where the loss no longer moves.
    net = NetworkConfig(layer_sizes=[1, 1], dropout_prob=0.0)
    params = NetworkParams([np.array([[40.0]])], [np.zeros(1)])
    scores, a = np.array([0.9, 0.95]), np.zeros(2)
    grads, d_first = adversarial._adversary_gradient(params, net, scores, a)
    objective = lambda p: bce_loss(forward(p, net, scores[:, None], MODE_EVAL).output, a)
    numeric = fd_gradient(objective, params)
    assert numeric.weights[0][0, 0] == 0.0
    assert max_relative_error(grads, numeric) == 0.0
    assert np.array_equal((d_first @ params.weights[0])[:, 0], np.zeros(2))


def small_problem(seed=0, n=140):
    ds = generate_synthetic(n=n, p=4, bias_strength=2.0, seed=seed)
    clf = NetworkConfig(layer_sizes=[4, 4, 1], dropout_prob=0.2)
    train = TrainConfig(epochs=3, batch_size=32)
    return ds, clf, train


def test_classifier_steps_never_touch_the_adversary():
    ds, clf, train = small_problem(1)
    adv_cfg = AdversaryConfig(
        hidden_layers=2, hidden_width=5,
        pretrain_classifier_epochs=3, pretrain_adversary_epochs=0, rounds=0,
    )
    (result,) = train_adversarial(
        ds.features, ds.labels.astype(float), ds.sensitives, clf, train, adv_cfg, [0.8], [(3, 4)]
    )
    fresh = init_network(result.adversary_config, derive_seeds(4)[0])
    for w1, w2 in zip(result.adversary_params.weights, fresh.weights):
        assert np.array_equal(w1, w2)  # adversary still at initialisation


def test_adversary_pretraining_never_touches_the_classifier():
    ds, clf, train = small_problem(2)
    adv_cfg = AdversaryConfig(
        hidden_layers=2, hidden_width=5,
        pretrain_classifier_epochs=0, pretrain_adversary_epochs=3, rounds=0,
    )
    (result,) = train_adversarial(
        ds.features, ds.labels.astype(float), ds.sensitives, clf, train, adv_cfg, [0.8], [(3, 4)]
    )
    fresh = init_network(result.classifier_config, 3)
    for w1, w2 in zip(result.classifier_params.weights, fresh.weights):
        assert np.array_equal(w1, w2)


def test_alternation_takes_one_step_of_each_player_per_round(monkeypatch):
    ds, clf, train = small_problem(3)
    adv_cfg = AdversaryConfig(
        hidden_layers=1, hidden_width=4,
        pretrain_classifier_epochs=2, pretrain_adversary_epochs=2, rounds=7,
    )
    classifier_steps, adversary_epochs = [], []
    real_gradient, real_forward = adversarial.classifier_objective_gradient, adversarial.forward

    def count_step(*args):
        classifier_steps.append(1)
        return real_gradient(*args)

    def count_epoch(params, config, inputs, mode=MODE_EVAL, **kwargs):
        if mode == MODE_EVAL and config.layer_sizes[0] != 1:  # each adversary epoch scores the classifier once
            adversary_epochs.append(1)
        return real_forward(params, config, inputs, mode, **kwargs)

    monkeypatch.setattr(adversarial, "classifier_objective_gradient", count_step)
    monkeypatch.setattr(adversarial, "forward", count_epoch)
    # A stack of three steps as one: one gradient call per stacked step, one scoring pass per epoch.
    train_adversarial(
        ds.features, ds.labels.astype(float), ds.sensitives, clf, train, adv_cfg,
        [0.0, 0.5, 1.0], [(0, 1), (2, 3), (4, 5)],
    )
    batches_per_epoch = -(-ds.n_rows // train.batch_size)
    assert len(classifier_steps) == 2 * batches_per_epoch + 7
    assert len(adversary_epochs) == 2 + 7


def test_training_is_deterministic_in_seeds():
    ds, clf, train = small_problem(4)
    adv_cfg = AdversaryConfig(hidden_layers=1, hidden_width=4, rounds=5,
                              pretrain_classifier_epochs=1, pretrain_adversary_epochs=1)
    rows = ds.features, ds.labels.astype(float), ds.sensitives, clf, train, adv_cfg
    (r1,) = train_adversarial(*rows, [0.3], [(8, 9)])
    (r2,) = train_adversarial(*rows, [0.3], [(8, 9)])
    (r3,) = train_adversarial(*rows, [0.3], [(8, 10)])
    for w1, w2 in zip(r1.classifier_params.weights, r2.classifier_params.weights):
        assert np.array_equal(w1, w2)
    assert any(
        not np.array_equal(w1, w3)
        for w1, w3 in zip(r1.classifier_params.weights, r3.classifier_params.weights)
    )


def test_adversarial_sweep_rows_and_objective_fields():
    ds = generate_synthetic(n=220, p=4, bias_strength=2.0, seed=15)
    plan = SplitPlan(num_splits=1, train_fraction=0.5, master_seed=6)
    cfg = SweepConfig(
        num_layers=2, hidden_width=4, dropout_prob=0.2,
        train=TrainConfig(epochs=5, batch_size=64),
        propensity=PropensityConfig(hidden_layers=1, hidden_width=6, epochs=10, batch_size=64),
    )
    adv_cfg = AdversaryConfig(hidden_layers=1, hidden_width=4, rounds=4,
                              pretrain_classifier_epochs=1, pretrain_adversary_epochs=1)
    res = run_adversarial_sweep(ds, plan, build_lambda_grid(3), cfg, adv_cfg, jobs=1)
    assert len(res.candidates) == 3
    assert not res.failures
    for c in res.candidates:
        assert set(c.metrics) == {"r_test", "u_ato", "mv_eo", "mv_eopp", "mv_dp"}
        assert math.isnan(c.final_epoch_objective)  # no epoch objective in this protocol
    assert 0 in res.propensity_models


def reference_adversarial(x, y, a, clf_cfg, train, adv_config, lambda_, seeds):
    """The alternation written plainly: per-layer parameter arrays, each with
    its own Adam state, and the classifier re-scored on every adversary
    minibatch.  Returns the final (classifier, adversary) parameters."""
    adv_init, loop_seed = derive_seeds(seeds[1])
    adv_cfg = adv_config.network_config()
    clf, adv = init_network(clf_cfg, seeds[0]), init_network(adv_cfg, adv_init)
    clf_adam = LayerAdam(clf, train.learning_rate)
    adv_adam = LayerAdam(adv, adv_config.learning_rate)
    rng = np.random.default_rng(loop_seed)
    idx = np.arange(y.size)

    def classifier_step(rows):
        trace = forward(clf, clf_cfg, x[rows], MODE_TRAIN, rng=rng)
        grads, _ = classifier_objective_gradient(clf, clf_cfg, adv, adv_cfg, trace, y[rows], a[rows], lambda_)
        clf_adam.step(clf, grads)

    def adversary_epoch():
        for mb in minibatches(idx, train.batch_size, rng):
            scores = forward(clf, clf_cfg, x[mb.indices], MODE_EVAL).output
            trace = forward(adv, adv_cfg, scores[:, None], MODE_EVAL)
            deltas = [None] * adv_cfg.num_layers
            deltas[-1] = ((trace.output - a[mb.indices]) / mb.indices.size)[:, None]
            grads, _ = backprop(adv, adv_cfg, trace, deltas)
            adv_adam.step(adv, grads)

    for _ in range(adv_config.pretrain_classifier_epochs):
        for mb in minibatches(idx, train.batch_size, rng):
            classifier_step(mb.indices)
    for _ in range(adv_config.pretrain_adversary_epochs):
        adversary_epoch()
    order, pos = idx[:0], 0
    for _ in range(adv_config.rounds):
        adversary_epoch()
        if pos >= order.size:
            order, pos = idx[rng.permutation(idx.size)], 0
        classifier_step(order[pos : pos + train.batch_size])
        pos += train.batch_size
    return clf, adv


@pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
def test_training_matches_the_plain_reference_loop(lam):
    ds, clf, train = small_problem(5)
    adv_cfg = AdversaryConfig(
        hidden_layers=2, hidden_width=6,
        pretrain_classifier_epochs=2, pretrain_adversary_epochs=2, rounds=9,
    )
    y, a = ds.labels.astype(float), ds.sensitives.astype(float)
    (result,) = train_adversarial(ds.features, y, ds.sensitives, clf, train, adv_cfg, [lam], [(11, 12)])
    ref_clf, ref_adv = reference_adversarial(ds.features, y, a, clf, train, adv_cfg, lam, (11, 12))
    for got, want in ((result.classifier_params, ref_clf), (result.adversary_params, ref_adv)):
        for g, w in zip((*got.weights, *got.biases), (*want.weights, *want.biases)):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-12
    fresh = init_network(result.classifier_config, 11)
    assert not np.array_equal(result.classifier_params.weights[0], fresh.weights[0])


# The parameters of a stack of one, (classifier weights and biases, then the
# adversary's) as float64 bytes, sha256 prefix, taken before train_adversarial
# trained stacks: the lone protocol these numbers pin is the one every stack
# member reproduces.
LONE_RUN_DIGESTS = {0.0: "05090db83fcda5b0", 0.3: "af57ab7d9fccc328", 1.0: "dc1107d67fb57c8d"}


def parameter_digest(result) -> str:
    h = hashlib.sha256()
    for params in (result.classifier_params, result.adversary_params):
        for arr in (*params.weights, *params.biases):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def stack_problem():
    """Dropout on, 140 rows at batch 32 (a short last batch), every phase run."""
    ds, clf, train = small_problem(5)
    adv_cfg = AdversaryConfig(
        hidden_layers=2, hidden_width=6,
        pretrain_classifier_epochs=2, pretrain_adversary_epochs=2, rounds=9,
    )
    return (ds.features, ds.labels, ds.sensitives, clf, train, adv_cfg)


@pytest.mark.parametrize("lam", sorted(LONE_RUN_DIGESTS))
def test_a_stack_of_one_trains_the_pinned_lone_run(lam):
    (result,) = train_adversarial(*stack_problem(), [lam], [(11, 12)])
    assert parameter_digest(result) == LONE_RUN_DIGESTS[lam]


def assert_same_players(got, want):
    for a, b in ((got.classifier_params, want.classifier_params), (got.adversary_params, want.adversary_params)):
        for g, w in zip((*a.weights, *a.biases), (*b.weights, *b.biases)):
            assert np.array_equal(g, w)


def test_each_stack_member_trains_as_its_lone_run():
    rows = stack_problem()
    lams, seeds = [0.0, 0.3, 1.0], [(11, 12), (3, 4), (5, 6)]
    stacked = train_adversarial(*rows, lams, seeds)
    assert len(stacked) == 3
    for lam, pair, got in zip(lams, seeds, stacked):
        (alone,) = train_adversarial(*rows, [lam], [pair])
        assert_same_players(got, alone)
    assert parameter_digest(stacked[0]) == LONE_RUN_DIGESTS[0.0]


# Not the adversary's default rate, so a learning rate tells the two players' Adam calls apart.
CLASSIFIER_RATE = TrainConfig().learning_rate / 2


def poisoned_adam_step(member: int, classifier_step: int):
    """adam_step that writes nan into one member's classifier row after that player's given step (1-based)."""
    real = adversarial.adam_step
    steps = []

    def step(state, params, grads):
        real(state, params, grads)
        if state.learning_rate[0] == CLASSIFIER_RATE:  # the classifier's stack
            steps.append(1)
            if len(steps) == classifier_step:
                params[member, 0] = np.nan

    return step


def test_a_diverging_member_fails_alone(monkeypatch):
    features, labels, sensitives, clf, _, adv_cfg = stack_problem()
    train = TrainConfig(epochs=3, batch_size=32, learning_rate=CLASSIFIER_RATE)
    rows = (features, labels, sensitives, clf, train, adv_cfg)
    lams, seeds = [0.0, 0.3, 1.0], [(11, 12), (3, 4), (5, 6)]
    alone = [train_adversarial(*rows, [lam], [pair])[0] for lam, pair in zip(lams, seeds)]
    # Pretraining takes 2 epochs of 5 classifier steps; its 13th step is the one of round 2.
    monkeypatch.setattr(adversarial, "adam_step", poisoned_adam_step(member=1, classifier_step=13))
    stacked = train_adversarial(*rows, lams, seeds)
    assert isinstance(stacked[1], NumericError)
    assert str(stacked[1]) == "round 2 left non-finite parameters (lambda=0.3)"
    for k in (0, 2):
        assert_same_players(stacked[k], alone[k])


def test_a_diverging_member_is_recorded_at_stage_adversarial(monkeypatch):
    ds = generate_synthetic(n=220, p=4, bias_strength=2.0, seed=15)
    plan = SplitPlan(num_splits=1, train_fraction=0.5, master_seed=6)
    cfg = SweepConfig(
        num_layers=2, hidden_width=4, dropout_prob=0.2,
        train=TrainConfig(epochs=5, batch_size=64, learning_rate=CLASSIFIER_RATE),
        propensity=PropensityConfig(hidden_layers=1, hidden_width=6, epochs=10, batch_size=64),
    )
    adv_cfg = AdversaryConfig(hidden_layers=1, hidden_width=4, rounds=4,
                              pretrain_classifier_epochs=1, pretrain_adversary_epochs=1)
    grid = build_lambda_grid(3)
    clean = run_adversarial_sweep(ds, plan, grid, cfg, adv_cfg, jobs=1)
    monkeypatch.setattr(adversarial, "adam_step", poisoned_adam_step(member=1, classifier_step=1))
    res = run_adversarial_sweep(ds, plan, grid, cfg, adv_cfg, jobs=1)
    assert [(f["lambda_index"], f["stage"]) for f in res.failures] == [(1, "adversarial")]
    assert res.failures[0]["error"] == (
        f"NumericError: classifier pretraining epoch 0 left non-finite parameters (lambda={grid.values[1]})"
    )
    assert [c.lambda_index for c in res.candidates] == [0, 2]
    for c in res.candidates:
        assert c.metrics == clean.candidates[c.lambda_index].metrics


ADVERSARIAL_SETUP = """
import numpy as np
from fairfront.adversarial import AdversaryConfig, train_adversarial
from fairfront.network import NetworkConfig
from fairfront.training import TrainConfig

rng = np.random.default_rng(0)
x, y, a = rng.normal(size=(1000, 10)), rng.integers(0, 2, 1000), rng.integers(0, 2, 1000)
adv = AdversaryConfig(pretrain_classifier_epochs=1, pretrain_adversary_epochs=1, rounds=3)
args = x, y, a, NetworkConfig(layer_sizes=[10, 8, 1]), TrainConfig(batch_size=250), adv
lams, seeds = [0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0], [(k, k) for k in range(7)]
"""


@needs_mallopt
def test_a_direct_adversarial_stack_reuses_its_step_arrays_from_the_heap():
    # A stack of 7 default adversaries at batch 250 holds (7, 250, 32) arrays
    # of 448 kB; at glibc's initial thresholds each would be mapped and
    # faulted in again at every step.  Settled, the second call takes about 1.
    assert minor_faults_of_a_second_call(ADVERSARIAL_SETUP, "train_adversarial(*args, lams, seeds)") < 2_000


# a bare value, lists of unequal length, one member's lambda outside [0, 1]
ARGUMENT_FORMS = {
    "bare-lambda": (0.5, [(0, 1)], "lambda_"),
    "bare-seed-pair": ([0.5], (0, 1), "seeds"),
    "short-lambdas": ([0.5], [(0, 1), (2, 3)], "lambda_"),
    "long-lambdas": ([0.5, 0.6], [(0, 1)], "lambda_"),
    "no-members": ([], [], "stack"),
}


@pytest.mark.parametrize("form", ARGUMENT_FORMS)
def test_stack_arguments_of_another_form_are_rejected_naming_them(form, monkeypatch):
    ds, clf, train = small_problem(6)
    monkeypatch.setattr(adversarial, "forward", _no_step)
    lams, seeds, name = ARGUMENT_FORMS[form]
    with pytest.raises(ConfigError, match=name):
        train_adversarial(ds.features, ds.labels, ds.sensitives, clf, train, AdversaryConfig(), lams, seeds)


def _no_step(*args, **kwargs):
    raise AssertionError("the loop started before the inputs were validated")


@pytest.mark.parametrize(
    "corrupt, error",
    [
        (lambda x, y, a: (np.where(np.arange(x.size).reshape(x.shape) == 5, np.nan, x), y, a), InputError),
        (lambda x, y, a: (x, y, np.where(np.arange(a.size) == 3, 2, a)), InputError),
        (lambda x, y, a: (x, y[:-1], a), ShapeError),
        (lambda x, y, a: (x, y, a[:-1]), ShapeError),
        (lambda x, y, a: (x[:, :3], y, a), ShapeError),
    ],
    ids=["nonfinite-features", "nonbinary-sensitives", "short-labels", "short-sensitives", "narrow-features"],
)
def test_inputs_are_rejected_before_any_step(corrupt, error, monkeypatch):
    ds, clf, train = small_problem(6)
    monkeypatch.setattr(adversarial, "forward", _no_step)
    monkeypatch.setattr(adversarial, "adam_step", _no_step)
    adv_cfg = AdversaryConfig(hidden_layers=1, hidden_width=4, rounds=2)
    x, y, a = corrupt(ds.features, ds.labels.astype(float), ds.sensitives)
    with pytest.raises(error):
        train_adversarial(x, y, a, clf, train, adv_cfg, [0.5], [(0, 1)])


@pytest.mark.parametrize("lam", [-0.1, 1.5, float("nan")])
def test_lambda_outside_the_unit_interval_is_rejected(lam, monkeypatch):
    ds, clf, train = small_problem(6)
    monkeypatch.setattr(adversarial, "forward", _no_step)
    with pytest.raises(ConfigError, match="lambda must lie in"):
        train_adversarial(
            ds.features, ds.labels, ds.sensitives, clf, train, AdversaryConfig(), [0.5, lam], [(0, 1), (2, 3)]
        )


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
def test_adversary_learning_rate_must_be_positive(rate):
    with pytest.raises(ConfigError, match="learning_rate"):
        AdversaryConfig(learning_rate=rate)


# A step size this large sends the classifier's parameters to inf within two
# steps, and its gradients to nan after that.
DIVERGING = TrainConfig(epochs=1, batch_size=32, learning_rate=1e308)


def test_diverged_parameters_come_back_as_numeric_errors():
    ds, clf, _ = small_problem(7)
    adv_cfg = AdversaryConfig(
        hidden_layers=1, hidden_width=4,
        pretrain_classifier_epochs=1, pretrain_adversary_epochs=0, rounds=3,
    )
    with np.errstate(all="ignore"):
        runs = train_adversarial(ds.features, ds.labels, ds.sensitives, clf, DIVERGING, adv_cfg, [0.5], [(0, 1)])
    assert [str(run) for run in runs] == ["classifier pretraining epoch 0 left non-finite parameters (lambda=0.5)"]
    assert isinstance(runs[0], NumericError)


def test_diverged_runs_become_adversarial_failure_records():
    ds = generate_synthetic(n=220, p=4, bias_strength=2.0, seed=15)
    plan = SplitPlan(num_splits=1, train_fraction=0.5, master_seed=6)
    cfg = SweepConfig(
        num_layers=2, hidden_width=4, dropout_prob=0.2, train=DIVERGING,
        propensity=PropensityConfig(hidden_layers=1, hidden_width=6, epochs=10, batch_size=64),
    )
    adv_cfg = AdversaryConfig(hidden_layers=1, hidden_width=4, rounds=2,
                              pretrain_classifier_epochs=1, pretrain_adversary_epochs=1)
    with np.errstate(all="ignore"):
        res = run_adversarial_sweep(ds, plan, build_lambda_grid(3), cfg, adv_cfg, jobs=1)
    assert not res.candidates
    assert [(f["lambda_index"], f["stage"]) for f in res.failures] == [(k, "adversarial") for k in range(3)]
    assert all(f["error"].startswith("NumericError") for f in res.failures)
    assert 0 in res.propensity_models
