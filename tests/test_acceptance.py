"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Each test prints (and records for the terminal summary) a single line of the
form ``[criterion N] PASS: ...`` with the measured numbers next to their
tolerances, so a red run says exactly which bar was missed and by how much.

Criteria 6-8 share one frozen pipeline configuration.  The generator seed and
confounding strength are free parameters of the scaled-down trend check; they
were chosen once so the lambda=0 unfairness signal sits well above the
estimator's finite-sample noise floor, and are pinned here for determinism.
"""
from __future__ import annotations

import statistics
import time
import warnings

import numpy as np
import pytest

from fairfront.adversarial import AdversaryConfig, classifier_objective_gradient, run_adversarial_sweep
from fairfront.data import SplitPlan, generate_synthetic
from fairfront.metrics import (
    PENALTY_ALL_LAYERS,
    PENALTY_PENULTIMATE,
    ato_estimate,
    ato_hidden_penalty,
    conditional_mv_index,
    mv_index,
    overlap_weights,
)
from fairfront.network import MODE_EVAL, backward_composite, bce_loss, forward, init_network
from fairfront.pareto import (
    SweepConfig,
    build_lambda_grid,
    chebyshev_toy_minimiser,
    cull_nondominated,
    linear_toy_minimiser,
    run_sweep,
    write_candidates_csv,
)
from fairfront.propensity import PropensityConfig, PropensityModel, calibrate_temperature, predict_propensity
from fairfront.network import NetworkConfig, NetworkParams
from fairfront.training import TrainConfig

from conftest import _random_batch, _random_config, _random_params, draw_gradient_fixture, record_verdict
from oracles import (
    adversarial_objective,
    bf_ato,
    bf_ato_penalty,
    bf_conditional_mv,
    bf_mv,
    bf_nondominated,
    composite_objective,
    fd_gradient,
    max_relative_error,
)


def _verdict(num: int, ok: bool, detail: str):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    record_verdict(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences


def _adversary_clear_of_kinks(rng, scores):
    config = AdversaryConfig(hidden_layers=2, hidden_width=6)
    while True:
        net = config.network_config(int(rng.integers(2**31)))
        params = init_network(net)
        trace = forward(params, net, scores[:, None], MODE_EVAL)
        if all(np.min(np.abs(h)) > 1e-3 for h in trace.preactivations[:-1]):
            return params, net


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    lambdas = (0.0, 0.3, 0.7, 1.0)
    worst = 0.0
    for i in range(20):
        mode = PENALTY_PENULTIMATE if i % 2 == 0 else PENALTY_ALL_LAYERS
        fx = draw_gradient_fixture(rng, penalty_mode=mode)
        for lam in lambdas:
            analytic = backward_composite(
                fx["trace"], fx["params"], fx["config"], fx["labels"],
                fx["weights"], lam, fx["bounds"], penalty_mode=mode,
            ).gradients
            numeric = fd_gradient(
                lambda p: composite_objective(
                    p, fx["config"], fx["x"], fx["labels"], fx["sensitives"],
                    fx["propensities"], lam, fx["bounds"], fx["masks"], mode,
                ),
                fx["params"],
            )
            worst = max(worst, max_relative_error(analytic, numeric))
        adv_params, adv_net = _adversary_clear_of_kinks(rng, fx["trace"].output)
        a = fx["sensitives"].astype(float)
        for lam in lambdas:
            grads, _ = classifier_objective_gradient(
                fx["params"], fx["config"], adv_params, adv_net,
                fx["trace"], fx["labels"], a, lam,
            )
            numeric = fd_gradient(
                lambda p: adversarial_objective(
                    p, fx["config"], adv_params, adv_net,
                    fx["x"], fx["labels"], a, lam, fx["masks"],
                ),
                fx["params"],
            )
            worst = max(worst, max_relative_error(grads, numeric))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(1, ok, f"20 nets, composite+adversarial at lambda {lambdas}: "
                    f"max rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s (budget 30s)")


# ---------------------------------------------------------------------------
# criterion 2: estimators vs brute-force re-implementations


def _two_group_draw(rng, n):
    while True:
        a = (rng.random(n) < rng.uniform(0.25, 0.75)).astype(np.int64)
        if 0 < a.sum() < n:
            return a


def test_criterion_2_estimator_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = {"ato": 0.0, "penalty": 0.0, "mv": 0.0, "cmv": 0.0}
    for i in range(100):
        n = 300 if i == 0 else int(rng.integers(30, 301))
        a = _two_group_draw(rng, n)
        e = rng.uniform(0.05, 0.95, size=n)
        outcomes = rng.normal(size=n)
        scores = rng.normal(size=n)
        w = overlap_weights(e, a)

        worst["ato"] = max(worst["ato"], abs(ato_estimate(outcomes, w) - bf_ato(outcomes, a, e)))

        config = _random_config(rng)
        params = _random_params(config, rng)
        x = rng.normal(size=(n, config.layer_sizes[0]))
        trace = forward(params, config, x, MODE_EVAL)
        mode = PENALTY_PENULTIMATE if i % 2 == 0 else PENALTY_ALL_LAYERS
        pen, _ = ato_hidden_penalty(trace, w, mode)
        worst["penalty"] = max(worst["penalty"], abs(pen - bf_ato_penalty(trace, a, e, mode)))

        worst["mv"] = max(worst["mv"], abs(mv_index(scores, a) - bf_mv(scores, a)))

        while True:
            strata = (rng.random(n) < 0.5).astype(np.int64)
            if bf_conditional_mv(scores, a, strata) is not None:
                break
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lib_cmv = conditional_mv_index(scores, a, strata)
        worst["cmv"] = max(worst["cmv"], abs(lib_cmv - bf_conditional_mv(scores, a, strata)))

    anchor_mv = mv_index(np.array([0.1, 0.9]), np.array([0, 1]))
    anchor_w = overlap_weights(np.array([0.9, 0.3]), np.array([1, 0]))
    anchor_ato = ato_estimate(np.array([0.8, 0.2]), anchor_w)
    anchors_ok = abs(anchor_mv - 0.125) < 1e-12 and abs(anchor_ato - 0.6) < 1e-12

    elapsed = time.perf_counter() - start
    peak = max(worst.values())
    ok = peak < 1e-10 and anchors_ok and elapsed < 30.0
    _verdict(2, ok, f"100 fixtures n<=300: max abs err {peak:.2e} (tol 1e-10) "
                    f"[ato {worst['ato']:.1e} pen {worst['penalty']:.1e} mv {worst['mv']:.1e} "
                    f"cmv {worst['cmv']:.1e}], anchors MV=0.125 ATO=0.6 {'ok' if anchors_ok else 'BAD'}, "
                    f"{elapsed:.1f}s (budget 30s)")


# ---------------------------------------------------------------------------
# criterion 3: culling vs O(n^2) brute force


def test_criterion_3_culling_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    mismatches = 0
    for k in range(50):
        n = 1000
        if k % 3 == 0:
            r = np.round(rng.random(n), 2)
            u = np.round(rng.random(n), 2)
        elif k % 3 == 1:
            r = np.round(rng.random(n), 1)
            u = np.round(rng.random(n), 1)
        else:
            r = rng.random(n)
            u = rng.random(n)
            dup = rng.integers(0, n, size=100)
            r[dup[:50]] = r[dup[50:]]
            u[dup[:50]] = u[dup[50:]]
        if not np.array_equal(cull_nondominated(r, u), bf_nondominated(r, u)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(3, ok, f"50 sets of 1000 points with ties/duplicates: {mismatches} mismatches, "
                    f"{elapsed:.1f}s (budget 10s)")


# ---------------------------------------------------------------------------
# criterion 4: Chebyshev recovers the concave arc, linear cannot


def test_criterion_4_nonconvex_recovery():
    start = time.perf_counter()
    t = np.linspace(0.0, np.pi / 2.0, 181)
    j1 = np.cos(t)
    j2 = np.sin(t)
    grid = build_lambda_grid(15)
    che = {chebyshev_toy_minimiser(lam, j1, j2) for lam in grid.values}
    lin = {linear_toy_minimiser(lam, j1, j2) for lam in grid.values}
    interior = {i for i in che if 0 < i < 180}
    elapsed = time.perf_counter() - start
    ok = len(interior) >= 5 and lin == {0, 180} and elapsed < 5.0
    _verdict(4, ok, f"quarter-circle, 15 lambdas: Chebyshev found {len(interior)} interior points "
                    f"(need >=5), linear found {sorted(lin)} (endpoints only), "
                    f"{elapsed:.2f}s (budget 5s)")


# ---------------------------------------------------------------------------
# criterion 5: temperature calibration contract


def _passthrough_model() -> PropensityModel:
    config = NetworkConfig(layer_sizes=[1, 1], dropout_prob=0.0, seed=0)
    return PropensityModel(params=NetworkParams([np.array([[1.0]])], [np.zeros(1)]), config=config)


def test_criterion_5_calibration_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    model = _passthrough_model()
    worst_regression = -np.inf
    worst_doubling = 0.0
    for _ in range(20):
        n = int(rng.integers(150, 500))
        sigma = rng.uniform(0.8, 3.0)
        t_true = rng.uniform(0.4, 3.0)
        z = rng.normal(0.0, sigma, size=n)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z / t_true))).astype(float)

        cal = calibrate_temperature(model, z[:, None], y)
        bce_raw = bce_loss(predict_propensity(model, z[:, None]), y)
        bce_cal = bce_loss(predict_propensity(cal, z[:, None]), y)
        worst_regression = max(worst_regression, bce_cal - bce_raw)

        cal2 = calibrate_temperature(model, 2.0 * z[:, None], y)
        worst_doubling = max(worst_doubling, abs(cal2.temperature - 2.0 * cal.temperature) / (2.0 * cal.temperature))
    elapsed = time.perf_counter() - start
    ok = worst_regression <= 1e-9 and worst_doubling < 1e-3
    _verdict(5, ok, f"20 fixtures: max val-BCE increase {worst_regression:.2e} (tol 1e-9), "
                    f"doubled-logit T off by {worst_doubling:.2e} rel (tol 1e-3), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 6-8: the frozen end-to-end pipeline

N_ROWS = 4000
N_FEATURES = 10
BIAS_STRENGTH = 3.0
CONFOUNDING = 2.0
DATA_SEED = 3
NUM_SPLITS = 3
LAMBDA_COUNT = 7
MASTER_SEEDS = (0, 1, 2)


def _sweep_config() -> SweepConfig:
    return SweepConfig(
        num_layers=2, hidden_width=8, dropout_prob=0.2, penalty_mode=PENALTY_PENULTIMATE,
        train=TrainConfig(epochs=150, batch_size=250, learning_rate=1e-3),
        propensity=PropensityConfig(hidden_layers=3, hidden_width=32, dropout_prob=0.2,
                                    epochs=100, batch_size=250),
    )


def _dataset():
    return generate_synthetic(n=N_ROWS, p=N_FEATURES, bias_strength=BIAS_STRENGTH,
                              confounding=CONFOUNDING, seed=DATA_SEED)


def _front_size(result) -> int:
    r = np.array([c.metrics["r_test"] for c in result.candidates])
    u = np.array([c.metrics["u_ato"] for c in result.candidates])
    return int(cull_nondominated(r, u).sum())


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    plan = SplitPlan(num_splits=NUM_SPLITS, train_fraction=0.5, master_seed=MASTER_SEEDS[0])
    start = time.perf_counter()
    result = run_sweep(_dataset(), plan, build_lambda_grid(LAMBDA_COUNT), _sweep_config(), jobs=1)
    wall = time.perf_counter() - start
    path = tmp_path_factory.mktemp("acceptance") / "candidates.csv"
    write_candidates_csv(path, result.candidates)
    return {"result": result, "wall": wall, "csv": path.read_bytes(), "plan": plan}


def _median_at(result, lam: float, key: str) -> float:
    return statistics.median(c.metrics[key] for c in result.candidates if c.lambda_ == lam)


def test_criterion_6_end_to_end_trend(pipeline):
    result = pipeline["result"]
    rows = len(result.candidates)
    u0 = _median_at(result, 0.0, "u_ato")
    u1 = _median_at(result, 1.0, "u_ato")
    r0 = _median_at(result, 0.0, "r_test")
    r1 = _median_at(result, 1.0, "r_test")
    front = _front_size(result)
    wall = pipeline["wall"]
    checks = {
        "rows": rows == NUM_SPLITS * LAMBDA_COUNT,
        "unfairness_halved": u1 < 0.5 * u0,
        "risk_ordered": r1 > r0,
        "front": front >= 4,
        "time": wall < 300.0,
    }
    ok = all(checks.values())
    _verdict(6, ok, f"rows {rows}/21, median u_ato {u0:.4f}->{u1:.4f} (ratio {u1 / u0:.2f}, need <0.5), "
                    f"median r_test {r0:.4f}->{r1:.4f} (need increase), front {front} (need >=4), "
                    f"{wall:.0f}s (budget 300s)")


@pytest.mark.slow
def test_criterion_7_comparative_count(pipeline):
    start = time.perf_counter()
    ds = _dataset()
    grid = build_lambda_grid(LAMBDA_COUNT)
    cfg = _sweep_config()
    adv_cfg = AdversaryConfig()
    counts = []
    for seed in MASTER_SEEDS:
        plan = SplitPlan(num_splits=NUM_SPLITS, train_fraction=0.5, master_seed=seed)
        if seed == MASTER_SEEDS[0]:
            che = _front_size(pipeline["result"])
        else:
            che = _front_size(run_sweep(ds, plan, grid, cfg, jobs=3))
        adv = _front_size(run_adversarial_sweep(ds, plan, grid, cfg, adv_cfg, jobs=3))
        counts.append((seed, che, adv))
    wins = sum(1 for _, che, adv in counts if che >= adv)
    # the reused seed-0 sweep was timed by the fixture; bill it here too
    elapsed = time.perf_counter() - start + pipeline["wall"]
    ok = wins >= 2 and elapsed < 600.0
    detail = ", ".join(f"seed {s}: {c} vs {a}" for s, c, a in counts)
    _verdict(7, ok, f"Chebyshev vs adversarial non-dominated counts [{detail}]: "
                    f"{wins}/3 wins (need >=2), {elapsed:.0f}s (budget 600s)")


def test_criterion_8_byte_identical_rerun(pipeline, tmp_path):
    rerun = run_sweep(_dataset(), pipeline["plan"], build_lambda_grid(LAMBDA_COUNT), _sweep_config(), jobs=1)
    path = tmp_path / "candidates.csv"
    write_candidates_csv(path, rerun.candidates)
    identical = path.read_bytes() == pipeline["csv"]
    _verdict(8, identical, f"full pipeline rerun, master seed {MASTER_SEEDS[0]}: candidates CSV "
                           f"{'byte-identical' if identical else 'DIFFERS'} "
                           f"({len(pipeline['csv'])} bytes)")
