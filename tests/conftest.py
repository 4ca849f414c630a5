"""Shared fixture builders for the gradient and estimator tests.

The gradient checks compare against central finite differences, which are
only trustworthy away from the objective's kinks (ReLU corners, the |tau|
sign change, the max-branch crossover, the output clamp).  draw_gradient_fixture
therefore rejection-samples random problems until every kink is at a safe
margin, and the tests run the comparison on what it returns.
"""
from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairfront

from fairfront.metrics import ato_hidden_penalty, overlap_weights
from fairfront.network import (
    CLAMP,
    MODE_TRAIN,
    NetworkConfig,
    NetworkParams,
    StandardisationBounds,
    bce_loss,
    forward,
    init_network,
)

KINK_MARGIN = 1e-3
INTERIOR_LAMBDAS = (0.3, 0.7)


def _random_config(rng: np.random.Generator, affine_maps: int | None = None) -> NetworkConfig:
    """A random small net of 1..3 affine maps, or of affine_maps when given."""
    num_layers = int(rng.integers(1, 4)) if affine_maps is None else affine_maps
    input_dim = int(rng.integers(2, 7))
    hidden = [int(rng.integers(2, 9)) for _ in range(num_layers - 1)]
    dropout = float(rng.choice([0.0, 0.2, 0.5]))
    return NetworkConfig(layer_sizes=[input_dim] + hidden + [1], dropout_prob=dropout)


def _random_params(config: NetworkConfig, rng: np.random.Generator) -> NetworkParams:
    params = init_network(config, int(rng.integers(0, 2**31)))
    scale = float(rng.uniform(0.8, 2.0))
    weights = [w * scale for w in params.weights]
    biases = [rng.normal(0.0, 0.3, size=b.shape) for b in params.biases]
    return NetworkParams(weights, biases)


def _random_batch(rng: np.random.Generator, input_dim: int):
    batch = int(rng.integers(2, 9))
    x = rng.normal(0.0, 1.0, size=(batch, input_dim))
    labels = rng.integers(0, 2, size=batch).astype(np.float64)
    sensitives = np.zeros(batch, dtype=np.int64)
    while sensitives.min() == sensitives.max():
        sensitives = rng.integers(0, 2, size=batch)
    propensities = rng.uniform(0.15, 0.85, size=batch)
    return x, labels, sensitives, propensities


def _margins_ok(trace, weights) -> bool:
    for h in trace.preactivations[:-1]:
        if np.min(np.abs(h)) <= KINK_MARGIN:
            return False
    raw = trace.preactivations[-1][:, 0]
    p = 1.0 / (1.0 + np.exp(-raw))
    if np.any(p <= 2 * CLAMP) or np.any(p >= 1.0 - 2 * CLAMP):
        return False
    _, tau = ato_hidden_penalty(trace, weights)
    return tau is None or np.min(np.abs(tau)) > KINK_MARGIN


def _branch_margins_ok(trace, labels, weights, bounds) -> bool:
    r_std = bounds.standardise_risk(bce_loss(trace.output, labels))
    penalty, _ = ato_hidden_penalty(trace, weights)
    u_std = bounds.standardise_unfairness(penalty)
    return all(
        abs((1.0 - lam) * r_std - lam * u_std) > KINK_MARGIN for lam in INTERIOR_LAMBDAS
    )


def draw_gradient_fixture(rng: np.random.Generator, *, affine_maps: int | None = None, max_attempts: int = 500) -> dict:
    """Sample one kink-free gradient-check problem.

    Returns the network, a training trace with its noise (the generator
    state it drew its dropout from, which oracles.replay draws again), the
    batch, overlap weights, and randomised standardisation bounds.  Raises after
    max_attempts rejections, which at these margins signals a bug rather
    than bad luck.  affine_maps fixes the depth; by default it is drawn.
    """
    for _ in range(max_attempts):
        config = _random_config(rng, affine_maps)
        params = _random_params(config, rng)
        x, labels, sensitives, propensities = _random_batch(rng, config.layer_sizes[0])
        weights = overlap_weights(propensities, sensitives)
        r_lo = float(rng.uniform(0.0, 0.3))
        u_lo = float(rng.uniform(0.0, 0.1))
        bounds = StandardisationBounds(
            risk_min=r_lo,
            risk_max=r_lo + float(rng.uniform(0.5, 2.0)),
            unfairness_min=u_lo,
            unfairness_max=u_lo + float(rng.uniform(0.5, 2.0)),
        )
        noise = rng.bit_generator.state
        trace = forward(params, config, x, MODE_TRAIN, rng=rng)
        if not _margins_ok(trace, weights):
            continue
        if not _branch_margins_ok(trace, labels, weights, bounds):
            continue
        return {
            "config": config,
            "params": params,
            "x": x,
            "labels": labels,
            "sensitives": sensitives,
            "propensities": propensities,
            "weights": weights,
            "bounds": bounds,
            "trace": trace,
            "noise": noise,
        }
    raise AssertionError("could not sample a kink-free gradient fixture")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# allocator checks

needs_mallopt = pytest.mark.skipif(
    getattr(ctypes.CDLL(None), "mallopt", None) is None, reason="the C library has no mallopt"
)


def minor_faults_of_a_second_call(setup: str, call: str) -> int:
    """Minor page faults of the second of two runs of ``call`` after ``setup``, in a fresh interpreter.

    A fresh interpreter starts at glibc's initial malloc thresholds, so the
    count shows whether ``call`` settles them before it steps.
    """
    script = "\n".join(
        [
            "import resource",
            setup,
            call,
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            call,
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        ]
    )
    src = str(Path(fairfront.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return int(run.stdout)


# ---------------------------------------------------------------------------
# acceptance verdict plumbing

_ACCEPTANCE_LINES: list[str] = []


def record_verdict(line: str):
    """Stash an acceptance verdict so the terminal summary can replay it."""
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
