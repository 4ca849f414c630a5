"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
Python loops, O(n^2) ECDF evaluation, central finite differences) so that
agreement with the library is evidence of correctness rather than of shared
code.  Nothing in this module imports the estimator internals; only the
forward pass and parameter containers are reused, since the gradient oracle
must differentiate the very function the library evaluates.
"""
from __future__ import annotations

import math

import numpy as np

from fairfront.network import (
    MODE_TRAIN,
    NetworkParams,
    bce_loss,
    forward,
)
from fairfront.optim import AdamState, adam_step


# ---------------------------------------------------------------------------
# causal estimator


def bf_overlap_weights(propensities, sensitives):
    return [
        (1.0 - e) if a == 1 else e
        for e, a in zip(propensities, sensitives)
    ]


def bf_ato(outcomes, sensitives, propensities) -> float:
    """Weighted group-mean difference, directly from the defining ratio."""
    w = bf_overlap_weights(propensities, sensitives)
    num1 = den1 = num0 = den0 = 0.0
    for o, a, wi in zip(outcomes, sensitives, w):
        if a == 1:
            num1 += wi * o
            den1 += wi
        else:
            num0 += wi * o
            den0 += wi
    return num1 / den1 - num0 / den0


def bf_ato_penalty(trace, sensitives, propensities) -> float:
    """Sum of |tau| over the units of the last hidden layer's pre-activations; 0 without one."""
    if len(trace.preactivations) < 2:
        return 0.0
    h = trace.preactivations[-2]
    total = 0.0
    for j in range(h.shape[1]):
        total += abs(bf_ato(h[:, j], sensitives, propensities))
    return total


# ---------------------------------------------------------------------------
# mean-variance index


def _ecdf(sample, t) -> float:
    # right-closed: F(t) = P(S <= t)
    return sum(1 for s in sample if s <= t) / len(sample)


def bf_mv(scores, groups) -> float:
    scores = list(scores)
    groups = list(groups)
    n = len(scores)
    levels = sorted(set(groups))
    total = 0.0
    for level in levels:
        member = [s for s, g in zip(scores, groups) if g == level]
        p_level = len(member) / n
        term = 0.0
        for s in scores:
            term += (_ecdf(member, s) - _ecdf(scores, s)) ** 2
        total += p_level * (term / n)
    return total


def bf_conditional_mv(scores, groups, strata):
    """Max of the within-stratum MV over strata with two group levels.

    Returns None when every stratum is degenerate, mirroring the library's
    refusal to produce a number there.
    """
    best = None
    for k in sorted(set(strata)):
        rows = [i for i, s in enumerate(strata) if s == k]
        g = [groups[i] for i in rows]
        if len(set(g)) < 2:
            continue
        value = bf_mv([scores[i] for i in rows], g)
        if best is None or value > best:
            best = value
    return best


# ---------------------------------------------------------------------------
# non-dominated culling


def bf_nondominated(risks, unfairness) -> np.ndarray:
    r = list(map(float, risks))
    u = list(map(float, unfairness))
    n = len(r)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if r[j] <= r[i] and u[j] <= u[i] and (r[j] < r[i] or u[j] < u[i]):
                keep[i] = False
                break
    return keep


# ---------------------------------------------------------------------------
# finite-difference gradients


def fd_gradient(objective, params: NetworkParams, step: float = 1e-5) -> NetworkParams:
    """Central finite differences of a scalar objective over every entry."""

    def perturbed(arrays, l, idx, delta):
        out = [a.copy() for a in arrays]
        out[l][idx] += delta
        return out

    grad_w = []
    grad_b = []
    for l in range(len(params.weights)):
        gw = np.zeros_like(params.weights[l])
        for idx in np.ndindex(params.weights[l].shape):
            up = NetworkParams(perturbed(params.weights, l, idx, step), [b.copy() for b in params.biases])
            dn = NetworkParams(perturbed(params.weights, l, idx, -step), [b.copy() for b in params.biases])
            gw[idx] = (objective(up) - objective(dn)) / (2.0 * step)
        grad_w.append(gw)
        gb = np.zeros_like(params.biases[l])
        for idx in np.ndindex(params.biases[l].shape):
            up = NetworkParams([w.copy() for w in params.weights], perturbed(params.biases, l, idx, step))
            dn = NetworkParams([w.copy() for w in params.weights], perturbed(params.biases, l, idx, -step))
            gb[idx] = (objective(up) - objective(dn)) / (2.0 * step)
        grad_b.append(gb)
    return NetworkParams(grad_w, grad_b)


def max_relative_error(analytic: NetworkParams, numeric: NetworkParams, floor: float = 1e-4) -> float:
    worst = 0.0
    for ga, gf in zip(analytic.weights + analytic.biases, numeric.weights + numeric.biases):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gf)), floor)
        worst = max(worst, float(np.max(np.abs(ga - gf) / denom)))
    return worst


# ---------------------------------------------------------------------------
# dropout noise and backprop through frozen masks


def replay(state) -> np.random.Generator:
    """A new Generator in a saved ``bit_generator.state``: it draws what the saved Generator drew next."""
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def bf_dropout_masks(config, rows: int, noise) -> list[np.ndarray] | None:
    """The scaled keep masks (0 or 1/keep) of one network's train pass over rows, redrawn from its saved noise.

    The pass draws one uniform (rows, width) block per hidden layer, bottom
    up.  None when the network has no dropout.
    """
    if config.dropout_prob == 0.0:
        return None
    keep = 1.0 - config.dropout_prob
    rng = replay(noise)
    return [(rng.random((rows, width)) < keep) / keep for width in config.layer_sizes[1:-1]]


def bf_backprop(params: NetworkParams, inputs, preactivations, masks, preact_deltas):
    """One network's gradients and layer-0 delta, stepping down through frozen dropout masks.

    The step down to hidden layer l is ((delta @ W[l+1]) * masks[l]) * [h[l] > 0],
    without the mask factor when masks is None, and the activations below a
    layer are rebuilt as max(h, 0) * mask.  A layer that nothing reaches gets
    zero gradients.  Returns (gradients, dJ/dh^(0) or None).
    """
    L = len(params.weights)
    grad_w, grad_b = [], []
    delta = None
    for l in range(L - 1, -1, -1):
        d = preact_deltas[l]
        if delta is not None:
            down = delta @ params.weights[l + 1]
            if masks is not None:
                down = down * masks[l]
            down = down * (preactivations[l] > 0.0)
            d = down if d is None else down + d
        if l == 0:
            below = inputs
        else:
            below = np.maximum(preactivations[l - 1], 0.0)
            if masks is not None:
                below = below * masks[l - 1]
        if d is None:
            grad_w.insert(0, np.zeros_like(params.weights[l]))
            grad_b.insert(0, np.zeros_like(params.biases[l]))
        else:
            grad_w.insert(0, d.T @ below)
            grad_b.insert(0, d.sum(axis=0))
        delta = d
    return NetworkParams(grad_w, grad_b), delta


# ---------------------------------------------------------------------------
# objective definitions the gradients are checked against


def composite_objective(params, config, x, y, sensitives, propensities, lambda_, bounds, noise):
    """Scalarised objective exactly as the trainer's branch rules define it, under the replayed dropout noise."""
    trace = forward(params, config, x, MODE_TRAIN, rng=replay(noise))
    r_std = bounds.standardise_risk(bce_loss(trace.output, y))
    if lambda_ == 0.0:
        return (1.0 - lambda_) * r_std
    u_std = bounds.standardise_unfairness(bf_ato_penalty(trace, sensitives, propensities))
    if lambda_ == 1.0:
        return u_std
    return max((1.0 - lambda_) * r_std, lambda_ * u_std)


def adversarial_objective(clf_params, clf_config, adv_params, adv_config, x, y, a, lambda_, noise):
    trace = forward(clf_params, clf_config, x, MODE_TRAIN, rng=replay(noise))
    value = bce_loss(trace.output, y)
    if lambda_ > 0.0:
        scores = trace.output[:, None]
        q = forward(adv_params, adv_config, scores).output
        value -= lambda_ * bce_loss(q, a)
    return value


# ---------------------------------------------------------------------------
# golden-section / calibration helper


class LayerAdam:
    """Adam over a network's per-layer arrays, one AdamState per array.

    Adam acts elementwise, so this steps every parameter as the training
    loops' single flat-row update does.  ``learning_rate`` is the rate of the
    next step, for a reference loop's own plateau scheduler to cut.
    """

    def __init__(self, params: NetworkParams, learning_rate: float):
        self.learning_rate = learning_rate
        self.states = [AdamState(np.zeros_like(a), np.zeros_like(a)) for a in (*params.weights, *params.biases)]

    def step(self, params: NetworkParams, grads: NetworkParams):
        arrays = zip(self.states, (*params.weights, *params.biases), (*grads.weights, *grads.biases))
        for state, p, g in arrays:
            state.learning_rate = self.learning_rate
            adam_step(state, p, g)


def bf_temperature_grid(logits, targets, num=20001, lo=0.05, hi=20.0) -> float:
    """Dense log-grid search for the best temperature; slow but assumption-free."""
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), num))
    best_t, best_nll = 1.0, math.inf
    for t in grid:
        p = 1.0 / (1.0 + np.exp(-logits / t))
        p = np.clip(p, 1e-7, 1.0 - 1e-7)
        nll = float(-np.mean(targets * np.log(p) + (1 - targets) * np.log(1 - p)))
        if nll < best_nll:
            best_t, best_nll = float(t), nll
    return best_t
