"""Group-disparity estimators: overlap-weighted mean contrasts and ECDF parity indices.

All estimators are plug-in statistics over finite samples on plain numpy
arrays: ato_estimate returns the contrast tau (a float, or one per outcome
column), mv_index and conditional_mv_index the index as a float.  The contrast
is OverlapWeights.coefficients @ x, for outcomes in ato_estimate (u_ato) and
for hidden preactivations in ato_hidden_penalty, which training descends.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DegenerateGroupError, InputError, ShapeError

if TYPE_CHECKING:
    from .network import ForwardTrace

# Group-sum guard: weighted group totals below this are treated as degenerate.
WEIGHT_SUM_FLOOR = 1e-12

PENALTY_PENULTIMATE = "penultimate"
PENALTY_ALL_LAYERS = "all_layers"
PENALTY_MODES = (PENALTY_PENULTIMATE, PENALTY_ALL_LAYERS)


def _as_1d_float(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InputError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


def _as_binary(x, name: str) -> np.ndarray:
    """x as a 1-d int64 array of group indicators; the one 0/1 check of every entry point."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    # Check before casting: a cast to int would read 0.9 as group 0.
    if not np.isin(arr, (0, 1)).all():
        raise InputError(f"{name} must contain only 0/1 values")
    return arr.astype(np.int64, copy=False)


@dataclass
class OverlapWeights:
    """Per-row overlap weights and the contrast coefficients built from them.

    weights[i] is 1 - e_i for treated rows (a_i = 1) and e_i for control rows
    (a_i = 0), which up-weights rows whose propensity lies away from the
    row's own group and damps rows with extreme scores.  coefficients[i] is
    w_i over its group's weight total, negated on control rows, so
    coefficients @ o is the overlap-weighted contrast of o, the only form in
    which ato_estimate and ato_hidden_penalty compute it.  For a stack of K
    batches every array carries a leading axis of length K; degenerate flags
    the batches in which either total falls below WEIGHT_SUM_FLOOR, whose
    coefficients are zero.
    """

    weights: np.ndarray
    coefficients: np.ndarray
    degenerate: np.ndarray


def overlap_weights(propensities, sensitives, *, validate: bool = True) -> OverlapWeights:
    """Build overlap weights w_i = a_i (1 - e_i) + (1 - a_i) e_i.

    Parameters
    ----------
    propensities : array of shape (n,)
        Estimated P(a=1 | x), strictly inside (0, 1).
    sensitives : array of shape (n,)
        Binary group indicators.
    validate : bool
        Check shapes and values.  A caller that validated the whole data set
        once may pass False, and may then also pass (K, n) stacks of batches.

    Returns
    -------
    OverlapWeights

    Raises
    ------
    InputError
        If a propensity lies outside the open interval (0, 1).
    DegenerateGroupError
        If either group of a single batch is absent or its weight sum falls
        below 1e-12.  A stack of batches reports such batches in
        ``degenerate`` instead.
    """
    if validate:
        e = _as_1d_float(propensities, "propensities")
        a = _as_binary(sensitives, "sensitives")
        if e.shape[0] != a.shape[0]:
            raise ShapeError(
                f"propensities ({e.shape[0]}) and sensitives ({a.shape[0]}) differ in length"
            )
        if np.any(e <= 0.0) or np.any(e >= 1.0):
            raise InputError("propensities must lie strictly inside (0, 1)")
    else:
        e, a = propensities, sensitives
    treated = a == 1
    w = np.where(treated, 1.0 - e, e)
    sums = (np.where(treated, 0.0, w).sum(axis=-1), np.where(treated, w, 0.0).sum(axis=-1))
    degenerate = (sums[0] < WEIGHT_SUM_FLOOR) | (sums[1] < WEIGHT_SUM_FLOOR)
    if w.ndim == 1 and degenerate:
        g = 0 if sums[0] < WEIGHT_SUM_FLOOR else 1
        raise DegenerateGroupError(
            f"group {g} has overlap-weight sum {float(sums[g]):.3e} (< {WEIGHT_SUM_FLOOR:.0e})"
        )
    # A degenerate stack member divides by 1 instead of its tiny total, then gets zeros.
    ok = ~degenerate
    control_sum, treated_sum = (np.where(ok, s, 1.0)[..., None] for s in sums)
    coeff = np.where(ok[..., None], np.where(treated, w / treated_sum, -w / control_sum), 0.0)
    return OverlapWeights(weights=w, coefficients=coeff, degenerate=degenerate)


def ato_estimate(outcomes, weights: OverlapWeights) -> float | np.ndarray:
    """Estimate the average treatment effect on the overlap population.

    tau = weights.coefficients @ outcomes, which is
    sum_i a_i o_i w_i / sum_i a_i w_i - sum_i (1-a_i) o_i w_i / sum_i (1-a_i) w_i.

    Parameters
    ----------
    outcomes : array of shape (n,) or (n, d)
        Observed outcomes; columns are handled independently.
    weights : OverlapWeights
        Weights of one batch aligned with the outcome rows, else ShapeError.

    Returns
    -------
    float or array of shape (d,)
        tau: a float for an outcome vector, one contrast per column for a
        matrix.
    """
    o = np.asarray(outcomes, dtype=np.float64)
    if o.ndim not in (1, 2):
        raise ShapeError(f"outcomes must be 1- or 2-dimensional, got shape {o.shape}")
    if weights.coefficients.shape != o.shape[:1]:
        raise ShapeError(f"outcomes {o.shape} and weights {weights.coefficients.shape} do not align")
    if not np.all(np.isfinite(o)):
        raise InputError("outcomes contain non-finite entries")
    tau = weights.coefficients @ o
    return float(tau) if o.ndim == 1 else tau


def ato_hidden_penalty(
    trace: "ForwardTrace", weights: OverlapWeights, mode: str = PENALTY_PENULTIMATE
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sum of absolute overlap-weighted contrasts over hidden preactivations.

    Each unit's contrast is tau = weights.coefficients @ h over its
    preactivations h.  In ``penultimate`` mode only the last hidden layer is
    penalised; in ``all_layers`` mode every hidden layer contributes; another
    mode raises ConfigError.  A single-layer network has no hidden layers, so
    its penalty is zero.  A stack of K traces with (K, batch) weights gives
    each member its own penalty, zero for a degenerate batch.  Training
    descends this penalty (network.backward_composite).

    Returns
    -------
    (penalty, taus)
        penalty, of shape () or (K,), is the sum of |tau| over the penalised
        units; taus holds one contrast array per network layer (empty for
        layers that are not penalised) so callers can reuse them for gradients.
    """
    rows = trace.preactivations[0].shape[:-1]
    if rows != weights.weights.shape:
        raise ShapeError(f"trace batch shape {rows} and weights shape {weights.weights.shape} differ")
    taus: list[np.ndarray] = [np.empty(0) for _ in trace.preactivations]
    penalty = np.zeros(rows[:-1])
    coeff = weights.coefficients[..., None, :]
    for l in penalised_layers(len(taus), mode):
        taus[l] = (coeff @ trace.preactivations[l])[..., 0, :]
        penalty = penalty + np.abs(taus[l]).sum(axis=-1)
    return penalty, taus


def penalised_layers(num_layers: int, mode: str) -> list[int]:
    """Indices of the layers whose preactivations the hidden penalty reads."""
    if mode == PENALTY_PENULTIMATE:
        return [num_layers - 2] if num_layers >= 2 else []
    if mode == PENALTY_ALL_LAYERS:
        return list(range(num_layers - 1))
    raise ConfigError(f"unknown penalty mode {mode!r}; expected one of {PENALTY_MODES}")


def mv_index(scores, groups) -> float:
    """Plug-in index sum_r P(Z=z_r) * mean_i [F_r(S_i) - F(S_i)]^2.

    ECDFs are right-closed (P(S <= s)) and evaluated at the pooled sample
    points, so the outer mean integrates against the pooled empirical
    distribution.  Groups may take any number of discrete levels.

    Parameters
    ----------
    scores : array of shape (n,)
        Real-valued scores (for classifiers, predicted probabilities).
    groups : array of shape (n,)
        Discrete group labels; every level present counts.

    Returns
    -------
    float
        The index: each level's inner mean square, weighted by the level's
        probability and summed.
    """
    s = _as_1d_float(scores, "scores")
    z = np.asarray(groups)
    if z.ndim != 1:
        raise ShapeError(f"groups must be one-dimensional, got shape {z.shape}")
    if z.shape[0] != s.shape[0]:
        raise ShapeError(f"scores ({s.shape[0]}) and groups ({z.shape[0]}) differ in length")
    n = s.shape[0]
    order = np.sort(s)
    # F(S_i) for all i at once: right-closed counts via searchsorted on the pooled sort.
    pooled_cdf = np.searchsorted(order, s, side="right") / n
    _, inverse, counts = np.unique(z, return_inverse=True, return_counts=True)
    probs = counts / n
    terms = np.empty(counts.shape[0])
    for r in range(counts.shape[0]):
        group_sorted = np.sort(s[inverse == r])
        group_cdf = np.searchsorted(group_sorted, s, side="right") / counts[r]
        diff = group_cdf - pooled_cdf
        terms[r] = float(np.mean(diff * diff))
    return float(np.dot(probs, terms))


def conditional_mv_index(scores, groups, strata) -> float:
    """Worst-stratum MV index: max_k of the index computed within stratum k.

    Strata with fewer than two distinct group levels cannot exhibit a
    between-group discrepancy; they are skipped with a warning and contribute
    zero.  Raises DegenerateGroupError when every stratum is skipped.
    """
    s = _as_1d_float(scores, "scores")
    z = np.asarray(groups)
    u = np.asarray(strata)
    if z.shape != s.shape or u.shape != s.shape:
        raise ShapeError(
            f"scores {s.shape}, groups {z.shape} and strata {u.shape} must share one length"
        )
    values = []
    skipped = []
    for level in np.unique(u).tolist():
        mask = u == level
        if np.unique(z[mask]).shape[0] < 2:
            skipped.append(level)
            continue
        values.append(mv_index(s[mask], z[mask]))
    if skipped:
        warnings.warn(
            f"strata {skipped} lack two group levels and were skipped", UserWarning, stacklevel=2
        )
    if not values:
        raise DegenerateGroupError("every stratum lacks two group levels")
    return max(values)
