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

from .errors import DegenerateGroupError, InputError, ShapeError

if TYPE_CHECKING:
    from .network import ForwardTrace

# Group-sum guard: weighted group totals below this are treated as degenerate.
WEIGHT_SUM_FLOOR = 1e-12


def _as_1d_float(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InputError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


def _as_vector(x, name: str, n: int, dtype=None) -> np.ndarray:
    """x as a 1-d array of n entries; the one length check of every row argument but the features."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] != n:
        raise ShapeError(f"{name} has {arr.shape[0]} entries, but the row count is {n}")
    return arr


def _as_binary(x, name: str, n: int) -> np.ndarray:
    """x as n 0/1 values in a 1-d int64 array; the one check of every group or label vector."""
    arr = _as_vector(x, name, n)
    # Check before casting: a cast to int would read 0.9 as 0.
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


def _as_propensities(x, name: str, n: int) -> np.ndarray:
    """x as n float64 values strictly inside (0, 1); the one check of every propensity vector."""
    e = _as_vector(x, name, n, np.float64)
    if not np.all((e > 0.0) & (e < 1.0)):
        raise InputError(f"{name} must lie strictly inside (0, 1)")
    return e


def overlap_weights(propensities, sensitives) -> OverlapWeights:
    """Build overlap weights w_i = a_i (1 - e_i) + (1 - a_i) e_i.

    Nothing is checked: the entry points check their rows once (_as_binary, _as_propensities).

    Parameters
    ----------
    propensities : array of shape (n,) or (K, n)
        Estimated P(a=1 | x), strictly inside (0, 1).
    sensitives : array of the same shape
        Binary group indicators.

    Returns
    -------
    OverlapWeights

    Raises
    ------
    DegenerateGroupError
        If either group of a single (n,) batch is absent or its weight sum
        falls below 1e-12.  A stack of batches reports such batches in
        ``degenerate`` instead.
    """
    treated = sensitives == 1
    w = np.where(treated, 1.0 - propensities, propensities)
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


def ato_hidden_penalty(trace: "ForwardTrace", weights: OverlapWeights) -> tuple[np.ndarray, np.ndarray | None]:
    """Sum of absolute overlap-weighted contrasts over the last hidden layer's preactivations.

    Each unit's contrast is tau = weights.coefficients @ h over its
    preactivations h.  A single-layer network has no hidden layer, so its
    penalty is zero.  A stack of K traces with (K, batch) weights gives each
    member its own penalty, zero for a degenerate batch.  Training descends
    this penalty (network.backward_composite).

    Returns
    -------
    (penalty, tau)
        penalty, of shape () or (K,), is the sum of |tau| over the layer's
        units; tau holds their contrasts, (units,) or (K, units), so callers
        can reuse them for gradients, and is None without a hidden layer.
    """
    rows = trace.preactivations[0].shape[:-1]
    if rows != weights.weights.shape:
        raise ShapeError(f"trace batch shape {rows} and weights shape {weights.weights.shape} differ")
    if len(trace.preactivations) < 2:
        return np.zeros(rows[:-1]), None
    tau = (weights.coefficients[..., None, :] @ trace.preactivations[-2])[..., 0, :]
    return np.abs(tau).sum(axis=-1), tau


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
    n = s.shape[0]
    z = _as_vector(groups, "groups", n)
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
    z, u = _as_vector(groups, "groups", s.shape[0]), _as_vector(strata, "strata", s.shape[0])
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
