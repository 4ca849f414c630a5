"""Group-disparity estimators: overlap-weighted mean contrasts and ECDF parity indices.

All estimators are plug-in statistics over finite samples and return plain
numbers: ato_estimate the contrast tau (a float, or one per outcome column),
mv_index and conditional_mv_index the index as a float.  They operate on
plain numpy arrays and know nothing about networks or training; the one
function that inspects a forward trace only reads its preactivation list.
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
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr = arr.astype(np.int64)
    if not np.isin(arr, (0, 1)).all():
        raise InputError(f"{name} must contain only 0/1 values")
    return arr


@dataclass
class OverlapWeights:
    """Per-row overlap weights and the group indicators they pair with.

    weights[i] is 1 - e_i for treated rows (a_i = 1) and e_i for control rows
    (a_i = 0), which up-weights rows whose propensity lies away from the
    row's own group and damps rows with extreme scores.  For a stack of K
    batches every array carries a leading axis of length K; group_sums holds
    the (control, treated) weight totals and degenerate flags the batches
    in which either total falls below WEIGHT_SUM_FLOOR.
    """

    weights: np.ndarray
    sensitives: np.ndarray
    group_sums: tuple[np.ndarray, np.ndarray]
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
    return OverlapWeights(weights=w, sensitives=a, group_sums=sums, degenerate=degenerate)


def contrast_coefficients(weights: OverlapWeights) -> np.ndarray:
    """Row coefficients c with c @ o equal to the overlap-weighted contrast of o.

    c_i is w_i / (treated weight total) on treated rows and -w_i / (control
    weight total) on control rows, so c @ o matches ato_estimate(o) up to
    rounding.  Degenerate batches of a stack get all-zero coefficients.
    """
    ok = ~weights.degenerate
    control, treated = (np.where(ok, s, 1.0)[..., None] for s in weights.group_sums)
    w = weights.weights
    coeff = np.where(weights.sensitives == 1, w / treated, -w / control)
    return np.where(ok[..., None], coeff, 0.0)


def ato_estimate(outcomes, weights: OverlapWeights) -> float | np.ndarray:
    """Estimate the average treatment effect on the overlap population.

    tau = sum_i a_i o_i w_i / sum_i a_i w_i - sum_i (1-a_i) o_i w_i / sum_i (1-a_i) w_i

    Parameters
    ----------
    outcomes : array of shape (n,) or (n, d)
        Observed outcomes; columns are handled independently.
    weights : OverlapWeights
        Weights aligned with the outcome rows.

    Returns
    -------
    float or array of shape (d,)
        tau: a float for an outcome vector, one contrast per column for a
        matrix.
    """
    o = np.asarray(outcomes, dtype=np.float64)
    if o.ndim not in (1, 2):
        raise ShapeError(f"outcomes must be 1- or 2-dimensional, got shape {o.shape}")
    if o.shape[0] != weights.weights.shape[0]:
        raise ShapeError(
            f"outcomes ({o.shape[0]} rows) and weights ({weights.weights.shape[0]}) differ in length"
        )
    if not np.all(np.isfinite(o)):
        raise InputError("outcomes contain non-finite entries")
    a = weights.sensitives
    w = weights.weights
    means = []
    for g in (1, 0):
        mask = a == g
        wg = w[mask]
        total = float(wg.sum())
        if total < WEIGHT_SUM_FLOOR:
            raise DegenerateGroupError(f"group {g} weight sum below {WEIGHT_SUM_FLOOR:.0e}")
        og = o[mask]
        if o.ndim == 1:
            means.append(float(np.dot(wg, og) / total))
        else:
            means.append(wg @ og / total)
    return means[0] - means[1]


def ato_hidden_penalty(
    trace: "ForwardTrace", weights: OverlapWeights, mode: str = PENALTY_PENULTIMATE
) -> tuple[float, list[np.ndarray]]:
    """Sum of absolute overlap-weighted contrasts over hidden preactivations.

    In ``penultimate`` mode only the last hidden layer's preactivations are
    penalised; in ``all_layers`` mode every hidden layer contributes.  A
    single-layer network has no hidden layers, so its penalty is zero under
    both modes.

    Returns
    -------
    (penalty, taus)
        penalty is the scalar sum of |tau| over the penalised units; taus
        holds one contrast vector per network layer (empty arrays for layers
        that are not penalised) so callers can reuse them for gradients.
    """
    if mode not in PENALTY_MODES:
        raise InputError(f"unknown penalty mode {mode!r}; expected one of {PENALTY_MODES}")
    num_layers = len(trace.preactivations)
    batch = trace.preactivations[0].shape[0] if num_layers else 0
    if batch != weights.weights.shape[0]:
        raise ShapeError(
            f"trace batch size ({batch}) and weights ({weights.weights.shape[0]}) differ"
        )
    taus: list[np.ndarray] = [np.empty(0) for _ in range(num_layers)]
    penalty = 0.0
    for idx in penalised_layers(num_layers, mode):
        taus[idx] = np.atleast_1d(ato_estimate(trace.preactivations[idx], weights))
        penalty += float(np.abs(taus[idx]).sum())
    return penalty, taus


def penalised_layers(num_layers: int, mode: str) -> list[int]:
    """Indices of the layers whose preactivations the hidden penalty reads."""
    if mode == PENALTY_PENULTIMATE:
        return [num_layers - 2] if num_layers >= 2 else []
    return list(range(num_layers - 1))


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
    for level in np.unique(u):
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
