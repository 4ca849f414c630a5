"""Fully-connected feedforward binary classifier with hand-rolled backprop.

Hidden layers are ReLU with inverted dropout; the output layer is a single
sigmoid unit clamped away from {0, 1}.  The backward pass differentiates a
Chebyshev composite of standardised risk and a hidden-layer contrast penalty,
of which plain binary cross-entropy is the lambda = 0 special case.

forward, backward_composite and backprop also accept a stack of K networks of
one architecture: weights of shape (K, fan_out, fan_in), biases (K, fan_out),
inputs (K, batch, features).  Every operation acts on each stack member alone
(per-member matrix products, elementwise arithmetic, reductions along member
rows), so a member's numbers do not depend on the other members, and an
unstacked network is the same code with the stack axis absent.

The training loops keep a network's parameters as one flat row, (P,) or (K, P)
for a stack (_flatten), read through per-layer views (_unflatten), so that
Adam updates all of them in place in one call.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError, NumericError, ShapeError
from .metrics import (
    PENALTY_MODES,
    PENALTY_PENULTIMATE,
    OverlapWeights,
    contrast_coefficients,
    penalised_layers,
)

# Output probabilities are clamped to [CLAMP, 1 - CLAMP] before the loss.
CLAMP = 1e-7
# Floor applied to standardisation spans before dividing.
SPAN_FLOOR = 1e-12

MODE_TRAIN = "train"
MODE_EVAL = "eval"

BRANCH_RISK = "risk"
BRANCH_UNFAIRNESS = "unfairness"


@dataclass
class NetworkConfig:
    """Architecture description.

    layer_sizes runs [input_dim, hidden..., 1]; the final entry must be 1.
    Activations are fixed: ReLU inside, sigmoid out.
    """

    layer_sizes: list[int]
    dropout_prob: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ConfigError("layer_sizes needs at least input and output entries")
        if any(int(m) <= 0 for m in self.layer_sizes):
            raise ConfigError(f"layer sizes must be positive, got {self.layer_sizes}")
        if self.layer_sizes[-1] != 1:
            raise ConfigError("the output layer must have exactly one unit")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ConfigError(f"dropout_prob must lie in [0, 1), got {self.dropout_prob}")
        self.layer_sizes = [int(m) for m in self.layer_sizes]

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1


@dataclass
class NetworkParams:
    """Weights and biases, one pair per affine layer.

    weights[l] has shape (fan_out, fan_in); biases[l] has shape (fan_out,).
    A stack of K networks carries a leading axis of length K on every array.
    The same container doubles as the gradient type.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def member(self, k) -> "NetworkParams":
        """Stack member k (an int), or the sub-stack selected by an index array."""
        return NetworkParams(weights=[w[k] for w in self.weights], biases=[b[k] for b in self.biases])

    def validate_finite(self):
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericError(f"layer {l} parameters contain non-finite entries")


@dataclass
class ForwardTrace:
    """Everything one pass through the network produced.

    preactivations[l] and activations[l] cover every layer; activations of
    hidden layers are post-dropout, activations[-1] is the clamped sigmoid
    output.  dropout_masks holds the scaled keep masks (0 or 1/keep) of the
    hidden layers while dropout is active (train mode, dropout_prob > 0) and
    is empty otherwise: a pass without dropout multiplies by no mask.  A
    stacked pass keeps the stack axis in front of every array.
    """

    inputs: np.ndarray
    preactivations: list[np.ndarray]
    activations: list[np.ndarray]
    dropout_masks: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        """Clamped predicted probabilities, shape (batch,) or (K, batch)."""
        return self.activations[-1][..., 0]


def init_network(config: NetworkConfig) -> NetworkParams:
    """Glorot-uniform weights, zero biases, deterministic in config.seed."""
    rng = np.random.default_rng(config.seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(config.layer_sizes[:-1], config.layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(weights=weights, biases=biases)


def forward(
    params: NetworkParams,
    config: NetworkConfig,
    inputs,
    mode: str = MODE_EVAL,
    rng: np.random.Generator | list[np.random.Generator] | None = None,
    masks: list[np.ndarray] | None = None,
    validate: bool = True,
) -> ForwardTrace:
    """Run the network (or a stack of networks) on a batch.

    In train mode each hidden activation is multiplied by an inverted dropout
    mask drawn from ``rng`` (or taken from ``masks`` when given, which lets a
    caller re-evaluate at perturbed parameters under frozen noise).  A stack
    takes one Generator per member, each drawing its member's masks.  Eval
    mode is a pure function of (params, inputs).  ``validate=False`` skips the
    input checks, for callers that validated the data once up front.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if validate:
        if x.ndim != params.weights[0].ndim:
            raise ShapeError(
                f"inputs must be {params.weights[0].ndim}-d ([stack,] batch, features), got shape {x.shape}"
            )
        if x.shape[-1] != config.layer_sizes[0]:
            raise ShapeError(
                f"inputs have {x.shape[-1]} features but the network expects {config.layer_sizes[0]}"
            )
        if x.shape[-2] == 0:
            raise InputError("empty batch")
        if not np.all(np.isfinite(x)):
            raise InputError("inputs contain non-finite entries")
    if mode not in (MODE_TRAIN, MODE_EVAL):
        raise InputError(f"unknown mode {mode!r}")
    dropout = mode == MODE_TRAIN and config.dropout_prob > 0.0
    if dropout and rng is None and masks is None:
        raise InputError("train-mode forward with dropout needs an rng or frozen masks")
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng

    L = config.num_layers
    keep = 1.0 - config.dropout_prob
    preacts: list[np.ndarray] = []
    acts: list[np.ndarray] = []
    drop: list[np.ndarray] = []
    v = x
    for l in range(L):
        h = v @ params.weights[l].swapaxes(-1, -2) + params.biases[l][..., None, :]
        preacts.append(h)
        if l < L - 1:
            v = np.maximum(h, 0.0)
            if dropout:
                if masks is not None:
                    m = masks[l]
                    if m.shape != v.shape:
                        raise ShapeError(f"frozen mask {l} has shape {m.shape}, expected {v.shape}")
                else:
                    draws = np.empty(v.shape)
                    blocks = draws.reshape(-1, *v.shape[-2:])
                    if len(rngs) != len(blocks):
                        raise InputError(f"{len(rngs)} dropout generators for a stack of {len(blocks)}")
                    for member_rng, block in zip(rngs, blocks):
                        member_rng.random(out=block)
                    m = (draws < keep) / keep
                drop.append(m)
                v = v * m
            acts.append(v)
        else:
            p = np.minimum(np.maximum(_sigmoid(h), CLAMP), 1.0 - CLAMP)
            acts.append(p)
    return ForwardTrace(inputs=x, preactivations=preacts, activations=acts, dropout_masks=drop)


def _sigmoid(h: np.ndarray) -> np.ndarray:
    # Piecewise form avoids overflow in exp for large |h|: 1 / (1 + e^-h) for
    # h >= 0 and e^h / (1 + e^h) below, both from e = exp(-|h|).
    e = np.exp(-np.abs(h))
    return np.where(h >= 0, 1.0, e) / (1.0 + e)


def bce_loss(scores, labels) -> float:
    """Mean negated Bernoulli log-likelihood of ``labels`` under ``scores``."""
    p = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise ShapeError(f"scores {p.shape} and labels {y.shape} must be equal-length vectors")
    if p.size == 0:
        raise InputError("empty batch")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise InputError("scores must lie strictly inside (0, 1)")
    return float(_bce(p, y))


def _bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Unchecked mean BCE along the last axis, one value per stack member.
    return -np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p), axis=-1)


@dataclass
class StandardisationBounds:
    """Risk and unfairness ranges observed during the endpoint runs.

    Spans are floored at 1e-12 when used as denominators.  Values outside the
    recorded ranges simply standardise outside [0, 1].
    """

    risk_min: float
    risk_max: float
    unfairness_min: float
    unfairness_max: float

    def __post_init__(self):
        vals = (self.risk_min, self.risk_max, self.unfairness_min, self.unfairness_max)
        if not all(np.isfinite(v) for v in vals):
            raise NumericError(f"non-finite standardisation bounds {vals}")
        if self.risk_max < self.risk_min or self.unfairness_max < self.unfairness_min:
            raise NumericError(f"inverted standardisation bounds {vals}")

    @property
    def risk_span(self) -> float:
        return max(self.risk_max - self.risk_min, SPAN_FLOOR)

    @property
    def unfairness_span(self) -> float:
        return max(self.unfairness_max - self.unfairness_min, SPAN_FLOOR)

    def standardise_risk(self, r: float) -> float:
        return (r - self.risk_min) / self.risk_span

    def standardise_unfairness(self, u: float) -> float:
        return (u - self.unfairness_min) / self.unfairness_span


IDENTITY_BOUNDS = StandardisationBounds(0.0, 1.0, 0.0, 1.0)


class BackwardResult(NamedTuple):
    """Gradients plus the batch risk, penalty and active branch.

    For a stack, risk and unfairness are (K,) arrays and active_branch is a
    (K,) array of branch names.
    """

    gradients: NetworkParams
    risk: float | np.ndarray
    unfairness: float | np.ndarray
    active_branch: str | np.ndarray


def backward_composite(
    trace: ForwardTrace,
    params: NetworkParams,
    config: NetworkConfig,
    labels,
    weights: OverlapWeights | None,
    lambda_,
    bounds: StandardisationBounds | None = None,
    penalty_mode: str = PENALTY_PENULTIMATE,
) -> BackwardResult:
    """Gradient of max{(1-lambda) * R~, lambda * U~} for one traced batch.

    R~ and U~ are the batch risk and hidden-layer penalty standardised by
    ``bounds`` (identity when None).  Exactly one branch of the max is active
    per network; its gradient is what backprop propagates, reusing the trace's
    dropout masks.  Ties go to the risk branch, and lambda = 0 / lambda = 1
    deterministically select risk / unfairness so the endpoints degenerate to
    pure BCE and pure penalty training.  When ``weights`` is None, or marks a
    stack member's batch as degenerate, the penalty is undefined for that
    batch and the risk branch is forced (unfairness comes back as nan).  A
    stack takes one lambda per member.
    """
    lam = np.asarray(lambda_, dtype=np.float64)
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ConfigError(f"lambda must lie in [0, 1], got {lambda_}")
    if penalty_mode not in PENALTY_MODES:
        raise ConfigError(f"unknown penalty mode {penalty_mode!r}")
    if bounds is None:
        bounds = IDENTITY_BOUNDS
    y = np.asarray(labels, dtype=np.float64)
    p = trace.output
    if y.shape != p.shape:
        raise ShapeError(f"labels {y.shape} do not match the traced batch ({p.shape})")
    batch = y.shape[-1]

    risk = _bce(p, y)
    penalised = lam > 0.0
    if weights is None:
        penalised = np.zeros_like(penalised)
    else:
        penalised = penalised & ~weights.degenerate
    L = config.num_layers
    taus: dict[int, np.ndarray] = {}
    unfairness = np.full(lam.shape, np.nan)
    risk_branch = ~penalised
    if penalised.any():
        # tau = coeff @ h is the overlap-weighted contrast of each unit's preactivation.
        coeff = contrast_coefficients(weights)
        penalty = np.zeros(lam.shape)
        for l in penalised_layers(L, penalty_mode):
            taus[l] = (coeff[..., None, :] @ trace.preactivations[l])[..., 0, :]
            penalty = penalty + np.abs(taus[l]).sum(axis=-1)
        unfairness = np.where(penalised, penalty, np.nan)
        r_tilde = bounds.standardise_risk(risk)
        u_tilde = bounds.standardise_unfairness(unfairness)
        risk_branch |= (lam < 1.0) & ((1.0 - lam) * r_tilde >= lam * u_tilde)

    deltas: list[np.ndarray | None] = [None] * L
    if risk_branch.any():
        # Multiplying by scale after the division keeps the lambda = 0 /
        # identity-bounds path bit-identical to plain BCE backprop (x * 1.0
        # is exact); d/dh of mean BCE through the sigmoid is (p - y) / batch.
        scale = np.where(risk_branch, (1.0 - lam) / bounds.risk_span, 0.0)
        # the clamp passes gradient only where it left the sigmoid untouched
        unclamped = (p > CLAMP) & (p < 1.0 - CLAMP)
        deltas[L - 1] = (np.where(unclamped, p - y, 0.0) / batch * scale[..., None])[..., None]
    if not risk_branch.all():
        scale = np.where(risk_branch, 0.0, lam / bounds.unfairness_span)
        scaled = (coeff * scale[..., None])[..., :, None]
        for l, tau in taus.items():
            deltas[l] = scaled * np.sign(tau)[..., None, :]

    grads, _ = backprop(params, config, trace, deltas)
    if lam.ndim == 0:
        branch = BRANCH_RISK if risk_branch else BRANCH_UNFAIRNESS
        return BackwardResult(grads, float(risk), float(unfairness), branch)
    branch = np.where(risk_branch, BRANCH_RISK, BRANCH_UNFAIRNESS)
    return BackwardResult(grads, risk, unfairness, branch)


def backprop(
    params: NetworkParams,
    config: NetworkConfig,
    trace: ForwardTrace,
    preact_deltas: list[np.ndarray | None],
) -> tuple[NetworkParams, np.ndarray]:
    """Propagate per-layer preactivation deltas down to parameter and input gradients.

    preact_deltas[l] is dJ/dh^(l) contributed directly at layer l (None for
    no contribution); contributions flowing down from above are added through
    the stored dropout masks (if the trace has any) and the ReLU gates.
    Returns (gradients, dJ/dX).
    """
    L = config.num_layers
    if len(preact_deltas) != L:
        raise ShapeError(f"expected {L} delta slots, got {len(preact_deltas)}")
    grad_w: list[np.ndarray | None] = [None] * L
    grad_b: list[np.ndarray | None] = [None] * L
    delta = None
    for l in range(L - 1, -1, -1):
        if delta is None:
            d = np.zeros_like(trace.preactivations[l])
        else:
            d = delta @ params.weights[l + 1]
            if trace.dropout_masks:
                d *= trace.dropout_masks[l]
            d *= trace.preactivations[l] > 0.0
        if preact_deltas[l] is not None:
            d = d + preact_deltas[l]
        below = trace.inputs if l == 0 else trace.activations[l - 1]
        grad_w[l] = d.swapaxes(-1, -2) @ below
        grad_b[l] = d.sum(axis=-2)
        delta = d
    return NetworkParams(weights=grad_w, biases=grad_b), delta @ params.weights[0]


def _flatten(params: NetworkParams) -> np.ndarray:
    # every array of a network side by side in one row: (P,), or (K, P) for a stack
    lead = params.biases[0].shape[:-1]
    return np.concatenate([a.reshape(*lead, -1) for a in (*params.weights, *params.biases)], axis=-1)


def _unflatten(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> NetworkParams:
    # per-layer views of a (P,) or (K, P) row, shapes being one network's array shapes
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[..., start : start + size].reshape(flat.shape[:-1] + shape))
        start += size
    half = len(shapes) // 2
    return NetworkParams(weights=views[:half], biases=views[half:])


def save_model(path, params: NetworkParams, config: NetworkConfig, temperature: float | None = None):
    """Write the model as a JSON document; floats round-trip bit-exactly."""
    doc = {
        "layer_sizes": config.layer_sizes,
        "dropout_prob": config.dropout_prob,
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }
    if temperature is not None:
        doc["temperature"] = temperature
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> tuple[NetworkParams, NetworkConfig, float | None]:
    """Inverse of save_model. Returns (params, config, temperature-or-None)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("layer_sizes", "dropout_prob", "weights", "biases"):
        if key not in doc:
            raise ConfigError(f"model document {path} lacks field {key!r}")
    config = NetworkConfig(layer_sizes=list(doc["layer_sizes"]), dropout_prob=float(doc["dropout_prob"]))
    params = NetworkParams(
        weights=[np.asarray(w, dtype=np.float64) for w in doc["weights"]],
        biases=[np.asarray(b, dtype=np.float64) for b in doc["biases"]],
    )
    if len(params.weights) != config.num_layers:
        raise ConfigError(f"model document {path} has inconsistent layer counts")
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        expect = (config.layer_sizes[l + 1], config.layer_sizes[l])
        if w.shape != expect or b.shape != (expect[0],):
            raise ConfigError(f"model document {path}: layer {l} shapes do not match layer_sizes")
    params.validate_finite()
    temp = doc.get("temperature")
    return params, config, None if temp is None else float(temp)
