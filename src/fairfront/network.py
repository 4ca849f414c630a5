"""Fully-connected feedforward binary classifier with hand-rolled backprop.

Hidden layers are ReLU with inverted dropout; the output layer is a single
sigmoid unit clamped away from {0, 1} (clamped_sigmoid).  The backward pass
differentiates a Chebyshev composite of standardised risk and a contrast
penalty on the last hidden layer (plain binary cross-entropy at lambda = 0),
and returns its value; the composite's rule is chebyshev_weights alone.
A trace keeps no dropout mask: backprop gates each hidden unit on its post-dropout activation.

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
from dataclasses import astuple, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DROPOUT, POSITIVE, SEED, ConfigError, InputError, NumericError, ShapeError, at_least, check_fields, check_value,
    open_input,
)
from .metrics import OverlapWeights, ato_hidden_penalty

# Output probabilities are clamped to [CLAMP, 1 - CLAMP] before the loss.
CLAMP = 1e-7
# Floor applied to standardisation spans before dividing.
SPAN_FLOOR = 1e-12

MODE_TRAIN = "train"
MODE_EVAL = "eval"

# Eval-mode scoring of a whole row set runs forward over blocks of this many
# rows (row_blocks), so only one block's trace is live at a time.  A power of
# two keeps the blocked output bitwise equal to one pass over every row: an
# odd block size moves rows onto OpenBLAS's edge kernels, which round some
# products differently (4097 changed 1-3 rows of 20,000 by up to 2.2e-16).
SCORE_BLOCK_ROWS = 4096


@dataclass
class NetworkConfig:
    """Architecture description, and nothing else: a network's seeds are inputs of its fit.

    layer_sizes runs [input_dim, hidden..., 1]; the final entry must be 1.
    Activations are fixed: ReLU inside, sigmoid out.
    """

    layer_sizes: list[int]
    dropout_prob: float = field(default=0.2, metadata=DROPOUT)

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.layer_sizes, (list, tuple)) or len(self.layer_sizes) < 2:
            raise ConfigError(f"layer_sizes must list the input and output sizes at least, got {self.layer_sizes!r}")
        self.layer_sizes = [check_value(f"layer_sizes[{i}]", m, **at_least(1)) for i, m in enumerate(self.layer_sizes)]
        if self.layer_sizes[-1] != 1:
            raise ConfigError("the output layer must have exactly one unit")

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


@dataclass
class ForwardTrace:
    """Everything one pass through the network produced.

    preactivations[l] and activations[l] cover every layer; activations of
    hidden layers are post-dropout, activations[-1] is the clamped sigmoid
    output.  keep is the keep probability of the pass's dropout, 1.0 when
    the pass drew none (eval mode, or dropout_prob = 0); no mask is kept.
    A stacked pass keeps the stack axis in front of every array.
    """

    inputs: np.ndarray
    preactivations: list[np.ndarray]
    activations: list[np.ndarray]
    keep: float

    @property
    def output(self) -> np.ndarray:
        """Clamped predicted probabilities, shape (batch,) or (K, batch)."""
        return self.activations[-1][..., 0]


def init_network(config: NetworkConfig, seed: int) -> NetworkParams:
    """Glorot-uniform weights, zero biases, deterministic in seed (an integer >= 0)."""
    rng = np.random.default_rng(check_value("seed", seed, **SEED))
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
) -> ForwardTrace:
    """Run the network (or a stack of networks) on a batch.

    In train mode each hidden activation is multiplied by an inverted dropout
    mask drawn from ``rng``; a stack takes one Generator per member, each
    drawing its member's masks, and a Generator in the same state replays
    the same noise.  Eval mode is a pure function of (params, inputs).  The
    rows are not checked (the entry points check them once, with
    _validated_features); the mode and the noise source are.

    Every array the trace holds is new except ``inputs`` (the caller's array
    when it is already float64).  The pass adds biases, builds masks and
    applies them in place, but only on arrays it created itself: params and
    inputs are never written.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if mode not in (MODE_TRAIN, MODE_EVAL):
        raise InputError(f"unknown mode {mode!r}")
    dropout = mode == MODE_TRAIN and config.dropout_prob > 0.0
    if dropout and rng is None:
        raise InputError("train-mode forward with dropout needs an rng")
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng

    L = config.num_layers
    keep = 1.0 - config.dropout_prob if dropout else 1.0
    preacts: list[np.ndarray] = []
    acts: list[np.ndarray] = []
    v = x
    for l in range(L):
        # matmul is faster on a contiguous copy of W^T than on the transposed view, with equal bits
        h = _matmul(v, np.ascontiguousarray(params.weights[l].swapaxes(-1, -2)))
        h += params.biases[l][..., None, :]
        preacts.append(h)
        if l < L - 1:
            v = np.maximum(h, 0.0)
            if dropout:
                # the mask overwrites its uniform draws: 1.0 where a draw is below keep, then / keep
                m = np.empty(v.shape)
                blocks = m.reshape(-1, *v.shape[-2:])
                if len(rngs) != len(blocks):
                    raise InputError(f"{len(rngs)} dropout generators for a stack of {len(blocks)}")
                for member_rng, block in zip(rngs, blocks):
                    member_rng.random(out=block)
                np.less(m, keep, out=m)
                m /= keep
                v *= m
            acts.append(v)
        else:
            acts.append(clamped_sigmoid(h))
    return ForwardTrace(inputs=x, preactivations=preacts, activations=acts, keep=keep)


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices of SCORE_BLOCK_ROWS rows, the last possibly shorter, that cover n rows.

    A scoring site concatenates forward's output column over these blocks
    instead of keeping one trace of all n rows.
    """
    return [slice(start, min(start + SCORE_BLOCK_ROWS, n)) for start in range(0, n, SCORE_BLOCK_ROWS)]


def _sigmoid(h: np.ndarray) -> np.ndarray:
    # Piecewise form avoids overflow in exp for large |h|: 1 / (1 + e^-h) for
    # h >= 0 and e^h / (1 + e^h) below, both from e = exp(-|h|).
    e = np.exp(-np.abs(h))
    return np.where(h >= 0, 1.0, e) / (1.0 + e)


def clamped_sigmoid(h: np.ndarray) -> np.ndarray:
    """The output unit: sigmoid(h) clamped to [CLAMP, 1 - CLAMP]."""
    return np.minimum(np.maximum(_sigmoid(h), CLAMP), 1.0 - CLAMP)


def unclamped(p: np.ndarray) -> np.ndarray:
    """Where the clamp left the sigmoid output p untouched, the only places it passes gradient."""
    return (p > CLAMP) & (p < 1.0 - CLAMP)


def bce_loss(scores, labels) -> np.ndarray:
    """Mean negated log-likelihood of ``labels`` under ``scores`` along the last axis, one per stack member.

    Unchecked: the clamped output unit keeps scores strictly inside (0, 1).
    """
    return -np.mean(labels * np.log(scores) + (1.0 - labels) * np.log1p(-scores), axis=-1)


def bce_output_delta(scores: np.ndarray, labels) -> np.ndarray:
    """d(bce_loss)/dh at the output preactivation: (p - y) / batch where the clamp is open, 0 where it holds p."""
    return np.where(unclamped(scores), scores - labels, 0.0) / labels.shape[-1]


def _validated_features(features, config: NetworkConfig | None = None) -> np.ndarray:
    """features as a float64 (rows, inputs) matrix; the one feature check of every entry point.

    Ragged rows and entries that are not numbers (text, None) raise
    InputError, under one rule, as a model document's arrays do
    (_number_array).  Without a config any width passes.
    """
    try:
        x = np.asarray(features)
    except ValueError:  # ragged rows
        x = None
    if x is None or x.dtype.kind not in "biuf":
        raise InputError("features must be a regular array of numbers")
    x = x.astype(np.float64, copy=False)
    if x.ndim != 2:
        raise ShapeError(f"features must be 2-d (rows, features), got shape {x.shape}")
    if config is not None and x.shape[1] != config.layer_sizes[0]:
        raise ShapeError(f"features have {x.shape[1]} columns but the network expects {config.layer_sizes[0]}")
    if x.shape[0] == 0:
        raise InputError("features have no rows")
    if not _all_finite(x):
        raise InputError("features contain non-finite entries")
    return x


def _all_finite(a: np.ndarray) -> bool:
    """Whether a holds no NaN or infinity (an empty a holds none), from its min and max: no temporary of a's size."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _validated_rows(rows, n: int) -> np.ndarray:
    """rows as a 1-d int64 array of indices into n feature rows; the one check of a feature_rows entry.

    The listed rows are the member's row count, which its labels and other
    per-row vectors are then checked against.
    """
    r = np.asarray(rows)
    if r.ndim != 1:
        raise ShapeError(f"feature_rows must be one-dimensional, got shape {r.shape}")
    if r.dtype.kind not in "iu":
        raise InputError(f"feature_rows must hold integer row indices, got dtype {r.dtype}")
    if r.size == 0:
        raise InputError("feature_rows lists no rows")
    if r.min() < 0 or r.max() >= n:
        raise InputError(f"feature_rows must lie in [0, {n}), the rows of its features")
    return r.astype(np.int64, copy=False)


@dataclass
class StandardisationBounds:
    """Risk and unfairness ranges observed during the endpoint runs.

    Spans are floored at 1e-12 when used as denominators.  Values outside the
    recorded ranges simply standardise outside [0, 1].  The bounds of a stack
    (stack()) hold one (K,) array per field, one entry per member; all their
    arithmetic is elementwise, so a member standardises exactly as its own
    bounds do.
    """

    risk_min: float | np.ndarray
    risk_max: float | np.ndarray
    unfairness_min: float | np.ndarray
    unfairness_max: float | np.ndarray

    def __post_init__(self):
        vals = (self.risk_min, self.risk_max, self.unfairness_min, self.unfairness_max)
        if not all(np.all(np.isfinite(v)) for v in vals):
            raise NumericError(f"non-finite standardisation bounds {vals}")
        if np.any(self.risk_max < self.risk_min) or np.any(self.unfairness_max < self.unfairness_min):
            raise NumericError(f"inverted standardisation bounds {vals}")

    @classmethod
    def stack(cls, members: list["StandardisationBounds"]) -> "StandardisationBounds":
        """The bounds of a stack whose member k standardises by members[k]."""
        return cls(*np.array([astuple(b) for b in members], dtype=np.float64).T)

    @property
    def risk_span(self) -> float | np.ndarray:
        return np.maximum(self.risk_max - self.risk_min, SPAN_FLOOR)

    @property
    def unfairness_span(self) -> float | np.ndarray:
        return np.maximum(self.unfairness_max - self.unfairness_min, SPAN_FLOOR)

    def standardise_risk(self, r: float) -> float:
        return (r - self.risk_min) / self.risk_span

    def standardise_unfairness(self, u: float) -> float:
        return (u - self.unfairness_min) / self.unfairness_span


IDENTITY_BOUNDS = StandardisationBounds(0.0, 1.0, 0.0, 1.0)


class BackwardResult(NamedTuple):
    """Gradients plus the batch risk, penalty, active branch and objective value.

    risk, unfairness, risk_branch and objective have lambda's shape: () for
    one network, (K,) for a stack of K.  risk_branch is True where the
    gradient is that of the risk branch of the max.
    """

    gradients: NetworkParams
    risk: np.ndarray
    unfairness: np.ndarray
    risk_branch: np.ndarray
    objective: np.ndarray


def chebyshev_weights(lam, r_tilde, u_tilde, penalised) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per member: the risk delta's weight, the penalty delta's weight and max{(1-lam) * R~, lam * U~}.

    The weighted Chebyshev rule.  A member outside ``penalised`` takes the
    risk branch, and so does a tie; lam = 1 takes the penalty branch, whose
    value is U~.  The branch taken weighs 1 - lam or lam, the other 0.  Where
    U~ is nan the value is (1 - lam) * R~, on either branch.  Elementwise.
    """
    r_value = (1.0 - lam) * r_tilde
    if not penalised.any():
        return 1.0 - lam, np.zeros_like(lam), r_value
    u_value = lam * u_tilde
    risk = ~penalised | ((lam < 1.0) & (r_value >= u_value))
    value = np.where(risk | np.isnan(u_tilde), r_value, u_value)
    return np.where(risk, 1.0 - lam, 0.0), np.where(risk, 0.0, lam), value


def backward_composite(
    trace: ForwardTrace,
    params: NetworkParams,
    config: NetworkConfig,
    labels,
    weights: OverlapWeights | None,
    lambda_,
    bounds: StandardisationBounds | None = None,
) -> BackwardResult:
    """Gradient of max{(1-lambda) * R~, lambda * U~} for one traced batch.

    R~ and U~ are the batch risk and the last hidden layer's penalty
    (metrics.ato_hidden_penalty) standardised by ``bounds`` (identity when
    None).  chebyshev_weights gives each network's branch (risk_branch) and
    objective value, and the weight by which, over its bounds' span, each
    delta is scaled: the risk delta at the output layer, the penalty delta
    at the last hidden layer, propagated through the trace's gates by
    backprop.  When ``weights`` is None, or marks a stack member's batch as
    degenerate, the penalty is undefined for that batch, the risk branch is
    forced (unfairness comes back as nan) and the objective is
    (1-lambda) * R~ alone.  A stack takes one lambda per member, and either
    one set of bounds or stacked (K,) bounds (StandardisationBounds.stack).
    """
    lam = np.asarray(lambda_, dtype=np.float64)
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ConfigError(f"lambda must lie in [0, 1], got {lambda_}")
    if bounds is None:
        bounds = IDENTITY_BOUNDS
    y = np.asarray(labels, dtype=np.float64)
    p = trace.output
    if y.shape != p.shape:
        raise ShapeError(f"labels {y.shape} do not match the traced batch ({p.shape})")

    risk = bce_loss(p, y)
    penalised = lam > 0.0
    if weights is None:
        penalised = np.zeros_like(penalised)
    else:
        penalised = penalised & ~weights.degenerate
    L = config.num_layers
    unfairness = u_tilde = np.full(lam.shape, np.nan)
    tau = None
    if penalised.any():
        penalty, tau = ato_hidden_penalty(trace, weights)
        unfairness = np.where(penalised, penalty, np.nan)
        u_tilde = bounds.standardise_unfairness(unfairness)
    risk_weight, penalty_weight, objective = chebyshev_weights(lam, bounds.standardise_risk(risk), u_tilde, penalised)
    risk_branch = penalty_weight == 0

    deltas: list[np.ndarray | None] = [None] * L
    if risk_branch.any():
        # Multiplying the BCE delta by scale afterwards keeps the lambda = 0
        # / identity-bounds path bit-identical to plain BCE backprop (x * 1.0
        # is exact); a weight-0 member gets 0 * delta, as a skip would flip its zeros' signs.
        scale = risk_weight / bounds.risk_span
        deltas[L - 1] = (bce_output_delta(p, y) * scale[..., None])[..., None]
    if not risk_branch.all() and tau is not None:
        # d|tau|/dh is the contrast coefficient times the sign of tau.
        scale = penalty_weight / bounds.unfairness_span
        deltas[L - 2] = np.einsum("...m,...n->...mn", weights.coefficients * scale[..., None], np.sign(tau))

    grads = backprop(params, config, trace, deltas)
    return BackwardResult(grads, risk, unfairness, risk_branch, objective)


def backprop(
    params: NetworkParams,
    config: NetworkConfig,
    trace: ForwardTrace,
    preact_deltas: list[np.ndarray | None],
) -> NetworkParams:
    """Propagate per-layer preactivation deltas down to the parameter gradients.

    preact_deltas[l] is dJ/dh^(l) contributed directly at layer l, of the
    shape of trace.preactivations[l] (None for no contribution);
    contributions flowing down from above are added through each hidden
    layer's gate (_delta_below).  A layer that receives nothing from above
    and has no delta of its own gets exact zero gradients and passes nothing
    down.  Returns the gradients alone; input_delta is the one way to the
    layer-0 preactivation delta.  The caller's deltas are read, never
    written.

    Each layer's gradients are built as its delta is formed, so only two
    deltas are live at once.  The step down a layer is _delta_below, which
    input_delta shares; the bias gradients are _row_sum's.
    """
    L = config.num_layers
    if len(preact_deltas) != L:
        raise ShapeError(f"expected {L} delta slots, got {len(preact_deltas)}")
    grad_w: list[np.ndarray | None] = [None] * L
    grad_b: list[np.ndarray | None] = [None] * L
    delta = None
    for l in range(L - 1, -1, -1):
        own = preact_deltas[l]
        if delta is None:
            if own is None:
                lead = trace.preactivations[l].shape[:-2]
                grad_w[l] = np.zeros(lead + params.weights[l].shape[-2:])
                grad_b[l] = np.zeros(lead + params.biases[l].shape[-1:])
                continue
            d = own
        else:
            d = _delta_below(params, trace, l, delta)
            if own is not None:
                d += own
        below = trace.inputs if l == 0 else trace.activations[l - 1]
        grad_w[l] = _matmul(d.swapaxes(-1, -2), below)
        grad_b[l] = _row_sum(d)
        delta = d
    return NetworkParams(weights=grad_w, biases=grad_b)


def input_delta(params: NetworkParams, trace: ForwardTrace, output_delta: np.ndarray) -> np.ndarray:
    """dJ/dh^(0) for a delta at the output preactivation alone, and no parameter gradient.

    backprop's layer-0 delta for preact_deltas [None, ..., output_delta],
    bitwise: the same chain of _delta_below steps, without the weight
    products and bias sums that backprop builds along the way.  The input
    gradient dJ/dX is this delta times params.weights[0].
    """
    d = output_delta
    for l in range(len(trace.preactivations) - 2, -1, -1):
        d = _delta_below(params, trace, l, d)
    return d


def _delta_below(params: NetworkParams, trace: ForwardTrace, l: int, delta: np.ndarray) -> np.ndarray:
    # dJ/dh^(l) that layer l + 1's delta sends down: through its weights, then
    # layer l's gate, open where its post-dropout activation is positive (the
    # unit was kept and h > 0), then the keep scale of a pass that drew
    # dropout; a new array, (d * mask) * [h > 0] bitwise where d / keep is finite.
    d = _matmul(delta, params.weights[l + 1])
    d *= trace.activations[l] > 0.0
    if trace.keep < 1.0:
        d *= 1.0 / trace.keep
    return d


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, as an einsum outer product when the inner dimension is 1.

    With an inner dimension of 1 each entry is one multiplication, which
    einsum rounds exactly as matmul does, without matmul's per-call and
    per-member cost.  Only the sign of an exact zero may differ.
    """
    if a.shape[-1] == 1 == b.shape[-2]:
        return np.einsum("...mi,...in->...mn", a, b)
    return a @ b


def _row_sum(d: np.ndarray) -> np.ndarray:
    """d.sum(axis=-2), bitwise, for one matrix or a stack.

    Where rows are wider than 1 and the last axis is the contiguous one,
    numpy's sum and einsum both add the rows one after another in order,
    and einsum's loop is several times faster.  A width-1 column (or another
    layout) keeps sum: numpy sums it pairwise and einsum does not, so their
    last bits differ.
    """
    if d.shape[-1] > 1 and d.strides[-1] == d.itemsize:
        return np.einsum("...mn->...n", d)
    return d.sum(axis=-2)


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
    with open_input(path, "model document", InputError, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"model document {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"model document {path} must hold a JSON object")
    for key in ("layer_sizes", "dropout_prob", "weights", "biases"):
        if key not in doc:
            raise ConfigError(f"model document {path} lacks field {key!r}")
    if not (isinstance(doc["weights"], list) and isinstance(doc["biases"], list)):
        raise InputError(f"model document {path}: weights and biases must be lists of arrays")
    params = NetworkParams(
        weights=[_number_array(w, path) for w in doc["weights"]],
        biases=[_number_array(b, path) for b in doc["biases"]],
    )
    try:  # the field values: NetworkConfig checks them, and the POSITIVE rule the temperature
        config = NetworkConfig(layer_sizes=doc["layer_sizes"], dropout_prob=doc["dropout_prob"])
        temperature = doc.get("temperature")
        temperature = None if temperature is None else check_value("temperature", temperature, **POSITIVE)
    except ConfigError as exc:
        raise ConfigError(f"model document {path}: {exc}") from None
    if len(params.weights) != config.num_layers or len(params.biases) != config.num_layers:
        raise ConfigError(f"model document {path} has inconsistent layer counts")
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        expect = (config.layer_sizes[l + 1], config.layer_sizes[l])
        if w.shape != expect or b.shape != (expect[0],):
            raise ConfigError(f"model document {path}: layer {l} shapes do not match layer_sizes")
    return params, config, temperature


def _number_array(value, path) -> np.ndarray:
    """A model document's array as float64; text, booleans, non-finite values and ragged rows raise InputError."""
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise InputError(f"model document {path}: weights and biases must be regular arrays of finite numbers")
    return arr.astype(np.float64)
