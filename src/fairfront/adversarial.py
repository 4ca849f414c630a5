"""Adversarial debiasing baseline.

A classifier and a small adversary play the usual minimax game: the
adversary learns to predict the sensitive attribute from the classifier's
score alone, and the classifier minimises Loss_y - lambda * Loss_a with the
adversary's parameters frozen (the gradient flows through the score).
Training alternates one full adversary epoch with one classifier minibatch
step after a short pretraining phase for each player.  The classifier
pretrains on the same objective, against the adversary as initialised, so
only lambda = 0 pretrains it on plain BCE.

run_adversarial_sweep runs the scalarised sweep's split stage
(pareto._split_stage) with a trainer that calls train_adversarial once per
lambda, so the two sweeps compare on the same splits, calibrated propensity
models, seed streams and test scoring.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SplitPlan, minibatches
from .errors import POSITIVE, ConfigError, NumericError, at_least, check_fields
from .metrics import _as_binary
from .network import (
    MODE_EVAL,
    MODE_TRAIN,
    NetworkConfig,
    NetworkParams,
    _flatten,
    _unflatten,
    _validated_data,
    backprop,
    bce_loss,
    bce_output_delta,
    forward,
    init_network,
    row_blocks,
    unclamped,
)
from .optim import AdamState, adam_step
from .pareto import (
    EXPECTED_FAILURES,
    LambdaGrid,
    SweepConfig,
    SweepResult,
    TrainingSplit,
    _run_splits,
    _split_stage,
)

# The split stage (pareto._split_stage) fits the propensity model and scores
# the candidates for both sweeps, so this module calls none of these names.
# They stay importable here because bench/spans.py patches them on this
# module and fails to install its tracer without them.
from .evaluation import evaluate_test_metrics  # noqa: F401
from .propensity import calibrate_temperature, train_propensity  # noqa: F401
from .training import FitResult, TrainConfig, _seed_pair, derive_seeds

log = logging.getLogger(__name__)


@dataclass
class AdversaryConfig:
    """Adversary architecture and the alternation budget."""

    hidden_layers: int = field(default=4, metadata=at_least(1))
    hidden_width: int = field(default=32, metadata=at_least(1))
    pretrain_classifier_epochs: int = field(default=2, metadata=at_least(0))
    pretrain_adversary_epochs: int = field(default=5, metadata=at_least(0))
    rounds: int = field(default=200, metadata=at_least(0))
    learning_rate: float = field(default=1e-3, metadata=POSITIVE)

    __post_init__ = check_fields

    def network_config(self) -> NetworkConfig:
        # Input width 1: the adversary sees only the classifier's score.
        return NetworkConfig(layer_sizes=[1] + [self.hidden_width] * self.hidden_layers + [1], dropout_prob=0.0)


@dataclass
class AdversarialResult:
    """The two trained players and their architectures."""

    classifier_params: NetworkParams
    classifier_config: NetworkConfig
    adversary_params: NetworkParams
    adversary_config: NetworkConfig


def classifier_objective_gradient(
    clf_params: NetworkParams,
    clf_config: NetworkConfig,
    adv_params: NetworkParams,
    adv_config: NetworkConfig,
    trace,
    labels: np.ndarray,
    sensitives: np.ndarray,
    lambda_: float,
) -> tuple[NetworkParams, float]:
    """Gradient of Loss_y - lambda * Loss_a w.r.t. the classifier.

    The adversary is frozen, but the fairness term's gradient still flows
    through the classifier scores it reads.  ``trace`` must be a forward
    pass of ``clf_params`` on the batch being scored; passing it in leaves
    the dropout regime (and any frozen masks) under the caller's control.
    Returns the parameter gradients and the objective value on that trace.
    Nothing is validated here: train_adversarial checks its data on entry.
    """
    p = trace.output
    delta = bce_output_delta(p, labels)
    objective = bce_loss(p, labels)
    if lambda_ > 0.0:
        _, d_first, q = _adversary_gradient(adv_params, adv_config, p, sensitives)
        # dLoss_a/dh of the classifier output: through the adversary's first
        # layer to its input, then the classifier's clamped sigmoid, whose
        # slope is p * (1 - p) where the clamp is open.
        d_scores = (d_first @ adv_params.weights[0])[:, 0]
        delta = delta - lambda_ * np.where(unclamped(p), d_scores * p * (1.0 - p), 0.0)
        objective -= lambda_ * bce_loss(q, sensitives)
    deltas: list = [None] * clf_config.num_layers
    deltas[-1] = delta[:, None]
    grads, _ = backprop(clf_params, clf_config, trace, deltas)
    return grads, float(objective)


def _adversary_gradient(adv_params: NetworkParams, adv_config: NetworkConfig, scores, sensitives):
    """Gradients of the adversary's mean BCE on (scores, sensitives).

    Returns (parameter gradients, d/dh of its first layer, predictions); the
    first-layer delta times adv_params.weights[0] is d/dscores.
    """
    trace = forward(adv_params, adv_config, scores[:, None], MODE_EVAL)
    q = trace.output
    deltas: list = [None] * adv_config.num_layers
    deltas[-1] = bce_output_delta(q, sensitives)[:, None]
    grads, d_first = backprop(adv_params, adv_config, trace, deltas)
    return grads, d_first, q


class _Player:
    """One network Adam-trained on a flat parameter row.

    ``params`` holds per-layer views of ``flat``; each update is a single
    in-place adam_step over the whole row, which the views see.
    """

    def __init__(self, config: NetworkConfig, seed: int, learning_rate: float):
        init = init_network(config, seed)
        self.flat = _flatten(init)
        self.params = _unflatten(self.flat, [a.shape for a in (*init.weights, *init.biases)])
        self.adam = AdamState(np.zeros_like(self.flat), np.zeros_like(self.flat), learning_rate=learning_rate)

    def step(self, grads: NetworkParams):
        adam_step(self.adam, self.flat, _flatten(grads))


def train_adversarial(
    features: np.ndarray,
    labels: np.ndarray,
    sensitives: np.ndarray,
    clf_config: NetworkConfig,
    train_config: TrainConfig,
    adv_config: AdversaryConfig,
    lambda_: float,
    seeds: tuple[int, int],
) -> AdversarialResult:
    """Run the full adversarial protocol for one lambda.

    Phases: (1) pretrain the classifier on Loss_y - lambda * Loss_a against
    the frozen, freshly initialised adversary (plain BCE only at lambda = 0);
    (2) pretrain the adversary on the frozen classifier's eval-mode scores;
    (3) alternate adv_config.rounds times between one full adversary epoch
    and one classifier minibatch step on Loss_y - lambda * Loss_a.  Only the
    classifier uses dropout, and only in its own update steps.  One RNG
    stream drives all shuffling and dropout, so the run is a pure function
    of (data, configs, lambda, seeds): the classifier's init seed, and the
    key of the adversary's init and loop seeds (training.derive_seeds).

    The inputs are validated here, once; the loop itself runs unchecked and
    raises NumericError after the epoch or round that left either player
    with non-finite parameters.
    """
    if not 0.0 <= lambda_ <= 1.0:
        raise ConfigError(f"lambda must lie in [0, 1], got {lambda_}")
    clf_seed, adv_key = _seed_pair("seeds", seeds)
    x, y = _validated_data(features, labels, clf_config)
    n = y.shape[0]
    a = _as_binary(sensitives, "sensitives", n)
    indices = np.arange(n)

    adv_cfg = adv_config.network_config()
    adv_init, loop_seed = derive_seeds(adv_key)
    clf = _Player(clf_config, clf_seed, train_config.learning_rate)
    adv = _Player(adv_cfg, adv_init, adv_config.learning_rate)
    rng = np.random.default_rng(loop_seed)

    def classifier_step(rows: np.ndarray):
        trace = forward(clf.params, clf_config, x[rows], MODE_TRAIN, rng=rng)
        grads, _ = classifier_objective_gradient(
            clf.params, clf_config, adv.params, adv_cfg, trace, y[rows], a[rows], lambda_
        )
        clf.step(grads)

    def adversary_epoch():
        # The classifier is frozen for the whole epoch: score every row once, block by block.
        scores = np.concatenate([forward(clf.params, clf_config, x[rows], MODE_EVAL).output for rows in row_blocks(n)])
        for mb in minibatches(indices, train_config.batch_size, rng):
            adv.step(_adversary_gradient(adv.params, adv_cfg, scores[mb.indices], a[mb.indices])[0])

    def check_finite(phase: str):
        if not (np.isfinite(clf.flat).all() and np.isfinite(adv.flat).all()):
            raise NumericError(f"{phase} left non-finite parameters (lambda={lambda_})")

    for epoch in range(adv_config.pretrain_classifier_epochs):
        for mb in minibatches(indices, train_config.batch_size, rng):
            classifier_step(mb.indices)
        check_finite(f"classifier pretraining epoch {epoch}")
    for epoch in range(adv_config.pretrain_adversary_epochs):
        adversary_epoch()
        check_finite(f"adversary pretraining epoch {epoch}")

    # Alternation proper: one adversary epoch and one classifier step per round.
    batches = _cycled_batches(indices, train_config.batch_size, rng)
    for round_ in range(adv_config.rounds):
        adversary_epoch()
        classifier_step(next(batches))
        check_finite(f"round {round_}")

    log.debug("adversarial run (lambda=%g): %d rounds after pretraining", lambda_, adv_config.rounds)
    return AdversarialResult(
        classifier_params=clf.params,
        classifier_config=clf_config,
        adversary_params=adv.params,
        adversary_config=adv_cfg,
    )


def _cycled_batches(indices: np.ndarray, batch_size: int, rng: np.random.Generator):
    """Successive batches of shuffled passes over indices, each pass drawn when the last runs out."""
    while True:
        for mb in minibatches(indices, batch_size, rng):
            yield mb.indices


def run_adversarial_sweep(
    dataset: Dataset,
    plan: SplitPlan,
    grid: LambdaGrid,
    config: SweepConfig,
    adv_config: AdversaryConfig | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Adversarial counterpart of run_sweep: every lambda is trained fully.

    The split stage is run_sweep's: the same splits, calibrated propensity
    model, seeds, test scoring and failure records; a failed lambda is
    recorded at stage "adversarial".  There is no bounds discovery and no
    endpoint reuse.  config.train.epochs is ignored; the budget comes from
    adv_config.
    """
    if adv_config is None:
        adv_config = AdversaryConfig()
    return _run_splits(_adv_split_worker, dataset, plan, grid, config, jobs, adv_config)


def _adv_split_worker(payload):
    return _split_stage(payload, _train_adversarial_group, "adversarial")


def _train_adversarial_group(splits: list[TrainingSplit], grid: LambdaGrid, config: SweepConfig, adv_config):
    """The adversarial sweep's trainer: train_adversarial once per split and lambda.

    Returns, per split, one fit (or expected failure) per lambda and no bounds.
    The split's training rows are gathered once, for all its lambdas.
    """
    outcomes = []
    for split in splits:
        x = split.features[split.train_idx]
        rows = (x, split.labels, split.sensitives, split.template, config.train, adv_config)
        fits: list[FitResult | Exception] = []
        for lam, seeds in zip(grid.values, split.seeds):
            try:
                run = train_adversarial(*rows, lam, seeds)
            except EXPECTED_FAILURES as exc:
                fits.append(exc)
                continue
            # The protocol has no epoch objective and no learning-rate schedule.
            fits.append(
                FitResult(run.classifier_params, [float("nan")], final_learning_rate=config.train.learning_rate)
            )
        outcomes.append((fits, None))
    return outcomes
