"""Adversarial debiasing baseline.

A classifier and a small adversary play the usual minimax game: the
adversary learns to predict the sensitive attribute from the classifier's
score alone, and the classifier minimises Loss_y - lambda * Loss_a with the
adversary's parameters frozen (the gradient flows through the score).
Training alternates one full adversary epoch with one classifier minibatch
step after a short pretraining phase for each player.  The classifier
pretrains on the same objective, against the adversary as initialised, so
only lambda = 0 pretrains it on plain BCE.

train_adversarial trains a stack of K lambdas in lockstep on the rows
training.fit_network takes: one shared feature matrix, each member's rows of
it (feature_rows) and its labels and sensitives.  Each adversary step,
classifier step and epoch scoring pass is one stacked call for all K, and
each member keeps its own seeds and random stream, so its numbers are
bitwise those of its lambda trained alone.  A member whose parameters go
non-finite fails alone.

run_adversarial_sweep runs the scalarised sweep's split stage
(pareto._split_stage) with a trainer that cuts all of a split group's
(split, lambda) networks into stacks (pareto._train_in_stacks), which mix
splits as the scalarised stacks do, so the two sweeps compare on the same
splits, calibrated propensity models, seed streams and test scoring.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SplitPlan, minibatches
from .errors import POSITIVE, NumericError, at_least, check_fields
from .network import (
    MODE_EVAL,
    MODE_TRAIN,
    NetworkConfig,
    NetworkParams,
    _flatten,
    backprop,
    bce_output_delta,
    forward,
    input_delta,
    row_blocks,
    unclamped,
)
from .optim import adam_step
from .pareto import LambdaGrid, SweepConfig, SweepResult, TrainingSplit, _run_splits, _split_stage, _train_in_stacks

# The split stage (pareto._split_stage) fits the propensity model and scores
# the candidates for both sweeps, so this module calls none of these names.
# They stay importable here because bench/spans.py patches them on this
# module and fails to install its tracer without them.
from .evaluation import evaluate_test_metrics  # noqa: F401
from .propensity import calibrate_temperature, train_propensity  # noqa: F401
from .training import FitResult, TrainConfig, _ParameterStack, _stack_members, _stack_rows, derive_seeds

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
    lambda_,
) -> NetworkParams:
    """Gradient of Loss_y - lambda * Loss_a w.r.t. the classifier.

    The adversary is frozen, but the fairness term's gradient still flows
    through the classifier scores it reads.  ``trace`` must be a forward
    pass of ``clf_params`` on the batch being scored; passing it in leaves
    the dropout regime and its noise under the caller's control.
    A stack of K classifiers and K adversaries takes (K, m) labels and
    sensitives and a (K,) lambda; one network takes (m,) rows and one lambda.
    A member at lambda = 0 gets the plain BCE gradient: its adversary term is
    not subtracted but left out, so its numbers never read its adversary.
    Returns the classifier's parameter gradients.  Nothing is validated
    here: train_adversarial checks its data on entry.
    """
    lam = np.asarray(lambda_, dtype=np.float64)
    p = trace.output
    delta = bce_output_delta(p, labels)
    penalised = lam > 0.0
    if penalised.any():
        # Only the adversary's delta chain down to its input: no adversary
        # parameter gradient is built, since the adversary is frozen here.
        adv_trace, adv_delta = _adversary_pass(adv_params, adv_config, p, sensitives)
        d_first = input_delta(adv_params, adv_trace, adv_delta)
        # dLoss_a/dh of the classifier output: through the adversary's first
        # layer to its input, then the classifier's clamped sigmoid, whose
        # slope is p * (1 - p) where the clamp is open.
        d_scores = (d_first @ adv_params.weights[0])[..., 0]
        slope = np.where(unclamped(p), d_scores * p * (1.0 - p), 0.0)
        delta = np.where(penalised[..., None], delta - lam[..., None] * slope, delta)
    deltas: list = [None] * clf_config.num_layers
    deltas[-1] = delta[..., None]
    return backprop(clf_params, clf_config, trace, deltas)


def _adversary_pass(adv_params: NetworkParams, adv_config: NetworkConfig, scores, sensitives):
    """The adversary's eval-mode trace on scores, and the delta of its mean BCE on sensitives at its output."""
    trace = forward(adv_params, adv_config, scores[..., None], MODE_EVAL)
    return trace, bce_output_delta(trace.output, sensitives)[..., None]


def _adversary_gradient(adv_params: NetworkParams, adv_config: NetworkConfig, scores, sensitives):
    """Parameter gradients of the adversary's mean BCE on (scores, sensitives), one adversary or a stack."""
    trace, delta = _adversary_pass(adv_params, adv_config, scores, sensitives)
    deltas: list = [None] * adv_config.num_layers
    deltas[-1] = delta
    return backprop(adv_params, adv_config, trace, deltas)


def train_adversarial(
    features: np.ndarray,
    labels: list[np.ndarray],
    sensitives: list[np.ndarray],
    clf_config: NetworkConfig,
    train_config: TrainConfig,
    adv_config: AdversaryConfig,
    lambda_: list[float],
    seeds: list[tuple[int, int]],
    *,
    feature_rows: list[np.ndarray] | None = None,
) -> list[AdversarialResult | NumericError]:
    """Run the full adversarial protocol for a stack of K lambdas, member k on its rows of features.

    Phases: (1) pretrain the classifier on Loss_y - lambda * Loss_a against
    the frozen, freshly initialised adversary (plain BCE only at lambda = 0);
    (2) pretrain the adversary on the frozen classifier's eval-mode scores;
    (3) alternate adv_config.rounds times between one full adversary epoch
    and one classifier minibatch step on Loss_y - lambda * Loss_a.  Only the
    classifier uses dropout, and only in its own update steps.  A pass over
    the rows is data.minibatches: one permutation per member, cut into
    batch_size slices.

    The rows are fit_network's: one shared 2-d feature matrix, K label and
    K sensitives vectors, and optional feature_rows, checked once by its
    row check (training._stack_rows).  lambda_ and seeds are lists of K too
    (a bare value raises ConfigError naming the argument): lambdas in
    [0, 1], and pairs of the classifier's init seed and the key of the
    adversary's init and loop seeds (training.derive_seeds).  The members
    train in lockstep, each step one stacked call for all K, and each draws
    its shuffles and dropout from its own loop generator, in the order its
    lone run draws them, so a member's numbers are bitwise those of its
    lambda trained as a stack of one on a copy of its rows.

    The loop runs unchecked.  Returns K entries: an AdversarialResult, or
    the NumericError of a member that the epoch or round it failed in left
    with non-finite parameters in either player.  A failed member keeps its
    rows in both stacks, zeroed so that the remaining steps stay finite, and
    is no longer read.
    """
    pairs, lams = _stack_members(seeds, lambda_)
    x, member_rows, columns = _stack_rows(
        features, clf_config, len(pairs), feature_rows, labels=labels, sensitives=sensitives
    )
    y, a = columns["labels"], columns["sensitives"]
    n = member_rows.shape[1]
    member_base = (np.arange(len(pairs)) * n)[:, None]

    adv_cfg = adv_config.network_config()
    adv_seeds = [derive_seeds(adv_key) for _, adv_key in pairs]
    clf = _ParameterStack(clf_config, [clf_seed for clf_seed, _ in pairs], train_config.learning_rate)
    adv = _ParameterStack(adv_cfg, [adv_init for adv_init, _ in adv_seeds], adv_config.learning_rate)
    rngs = [np.random.default_rng(loop_seed) for _, loop_seed in adv_seeds]
    results: list[AdversarialResult | NumericError | None] = [None] * len(pairs)
    alive = np.ones(len(pairs), dtype=bool)  # members that have not failed

    def epoch_batches() -> list[np.ndarray]:
        # One pass of every member, from its own generator: per step, the (K, m)
        # positions of each member's batch in the flattened (K, n) arrays.
        return [batch.indices + member_base for batch in minibatches(n, train_config.batch_size, rngs)]

    def classifier_step(at: np.ndarray):
        trace = forward(clf.params, clf_config, x.take(member_rows.take(at), axis=0), MODE_TRAIN, rng=rngs)
        grads = classifier_objective_gradient(
            clf.params, clf_config, adv.params, adv_cfg, trace, y.take(at), a.take(at), lams
        )
        adam_step(clf.adam, clf.flat, _flatten(grads))

    def adversary_epoch():
        # The classifiers are frozen for the whole epoch: score every member's rows once, block by block.
        blocks = (x.take(member_rows[:, block], axis=0) for block in row_blocks(n))
        scores = np.concatenate([forward(clf.params, clf_config, xb, MODE_EVAL).output for xb in blocks], axis=-1)
        for at in epoch_batches():
            grads = _adversary_gradient(adv.params, adv_cfg, scores.take(at), a.take(at))
            adam_step(adv.adam, adv.flat, _flatten(grads))

    def survivors(phase: str) -> bool:
        # Fail the members this phase left non-finite; whether any member trains on.
        failed = alive & ~(clf.finite() & adv.finite())
        for i in np.flatnonzero(failed):
            results[i] = NumericError(f"{phase} left non-finite parameters (lambda={lams[i]})")
        if failed.any():
            alive[failed] = False
            clf.zero(failed)
            adv.zero(failed)
        return bool(alive.any())

    for epoch in range(adv_config.pretrain_classifier_epochs):
        for rows in epoch_batches():
            classifier_step(rows)
        if not survivors(f"classifier pretraining epoch {epoch}"):
            return results
    for epoch in range(adv_config.pretrain_adversary_epochs):
        adversary_epoch()
        if not survivors(f"adversary pretraining epoch {epoch}"):
            return results

    # Alternation proper: one adversary epoch and one classifier step per round,
    # each step taking the next batch of passes drawn as the last runs out.
    batches = itertools.chain.from_iterable(epoch_batches() for _ in itertools.count())
    for round_ in range(adv_config.rounds):
        adversary_epoch()
        classifier_step(next(batches))
        if not survivors(f"round {round_}"):
            return results

    log.debug("adversarial stack (lambdas %s): %d rounds after pretraining", lams, adv_config.rounds)
    for i in np.flatnonzero(alive):
        results[i] = AdversarialResult(
            classifier_params=clf.params.member(i),
            classifier_config=clf_config,
            adversary_params=adv.params.member(i),
            adversary_config=adv_cfg,
        )
    return results


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
    """The adversarial sweep's trainer: every (split, lambda) network of the group, in stacks that mix splits.

    The networks, by split and then lambda, are cut into stacks of
    stack_size() members (pareto._train_in_stacks), the rule the scalarised
    sweep's stacks follow, sized by the widest layer of either player.  Each
    stack is one train_adversarial call on the splits' one feature matrix,
    each member reading its split's training rows through feature_rows.
    Returns, per split, one fit (or expected failure) per lambda and no
    bounds.
    """
    nets, lambdas, seeds = (
        list(column) for column in zip(*[(s, lam, pair) for s in splits for lam, pair in zip(grid.values, s.seeds)])
    )
    template = splits[0].template

    def train(stack):
        labels, sensitives = [s.labels for s in nets[stack]], [s.sensitives for s in nets[stack]]
        return train_adversarial(
            splits[0].features, labels, sensitives, template, config.train, adv_config, lambdas[stack], seeds[stack],
            feature_rows=[s.train_idx for s in nets[stack]],
        )

    adv_sizes = adv_config.network_config().layer_sizes
    runs = _train_in_stacks(train, len(nets), config.train.batch_size, template.layer_sizes + adv_sizes)
    # The protocol has no epoch objective and no learning-rate schedule.
    fits = [
        run if isinstance(run, Exception)
        else FitResult(run.classifier_params, [float("nan")], final_learning_rate=config.train.learning_rate)
        for run in runs
    ]
    return [(fits[i : i + len(grid)], None) for i in range(0, len(fits), len(grid))]
