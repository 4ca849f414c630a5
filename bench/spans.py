"""Span tracing of fairfront, installed from outside the package.

``Tracer.installed()`` replaces selected functions in the fairfront modules
that look them up with wrappers recording one span per call: an id, the id of
the enclosing span, a name, and perf_counter start and end.  A few wrappers
also bump counters (forward modes, degenerate overlap batches, gathered
bytes, evaluated rows).  Leaving the block puts every original object back,
so untraced runs execute the package's own functions.

Split workers forked by a process pool inherit the patched modules.  Their
spans would die with the worker, so the split-worker wrapper writes them to
``flush_dir`` before returning and ``collect_workers`` merges them into the
parent's record.  perf_counter is CLOCK_MONOTONIC on Linux, so start and end
times compare across those processes.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path


def _forward_mode(counts, args, kwargs, result, exc):
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "eval")
    counts[f"network.forward.{mode}"] += 1
    return mode


def _forward_mode_adversarial(counts, args, kwargs, result, exc):
    # The adversary reads the classifier score alone, so its input width is 1;
    # any other eval-mode forward here re-scores the classifier.
    if _forward_mode(counts, args, kwargs, result, exc) == "eval" and args[1].layer_sizes[0] != 1:
        counts["adversarial.clf_eval_forwards"] += 1


def _degenerate(counts, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "DegenerateGroupError":
        counts["metrics.overlap_weights.degenerate"] += 1


def _gathered_bytes(counts, args, kwargs, result, exc):
    if result is None:
        return
    for mb in result:
        for arr in (mb.features, mb.sensitives, mb.labels, mb.propensities):
            if arr is not None:
                counts["data.minibatches.bytes"] += arr.nbytes


def _evaluated_rows(counts, args, kwargs, result, exc):
    counts["evaluation.rows"] += args[2].shape[0]


def _training_step(counts, args, kwargs, result, exc):
    counts["training.adam_step"] += 1


# (module, attribute looked up there, span name, counter hook)
PATCHES = [
    ("pareto", "run_sweep", "pareto.run_sweep", None),
    ("adversarial", "run_adversarial_sweep", "adversarial.run_adversarial_sweep", None),
    ("pareto", "train_propensity", "propensity.train_propensity", None),
    ("adversarial", "train_propensity", "propensity.train_propensity", None),
    ("pareto", "calibrate_temperature", "propensity.calibrate_temperature", None),
    ("adversarial", "calibrate_temperature", "propensity.calibrate_temperature", None),
    ("pareto", "predict_propensity", "propensity.predict_propensity", None),
    ("pareto", "discover_bounds", "pareto.discover_bounds", None),
    ("pareto", "train_scalarised", "pareto.train_scalarised", None),
    ("pareto", "evaluate_test_metrics", "evaluation.evaluate_test_metrics", _evaluated_rows),
    ("adversarial", "evaluate_test_metrics", "evaluation.evaluate_test_metrics", _evaluated_rows),
    ("pareto", "cull_nondominated", "pareto.cull_nondominated", None),
    ("pareto", "write_candidates_csv", "pareto.write_candidates_csv", None),
    ("adversarial", "train_adversarial", "adversarial.train_adversarial", None),
    ("adversarial", "classifier_objective_gradient", "adversarial.classifier_objective_gradient", None),
    ("pareto", "fit_network", "training.fit_network", None),
    ("propensity", "fit_network", "training.fit_network", None),
    ("training", "forward", "network.forward", _forward_mode),
    ("adversarial", "forward", "network.forward", _forward_mode_adversarial),
    ("evaluation", "forward", "network.forward", _forward_mode),
    ("propensity", "forward", "network.forward", _forward_mode),
    ("training", "backward_composite", "network.backward_composite", None),
    ("network", "backprop", "network.backprop", None),
    ("adversarial", "backprop", "network.backprop", None),
    ("training", "adam_step", "optim.adam_step", _training_step),
    ("adversarial", "adam_step", "optim.adam_step", None),
    ("training", "overlap_weights", "metrics.overlap_weights", _degenerate),
    ("evaluation", "overlap_weights", "metrics.overlap_weights", _degenerate),
    ("training", "minibatches", "data.minibatches", _gathered_bytes),
    ("adversarial", "minibatches", "data.minibatches", _gathered_bytes),
]

# Split workers: the functions a process pool runs.
WORKERS = [
    ("pareto", "_split_worker", "pareto.split_worker"),
    ("adversarial", "_adv_split_worker", "adversarial.split_worker"),
]

_MARK = "__bench_span__"


class Tracer:
    """Spans ``(id, parent id, name, start, end)`` and counters of one traced run."""

    def __init__(self, flush_dir):
        self.flush_dir = Path(flush_dir)
        self.owner = os.getpid()
        self.pid = self.owner  # the process recording; changes inside pool workers
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.stack: list[tuple] = []
        self._seq = itertools.count()
        self._patched: list[tuple] = []

    def wrap(self, name, fn, hook=None):
        """A wrapper of ``fn`` recording one span named ``name`` per call."""
        spans, stack, seq, counts, clock = self.spans, self.stack, self._seq, self.counts, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = (tracer.pid, next(seq))
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
                if hook is not None:
                    hook(counts, args, kwargs, result, exc)

        setattr(wrapper, _MARK, name)
        return wrapper

    def wrap_worker(self, name, fn):
        """Like ``wrap``, but a call in a forked worker flushes its spans to a file."""
        inner = self.wrap(name, fn)
        tracer = self

        @functools.wraps(fn)
        def worker(payload):
            if os.getpid() == tracer.owner:
                return inner(payload)
            tracer.pid = os.getpid()
            first = len(tracer.spans)
            before = Counter(tracer.counts)
            try:
                return inner(payload)
            finally:
                tracer._flush(tracer.spans[first:], tracer.counts - before)
                del tracer.spans[first:]
                tracer.counts.clear()
                tracer.counts.update(before)

        setattr(worker, _MARK, name)
        return worker

    def _flush(self, spans, counts):
        self.flush_dir.mkdir(parents=True, exist_ok=True)
        path = self.flush_dir / f"worker-{self.pid}-{next(self._seq)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"spans": spans, "counts": dict(counts)}), encoding="utf-8")
        os.replace(tmp, path)

    def collect_workers(self) -> int:
        """Merge and delete the span files pool workers flushed; returns how many."""
        files = sorted(self.flush_dir.glob("worker-*.json")) if self.flush_dir.is_dir() else []
        for path in files:
            doc = json.loads(path.read_text(encoding="utf-8"))
            for sid, parent, name, start, end in doc["spans"]:
                self.spans.append((tuple(sid), None if parent is None else tuple(parent), name, start, end))
            self.counts.update(doc["counts"])
            path.unlink()
        return len(files)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = [(m, a, n, h, False) for m, a, n, h in PATCHES]
        targets += [(m, a, n, None, True) for m, a, n in WORKERS]
        try:
            for modname, attr, name, hook, is_worker in targets:
                module = importlib.import_module(f"fairfront.{modname}")
                original = getattr(module, attr)
                if hasattr(original, _MARK):
                    raise RuntimeError(f"fairfront.{modname}.{attr} is already wrapped")
                wrapper = self.wrap_worker(name, original) if is_worker else self.wrap(name, original, hook)
                self._patched.append((module, attr, original))
                setattr(module, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover.

    Children of one span overlap only when they ran in different processes;
    the covered time is the union of their intervals, clipped to the parent.
    """
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out


def summarise(spans) -> dict:
    """Span name -> {"calls", "total_s" (inclusive), "self_s"}."""
    own = self_times(spans)
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, _parent, name, start, end in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[sid]
    return out


def worker_share(spans, jobs: int) -> tuple[float, float, float]:
    """(busy seconds, busy share, dispatch seconds) of the split workers.

    busy = sum of split-worker spans; busy share = busy / (jobs x sweep
    wall); dispatch = sweep wall minus the busiest process's split-worker
    time.  With jobs=1 the measured process is the only worker.
    """
    sweeps = [s for s in spans if s[2] in ("pareto.run_sweep", "adversarial.run_adversarial_sweep")]
    workers = [s for s in spans if s[2] in ("pareto.split_worker", "adversarial.split_worker")]
    if not sweeps or not workers:
        return 0.0, 0.0, 0.0
    wall = sum(end - start for *_, start, end in sweeps)
    per_process = Counter()
    for sid, _parent, _name, start, end in workers:
        per_process[sid[0]] += end - start
    busy = sum(per_process.values())
    return busy, busy / (jobs * wall), wall - max(per_process.values())


def layer_metrics(spans, counts, jobs: int, overhead_s: float, front_size: int) -> dict:
    """Every per-layer metric of BENCHMARK.json, as {name: (value, unit)}.

    A layer that did not run on the workload reports zeros.  Stages that
    exist in only one kind of sweep report their time as a share of the
    split workers' busy time, so that no time metric is a constant zero on
    the other kind.
    """
    s = summarise(spans)

    def get(name, key):
        return s[name][key] if name in s else 0

    def per_call_us(name):
        calls = get(name, "calls")
        return get(name, "self_s") / calls * 1e6 if calls else 0.0

    steps = counts.get("training.adam_step", 0)
    fit_total = get("training.fit_network", "total_s")
    eval_total = get("evaluation.evaluate_test_metrics", "total_s")
    clf_updates = get("adversarial.classifier_objective_gradient", "calls")
    busy_s, busy_share, dispatch_s = worker_share(spans, jobs)

    def share(name, key="total_s"):
        return get(name, key) / busy_s if busy_s else 0.0

    metrics = {
        "training.fit_network.calls": (get("training.fit_network", "calls"), "count"),
        "training.fit_network.self_s": (get("training.fit_network", "self_s"), "s"),
        "training.steps": (steps, "count"),
        "training.us_per_step": (fit_total / steps * 1e6 if steps else 0.0, "us"),
        "network.forward.train.calls": (counts.get("network.forward.train", 0), "count"),
        "network.forward.eval.calls": (counts.get("network.forward.eval", 0), "count"),
        "network.forward.self_s": (get("network.forward", "self_s"), "s"),
        "network.forward.us_per_call": (per_call_us("network.forward"), "us"),
        "network.backward_composite.calls": (get("network.backward_composite", "calls"), "count"),
        "network.backward_composite.self_s": (get("network.backward_composite", "self_s"), "s"),
        "network.backward_composite.us_per_call": (per_call_us("network.backward_composite"), "us"),
        "network.backprop.calls": (get("network.backprop", "calls"), "count"),
        "network.backprop.self_s": (get("network.backprop", "self_s"), "s"),
        "optim.adam_step.calls": (get("optim.adam_step", "calls"), "count"),
        "optim.adam_step.self_s": (get("optim.adam_step", "self_s"), "s"),
        "optim.adam_step.us_per_call": (per_call_us("optim.adam_step"), "us"),
        "metrics.overlap_weights.calls": (get("metrics.overlap_weights", "calls"), "count"),
        "metrics.overlap_weights.self_s": (get("metrics.overlap_weights", "self_s"), "s"),
        "metrics.overlap_weights.us_per_call": (per_call_us("metrics.overlap_weights"), "us"),
        "metrics.overlap_weights.degenerate": (counts.get("metrics.overlap_weights.degenerate", 0), "count"),
        "data.minibatches.calls": (get("data.minibatches", "calls"), "count"),
        "data.minibatches.self_s": (get("data.minibatches", "self_s"), "s"),
        "data.minibatches.mb_gathered": (counts.get("data.minibatches.bytes", 0) / 1e6, "MB"),
        "propensity.train_propensity.total_s": (get("propensity.train_propensity", "total_s"), "s"),
        "propensity.calibrate_temperature.total_s": (get("propensity.calibrate_temperature", "total_s"), "s"),
        "evaluation.evaluate_test_metrics.calls": (get("evaluation.evaluate_test_metrics", "calls"), "count"),
        "evaluation.evaluate_test_metrics.self_s": (get("evaluation.evaluate_test_metrics", "self_s"), "s"),
        "evaluation.rows_per_s": (counts.get("evaluation.rows", 0) / eval_total if eval_total else 0.0, "1/s"),
        "pareto.discover_bounds.share": (share("pareto.discover_bounds"), "ratio"),
        "pareto.train_scalarised.calls": (get("pareto.train_scalarised", "calls"), "count"),
        "pareto.train_scalarised.share": (share("pareto.train_scalarised"), "ratio"),
        "pareto.cull_nondominated.self_s": (get("pareto.cull_nondominated", "self_s"), "s"),
        "pareto.write_candidates_csv.self_s": (get("pareto.write_candidates_csv", "self_s"), "s"),
        "pareto.split_worker.busy_share": (busy_share, "ratio"),
        "pareto.split_worker.dispatch_s": (dispatch_s, "s"),
        "pareto.front_size": (front_size, "count"),
        "adversarial.train_adversarial.calls": (get("adversarial.train_adversarial", "calls"), "count"),
        "adversarial.train_adversarial.share": (share("adversarial.train_adversarial"), "ratio"),
        "adversarial.classifier_objective_gradient.calls": (clf_updates, "count"),
        "adversarial.classifier_objective_gradient.self_share": (
            share("adversarial.classifier_objective_gradient", "self_s"),
            "ratio",
        ),
        "adversarial.clf_eval_per_update": (
            counts.get("adversarial.clf_eval_forwards", 0) / clf_updates if clf_updates else 0.0,
            "ratio",
        ),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return metrics
