"""Every fairfront attribute the benchmark's tracer patches exists and is called.

bench/spans.py wraps functions by (module, attribute) name from outside the
package.  A refactor that drops or renames one of those names would only show
when `bench/run.py --trace 1` fails to install its tracer, and one that routes
a call around a name would only zero that name's metrics; these tests fail
first.  spans.py imports only the standard library, so it is loaded from its
file here.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# adversarial imports these for the tracer alone: its sweep reaches them
# through pareto._split_stage, so the adversarial names are never called.
TRACER_ONLY = {
    ("adversarial", "train_propensity"),
    ("adversarial", "calibrate_temperature"),
    ("adversarial", "evaluate_test_metrics"),
}


def traced_names() -> list[tuple[str, str]]:
    """Every (module, attribute) that bench/spans.py patches on fairfront."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.PATCHES + spans.WORKERS]


def small_sweep(num_splits):
    """(dataset, split plan, sweep config) of a sweep that takes about a second."""
    from fairfront.data import SplitPlan, generate_synthetic
    from fairfront.pareto import SweepConfig
    from fairfront.propensity import PropensityConfig
    from fairfront.training import TrainConfig

    config = SweepConfig(
        hidden_width=4,
        train=TrainConfig(epochs=2, batch_size=64),
        propensity=PropensityConfig(hidden_layers=1, hidden_width=4, epochs=2, batch_size=64),
    )
    ds = generate_synthetic(n=240, p=4, bias_strength=2.0, seed=9)
    return ds, SplitPlan(num_splits=num_splits, train_fraction=0.5, master_seed=5), config


def test_every_traced_name_resolves_on_fairfront():
    targets = traced_names()
    assert targets
    missing = [
        f"fairfront.{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"fairfront.{module}"), attr, None))
    ]
    assert not missing


def test_a_split_group_calls_each_traced_stage_once_with_every_split(monkeypatch):
    """bench/spans.py times pareto.discover_bounds and pareto.train_scalarised; the sweep must go through both."""
    from fairfront import pareto

    calls = {"discover_bounds": [], "train_scalarised": []}
    for name, real in [(name, getattr(pareto, name)) for name in calls]:
        def spy(first, *args, _name=name, _real=real, **kwargs):
            calls[_name].append(first)
            return _real(first, *args, **kwargs)

        monkeypatch.setattr(pareto, name, spy)
    ds, plan, config = small_sweep(num_splits=3)
    assert pareto.split_groups(3, pareto.stack_size(64, config.layer_sizes(4)) // 2, 1) == [range(3)]
    res = pareto.run_sweep(ds, plan, pareto.build_lambda_grid(4), config, jobs=1)
    assert len(res.candidates) == 3 * 4 and not res.failures
    (splits,) = calls["discover_bounds"]
    (bounded,) = calls["train_scalarised"]
    assert len(splits) == 3
    assert [id(split) for split, _ in bounded] == [id(split) for split in splits]
    assert [bounds for _, bounds in bounded] == [res.bounds[k] for k in range(3)]


def test_small_sweeps_call_every_traced_name(monkeypatch, tmp_path):
    """A call routed around a traced name would zero its metric silently; each name must be called."""
    from fairfront import adversarial, pareto

    called = set()
    for module, attr in traced_names():
        owner = importlib.import_module(f"fairfront.{module}")

        def spy(*args, _name=(module, attr), _real=getattr(owner, attr), **kwargs):
            called.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    ds, plan, config = small_sweep(num_splits=2)
    grid = pareto.build_lambda_grid(3)
    res = pareto.run_sweep(ds, plan, grid, config, jobs=1)
    tiny = adversarial.AdversaryConfig(
        hidden_layers=1, hidden_width=4, pretrain_classifier_epochs=1, pretrain_adversary_epochs=1, rounds=2
    )
    adv = adversarial.run_adversarial_sweep(ds, plan, grid, config, tiny, jobs=1)
    assert res.candidates and adv.candidates and not res.failures and not adv.failures
    pareto.write_candidates_csv(tmp_path / "candidates.csv", res.candidates)
    never_called = sorted(set(traced_names()) - TRACER_ONLY - called)
    assert not never_called
    assert not TRACER_ONLY & called
