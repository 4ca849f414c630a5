"""Every fairfront attribute the benchmark's tracer patches exists.

bench/spans.py wraps functions by (module, attribute) name from outside the
package.  A refactor that drops or renames one of those names would only show
when `bench/run.py --trace 1` fails to install its tracer; this test fails
first.  spans.py imports only the standard library, so it is loaded from its
file here.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves_on_fairfront():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(module, attr) for module, attr, *_ in spans.PATCHES + spans.WORKERS]
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
    from fairfront.data import SplitPlan, generate_synthetic
    from fairfront.propensity import PropensityConfig
    from fairfront.training import TrainConfig

    calls = {"discover_bounds": [], "train_scalarised": []}
    for name, real in [(name, getattr(pareto, name)) for name in calls]:
        def spy(first, *args, _name=name, _real=real, **kwargs):
            calls[_name].append(first)
            return _real(first, *args, **kwargs)

        monkeypatch.setattr(pareto, name, spy)
    config = pareto.SweepConfig(
        hidden_width=4,
        train=TrainConfig(epochs=2, batch_size=64),
        propensity=PropensityConfig(hidden_layers=1, hidden_width=4, epochs=2, batch_size=64),
    )
    ds = generate_synthetic(n=240, p=4, bias_strength=2.0, seed=9)
    plan = SplitPlan(num_splits=3, train_fraction=0.5, master_seed=5)
    assert pareto.split_groups(3, pareto.stack_size(64, config.layer_sizes(4)) // 2, 1) == [range(3)]
    res = pareto.run_sweep(ds, plan, pareto.build_lambda_grid(4), config, jobs=1)
    assert len(res.candidates) == 3 * 4 and not res.failures
    (splits,) = calls["discover_bounds"]
    (bounded,) = calls["train_scalarised"]
    assert len(splits) == 3
    assert [id(split) for split, _ in bounded] == [id(split) for split in splits]
    assert [bounds for _, bounds in bounded] == [res.bounds[k] for k in range(3)]
