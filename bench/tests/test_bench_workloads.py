"""Smoke configurations of every workload through the benchmark's own path."""
import json
from pathlib import Path

import pytest

from measure import measure
from workloads import SMOKE, WORKLOADS, build_inputs

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(SMOKE)


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_run_is_correct_and_traced(name, tmp_path):
    workload = SMOKE[name]
    doc = measure(build_inputs(workload, seed=1), tmp_path, seconds=0.0, trace=True)
    untraced, traced = doc["sweeps"]
    assert not untraced["problems"] and not traced["problems"]
    assert untraced["candidates"] == untraced["attempted"] == workload.splits * workload.lambdas
    assert traced["sha256"] == untraced["sha256"], "tracing changed the candidates"
    layers = {k: v["value"] for k, v in doc["layers"].items()}
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["training.fit_network.calls"] > 0
    assert layers["network.forward.eval.calls"] > 0
    assert layers["optim.adam_step.calls"] > 0
    assert layers["evaluation.evaluate_test_metrics.calls"] == untraced["candidates"]
    if workload.kind == "adversarial":
        assert layers["adversarial.train_adversarial.calls"] == workload.lambdas
        assert layers["adversarial.clf_eval_per_update"] > 1.0
        assert layers["network.backprop.calls"] > 0
        assert layers["pareto.train_scalarised.calls"] == 0
    else:
        assert layers["pareto.train_scalarised.calls"] == workload.splits * (workload.lambdas - 2)
        assert layers["metrics.overlap_weights.calls"] > 0
        assert layers["data.minibatches.mb_gathered"] > 0
        assert layers["adversarial.train_adversarial.calls"] == 0
    if workload.jobs > 1:
        assert doc["worker_span_files"] == workload.splits
        assert 0.0 < layers["pareto.split_worker.busy_share"] <= 1.0


def test_worker_spans_hang_under_the_sweep_span(tmp_path):
    from spans import Tracer
    from workloads import run_sweep

    inputs = build_inputs(SMOKE["sweep_large_batch_jobs2"], seed=2)
    tracer = Tracer(tmp_path / "spans")
    with tracer.installed():
        run_sweep(inputs, tmp_path / "c.csv")
    assert tracer.collect_workers() == 2
    (sweep,) = [s for s in tracer.spans if s[2] == "pareto.run_sweep"]
    workers = [s for s in tracer.spans if s[2] == "pareto.split_worker"]
    assert len({s[0][0] for s in workers}) == 2, "both pool workers report spans"
    assert all(s[1] == sweep[0] for s in workers)
    assert all(sweep[3] <= s[3] and s[4] <= sweep[4] for s in workers)
    assert not list((tmp_path / "spans").glob("*.json"))
