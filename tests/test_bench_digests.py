"""The benchmark workloads' seed-0 candidates, pinned.

Every refactor must leave these candidates byte-identical, but bench/run.py
only checks them when it is run by hand.  This test builds the same inputs
and makes the same sweep call (bench/workloads.py, loaded from its file as
test_span_targets.py loads bench/spans.py), then checks the sha256 prefix of
each candidates.csv.  A change that moves these digests on purpose updates
the pins here and names the new digests in CHANGES.md.
"""
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# sha256[:16] of each workload's candidates.csv at seed 0
DIGESTS = {
    "sweep_small_batch": "d87d23a4a9571bc2",
    "sweep_large_batch_jobs2": "ebe3a19cd61748ca",
    "adversarial_1split": "6bc51ef2952fd911",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclass reads its class's module from sys.modules while it builds the frozen Workload
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.slow
@pytest.mark.parametrize("name", list(DIGESTS))
def test_seed_0_candidates_keep_their_pinned_digest(name, workloads, tmp_path):
    csv_path = tmp_path / "candidates.csv"
    workloads.run_sweep(workloads.build_inputs(workloads.WORKLOADS[name], 0), csv_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest()[:16] == DIGESTS[name]
