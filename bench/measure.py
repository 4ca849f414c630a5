"""One measured run of one workload, in the fresh interpreter run.py starts.

    python3 bench/measure.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE [--setup-only]

The BLAS thread count is pinned before numpy is imported.  With
``--setup-only`` the process builds the inputs and reports when it was
ready to call the sweep.  Otherwise it repeats the sweep until
``--seconds`` have passed, checks every sweep's output, and with
``--trace 1`` runs one untraced sweep and then one under the span tracer.
The JSON document written to ``--out`` is read by run.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import check_sweep
from fingerprint import environment_fingerprint, pin_blas
from spans import Tracer, layer_metrics, summarise
from workloads import WORKLOADS, build_inputs, run_sweep

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any pool worker it reaped, in MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def timed_sweep(inputs, csv_path: Path) -> dict:
    """Time one sweep plus its CSV, then check what it produced."""
    from fairfront.pareto import read_candidates_csv

    csv_path.unlink(missing_ok=True)
    start = time.perf_counter()
    result = run_sweep(inputs, csv_path)
    sweep_s = time.perf_counter() - start
    problems, trend = check_sweep(result, inputs)
    front_size = 0
    sha = None
    if csv_path.exists():
        sha = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        rows, _ = read_candidates_csv(csv_path)
        if len(rows) != len(result.candidates):
            problems.append(f"CSV holds {len(rows)} rows for {len(result.candidates)} candidates")
        front_size = sum(row["nondominated"] for row in rows)
    return {
        "sweep_s": sweep_s,
        "attempted": inputs.workload.splits * len(inputs.grid),
        "candidates": len(result.candidates),
        "failed_jobs": len(result.failures),
        "problems": problems,
        "sha256": sha,
        "front_size": front_size,
        "trend": trend,
        "traced": False,
    }


def measure(inputs, work_dir: Path, seconds: float, trace: bool) -> dict:
    """Sweep until ``seconds`` have passed; with ``trace``, once plain and once traced."""

    work_dir.mkdir(parents=True, exist_ok=True)
    csv_path = work_dir / "candidates.csv"
    sweeps = []
    begin = time.perf_counter()
    while True:
        sweeps.append(timed_sweep(inputs, csv_path))
        if trace or time.perf_counter() - begin >= seconds:
            break
    doc = {"sweeps": sweeps, "peak_rss_mb": peak_rss_mb()}
    if trace:
        tracer = Tracer(work_dir / "spans")
        with tracer.installed():
            traced = timed_sweep(inputs, csv_path)
        traced["traced"] = True
        doc["worker_span_files"] = tracer.collect_workers()
        overhead = traced["sweep_s"] - statistics.median(s["sweep_s"] for s in sweeps)
        sweeps.append(traced)
        jobs = max(1, min(inputs.workload.jobs, inputs.workload.splits))
        layers = layer_metrics(tracer.spans, tracer.counts, jobs, overhead, traced["front_size"])
        doc["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        doc["span_summary"] = dict(summarise(tracer.spans))
    return doc


def main(argv=None) -> int:
    pin_blas()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--work-dir")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import fairfront

    source = Path(fairfront.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"fairfront was imported from {source}, not from this checkout's src/", file=sys.stderr)
        return 2

    inputs = build_inputs(WORKLOADS[args.workload], args.seed)
    t_ready = time.perf_counter()
    doc = {"t_ready": t_ready}
    if not args.setup_only:
        doc.update(measure(inputs, Path(args.work_dir), args.seconds, bool(args.trace)))
        doc["fingerprint"] = environment_fingerprint()
    out = Path(args.out)
    out.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
