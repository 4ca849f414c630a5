"""Run the fairfront benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N]        # every workload in turn

Each workload runs in fresh interpreters started by this script, with the
BLAS thread count pinned to 1.  Set-up is timed in several fresh processes
and reported as the median.  The measured process repeats the sweep for
``--seconds`` and checks every output.  With ``--trace 0`` the result holds
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics from one more, traced sweep.  Metrics are printed by name with
their units; the last line of standard output is the JSON result.  Every
result is also written, with the environment fingerprint, under
``.bench_out/results/`` for compare.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from fingerprint import pin_blas

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 6  # set-up-only processes per run, besides the measured one
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def code_digest() -> str:
    """Digest of the package and benchmark sources: runs with equal digests must agree byte for byte."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fairfront").rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)  # main() pinned the BLAS variables here
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def run_child(args: list[str], deadline: float, tag: str) -> tuple[float, dict]:
    """Start measure.py in a fresh interpreter; returns (spawn time, its document)."""
    out = OUT / "tmp" / f"{tag}-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "measure.py"), *args, "--out", str(out)]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag}: no result within the {RUN_DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{tag}: measure.py exited with code {proc.returncode}")
    doc = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return t_spawn, doc


def check_reproducible(workload: str, seed: int, digest: str, sweeps: list[dict]) -> None:
    """Every run of a workload at one seed must write the same candidates.csv.

    The first run in a checkout records the digest; later runs, traced or
    not, are held to it.  Sweeps that differ get a problem added.
    """
    record = OUT / "hashes" / f"{workload}-seed{seed}-{digest}.sha256"
    reference = record.read_text().strip() if record.is_file() else sweeps[0]["sha256"]
    for sweep in sweeps:
        if sweep["sha256"] != reference:
            sweep["problems"].append(f"candidates.csv sha256 {sweep['sha256']} differs from {reference}")
    if not record.is_file() and reference is not None:
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(".tmp")
        tmp.write_text(reference + "\n")
        os.replace(tmp, record)


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result document (JSON line plus detail)."""
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(names)}")
    if not (ROOT / "src" / "fairfront" / "__init__.py").is_file():
        raise BenchError(f"no fairfront sources under {ROOT / 'src'}")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]

    setup_samples = []
    for i in range(SETUP_PROBES):
        t_spawn, doc = run_child(base + ["--setup-only"], deadline, f"setup{i}")
        setup_samples.append(doc["t_ready"] - t_spawn)
    work_dir = OUT / "work" / f"{workload}-{os.getpid()}"
    t_spawn, doc = run_child(
        base + ["--seconds", str(seconds), "--trace", str(int(trace)), "--work-dir", str(work_dir)],
        deadline,
        "measure",
    )
    setup_samples.append(doc["t_ready"] - t_spawn)
    shutil.rmtree(work_dir, ignore_errors=True)

    sweeps = doc["sweeps"]
    digest = code_digest()
    check_reproducible(workload, seed, digest, sweeps)
    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed_jobs"] + (s["candidates"] if s["problems"] else 0) for s in sweeps)
    problems = [p for s in sweeps for p in s["problems"]]
    untraced = [s["sweep_s"] for s in sweeps if not s["traced"]]
    pinned = doc["fingerprint"]["blas_threads"]
    if any(v != "1" for v in pinned.values()):
        problems.append(f"BLAS threads not pinned: {pinned}")

    if trace:
        metrics = doc["layers"]
        declared = spec["per_layer"]
    else:
        metrics = {
            "sweep_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": doc["peak_rss_mb"], "unit": "MB"},
            "ok_share": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in declared},
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "time_utc": datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S"),
        "fingerprint": doc["fingerprint"],
        "code_digest": digest,
        "result": line,
        "failed_share": failed / attempted,
        "front_size": sweeps[-1]["front_size"],
        "trend": sweeps[-1]["trend"],
        "sweep_samples": untraced,
        "setup_samples": setup_samples,
        "worker_span_files": doc.get("worker_span_files", 0),
        "span_summary": doc.get("span_summary"),
        "problems": problems,
    }


def save(report: dict) -> None:
    path = OUT / "results" / report["workload"] / (
        f"seed{report['seed']}-trace{report['trace']}-{report['time_utc']}-{os.getpid()}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")


def print_report(report: dict) -> None:
    line = report["result"]
    print(
        f"{report['workload']} seed {report['seed']}: {len(report['sweep_samples'])} untraced sweep(s), "
        f"OPENBLAS_NUM_THREADS={report['fingerprint']['blas_threads']['OPENBLAS_NUM_THREADS']}, "
        f"{'correct' if line['correct'] else 'INCORRECT'}"
    )
    rows = [(name, m["value"], m["unit"]) for name, m in line["metrics"].items()]
    if not report["trace"]:
        rows += [("failed_share", report["failed_share"], "ratio"), ("front_size", report["front_size"], "count")]
    for name, value, unit in rows:
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the fairfront benchmark.")
    parser.add_argument("--workload", help="one workload; default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per run; default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM must unwind through run_child's cleanup, which kills the child's process group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_blas()
    try:
        spec = load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
        results = {}
        for name in workloads:
            report = run_workload(spec, name, args.seed, seconds, bool(args.trace))
            save(report)
            print_report(report)
            results[name] = report["result"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[workloads[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
