"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE NEW

BASE and NEW are result files, or directories searched for them, as run.py
writes them under ``.bench_out/results/``.  For every workload in both sets
and every end-to-end metric of BENCHMARK.json, prints each side's median and
quartiles and the change of the medians, and flags a change worse than the
metric's bound.  Results whose environment fingerprints differ are not
comparable: the script refuses them with exit code 2.  Exit code 1 means a
metric got worse by more than its bound.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from fingerprint import fingerprint_mismatch

ROOT = Path(__file__).resolve().parent.parent


def load_results(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    reports = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return [r for r in reports if "fingerprint" in r and r.get("trace") == 0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base: list[dict], new: list[dict], spec: dict) -> tuple[list[str], int]:
    """Report lines and the number of metrics worse than their bound."""
    values = {"base": defaultdict(lambda: defaultdict(list)), "new": defaultdict(lambda: defaultdict(list))}
    for side, reports in (("base", base), ("new", new)):
        for r in reports:
            for name, m in r["result"]["metrics"].items():
                values[side][r["workload"]][name].append(m["value"])
    lines, worse = [], 0
    for workload in sorted(set(values["base"]) & set(values["new"])):
        lines.append(workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = values["base"][workload][name], values["new"][workload][name]
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1]
            regress = change > metric["bound"] if metric["better"] == "lower" else -change > metric["bound"]
            worse += regress
            lines.append(
                f"  {name:<12} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] (n={len(b)})  "
                f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] (n={len(n)})  "
                f"{change:+.1%} {'WORSE than bound' if regress else 'within bound'} {metric['bound']:.0%}"
            )
    return lines, worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load_results(argv[0]), load_results(argv[1])
    if not base or not new:
        print("no untraced results found in one of the sets", file=sys.stderr)
        return 2
    mismatch = fingerprint_mismatch(r["fingerprint"] for r in base + new)
    if mismatch:
        print(f"refusing to compare: environment fingerprints differ in {', '.join(mismatch)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, worse = compare(base, new, spec)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
