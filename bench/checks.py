"""Output check of one sweep: what a correct run of a workload must produce."""
from __future__ import annotations

import math
import statistics

MV_KEYS = ("mv_eo", "mv_eopp", "mv_dp")


def check_sweep(result, inputs) -> tuple[list[str], dict]:
    """Problems found in a SweepResult, and the medians the trend check read.

    An empty problem list means the run is correct: every (split, lambda)
    job yields a candidate with finite metrics in range.  On the scalarised
    sweeps the trade-off must point the right way: the median u_ato at
    lambda = 1 lies below the one at lambda = 0 and the median r_test above
    it.  Only the direction is checked; the size of the drop varies with the
    seed.
    """
    w = inputs.workload
    problems = []
    trend = {}
    expected = w.splits * len(inputs.grid)
    if len(result.candidates) != expected or result.failures:
        problems.append(f"{len(result.candidates)} candidates and {len(result.failures)} failures, expected {expected} and 0")
    for c in result.candidates:
        m = c.metrics
        where = f"split {c.split_id} lambda {c.lambda_:g}"
        if not all(math.isfinite(v) for v in m.values()):
            problems.append(f"{where}: non-finite metric in {m}")
            continue
        if m["r_test"] <= 0.0:
            problems.append(f"{where}: r_test {m['r_test']} <= 0")
        if m["u_ato"] < 0.0:
            problems.append(f"{where}: u_ato {m['u_ato']} < 0")
        for key in MV_KEYS:
            if not 0.0 <= m[key] <= 1.0:
                problems.append(f"{where}: {key} {m[key]} outside [0, 1]")
    if w.kind == "sweep" and not problems:
        def median_at(lam, key):
            return statistics.median(c.metrics[key] for c in result.candidates if c.lambda_ == lam)

        trend = {f"{key}@{lam:g}": median_at(lam, key) for key in ("u_ato", "r_test") for lam in (0.0, 1.0)}
        if not trend["u_ato@1"] < trend["u_ato@0"]:
            problems.append(f"median u_ato does not fall from lambda 0 to 1: {trend['u_ato@0']} -> {trend['u_ato@1']}")
        if not trend["r_test@1"] > trend["r_test@0"]:
            problems.append(f"median r_test does not rise from lambda 0 to 1: {trend['r_test@0']} -> {trend['r_test@1']}")
    return problems, trend
