## A small fairness-accuracy sweep, end to end.
##
## For every (split, lambda) pair the sweep trains one classifier that
## minimises max((1 - lambda) * standardised risk, lambda * standardised
## unfairness).  lambda = 0 and lambda = 1 are the pure endpoints; they also
## supply the standardisation bounds for the interior values.  The candidate
## table below is what the `fairfront run` command writes to candidates.csv.

import os
import tempfile

import numpy as np

from fairfront import (
    PropensityConfig,
    SplitPlan,
    SweepConfig,
    TrainConfig,
    build_lambda_grid,
    cull_nondominated,
    generate_synthetic,
    run_sweep,
    write_candidates_csv,
)

ds = generate_synthetic(n=1200, p=6, bias_strength=3.0, confounding=2.0, seed=4)
plan = SplitPlan(num_splits=2, train_fraction=0.5, master_seed=0)
cfg = SweepConfig(
    num_layers=2, hidden_width=6, dropout_prob=0.2,
    train=TrainConfig(epochs=40, batch_size=128),
    propensity=PropensityConfig(hidden_layers=2, hidden_width=16, epochs=40, batch_size=128),
)

result = run_sweep(ds, plan, build_lambda_grid(5), cfg, jobs=2)
print(f"{len(result.candidates)} candidates, {len(result.failures)} failures")
print()
print(f"{'split':>5} {'lambda':>8} {'r_test':>8} {'u_ato':>8} {'mv_dp':>8}")
for c in result.candidates:
    print(f"{c.split_id:5d} {c.lambda_:8.3g} {c.metrics['r_test']:8.4f} "
          f"{c.metrics['u_ato']:8.4f} {c.metrics['mv_dp']:8.4f}")

r = np.array([c.metrics["r_test"] for c in result.candidates])
u = np.array([c.metrics["u_ato"] for c in result.candidates])
keep = cull_nondominated(r, u)
print()
print(f"non-dominated in the (r_test, u_ato) plane: {int(keep.sum())} of {len(r)}")
for i in np.flatnonzero(keep)[np.argsort(r[keep], kind="stable")]:
    print(f"  risk {r[i]:.4f}  unfairness {u[i]:.4f}")

out = os.path.join(tempfile.mkdtemp(prefix="fairfront_demo_"), "candidates.csv")
write_candidates_csv(out, result.candidates)
print()
print(f"candidate table written to {out}")
