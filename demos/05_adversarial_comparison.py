# Chebyshev sweep vs adversarial debiasing on the same budget.
#
# The adversarial baseline trains classifier and adversary in alternation at
# each trade-off value; there is no scalarisation and no standardisation
# stage.  Comparing the non-dominated counts in the (r_test, u_ato) plane
# shows how much of the attainable trade-off curve each method exposes.

import numpy as np

from fairfront import (
    AdversaryConfig,
    PropensityConfig,
    SplitPlan,
    SweepConfig,
    TrainConfig,
    build_lambda_grid,
    cull_nondominated,
    generate_synthetic,
    run_adversarial_sweep,
    run_sweep,
)


def front_count(result):
    r = np.array([c.metrics["r_test"] for c in result.candidates])
    u = np.array([c.metrics["u_ato"] for c in result.candidates])
    return int(cull_nondominated(r, u).sum())


ds = generate_synthetic(n=1200, p=6, bias_strength=3.0, confounding=2.0, seed=4)
plan = SplitPlan(num_splits=2, train_fraction=0.5, master_seed=0)
grid = build_lambda_grid(5)
cfg = SweepConfig(
    num_layers=2, hidden_width=6, dropout_prob=0.2,
    train=TrainConfig(epochs=40, batch_size=128),
    propensity=PropensityConfig(hidden_layers=2, hidden_width=16, epochs=40, batch_size=128),
)
adv_cfg = AdversaryConfig(hidden_layers=3, hidden_width=16, rounds=80)

che = run_sweep(ds, plan, grid, cfg, jobs=2)
adv = run_adversarial_sweep(ds, plan, grid, cfg, adv_cfg, jobs=2)

print(f"chebyshev sweep:  {len(che.candidates)} candidates, front size {front_count(che)}")
print(f"adversarial sweep: {len(adv.candidates)} candidates, front size {front_count(adv)}")
print()
print("per-lambda medians (over splits):")
print(f"{'lambda':>8} {'che r':>8} {'che u':>8} {'adv r':>8} {'adv u':>8}")
for k, lam in enumerate(grid.values):
    cr = np.median([c.metrics["r_test"] for c in che.candidates if c.lambda_index == k])
    cu = np.median([c.metrics["u_ato"] for c in che.candidates if c.lambda_index == k])
    ar = np.median([c.metrics["r_test"] for c in adv.candidates if c.lambda_index == k])
    au = np.median([c.metrics["u_ato"] for c in adv.candidates if c.lambda_index == k])
    print(f"{lam:8.3g} {cr:8.4f} {cu:8.4f} {ar:8.4f} {au:8.4f}")
