"""Why the max matters: recovering a concave trade-off curve.

A quarter circle bulging away from the origin is the worst case for
weighted-sum scalarisation.  Every strictly interior point of the arc is
Pareto optimal, yet no convex combination of the two objectives is minimised
there, so a weighted sum only ever returns the endpoints.  The weighted
maximum (Chebyshev) objective has no such blind spot.  Its picks minimise
the trainer's own rule, network.chebyshev_weights, on the sampled arc.
"""
import numpy as np

from fairfront import build_lambda_grid, chebyshev_toy_minimiser, linear_toy_minimiser

t = np.linspace(0.0, np.pi / 2.0, 181)
j1 = np.cos(t)  # stand-in for risk
j2 = np.sin(t)  # stand-in for unfairness

grid = build_lambda_grid(15)
print(f"lambda grid ({len(grid.values)} values): "
      + ", ".join(f"{v:.3g}" for v in grid.values))
print()
print(f"{'lambda':>8}  {'chebyshev pick':>14}  {'linear pick':>11}")
for lam in grid.values:
    c = chebyshev_toy_minimiser(lam, j1, j2)
    l = linear_toy_minimiser(lam, j1, j2)
    print(f"{lam:8.3g}  {c:14d}  {l:11d}")

che = {chebyshev_toy_minimiser(lam, j1, j2) for lam in grid.values}
lin = {linear_toy_minimiser(lam, j1, j2) for lam in grid.values}
print()
print(f"chebyshev reached {len(che)} distinct arc points, "
      f"{len([i for i in che if 0 < i < 180])} of them interior")
print(f"linear reached {sorted(lin)} (the endpoints, nothing else)")

# crude sketch of the arc with the chebyshev picks marked
cols = 61
rows = 21
canvas = [[" "] * cols for _ in range(rows)]
for i in range(181):
    x = int(round(j1[i] * (cols - 1)))
    y = int(round(j2[i] * (rows - 1)))
    canvas[rows - 1 - y][x] = "."
for i in che:
    x = int(round(j1[i] * (cols - 1)))
    y = int(round(j2[i] * (rows - 1)))
    canvas[rows - 1 - y][x] = "o"
print()
print("arc (.) with chebyshev picks (o); origin bottom-left:")
for line in canvas:
    print("  " + "".join(line))
