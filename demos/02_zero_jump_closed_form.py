"""Sanity anchor: with the jump clock switched off, the model is plain
Brownian motion and the first-passage law through a constant barrier is
classical.  The engine's crossing count over the runs should land on it.
"""

import math

import numpy as np
from scipy.stats import norm

from fptmc import ModelSpec, estimate_densities, run_engine

spec = ModelSpec(
    m=1,
    x0=[0.0],
    mu=[0.0],
    sigma=[[1.0]],
    jump_rate=0.0,
    jump_mean=[0.0],
    jump_sd=[0.0],
    barrier_intercept=[-1.0],
    barrier_slope=[0.0],
    horizon=1.0,
)

n_runs = 50_000
result = run_engine(spec, n_runs, seed=99)
p_exact = 2.0 * norm.cdf(-1.0)  # reflection principle
print(f"exact crossing probability 2*Phi(-1):  {p_exact:.5f}")
# every recorded crossing has weight 1: the estimate is a count over the runs
print(f"engine crossing frequency:             {result.crossing_probabilities()[0]:.5f}")

grid = np.linspace(0.0, 1.0, 512)
marginals, _ = estimate_densities(result, grid)
exact = np.zeros_like(grid)
pos = grid > 0
exact[pos] = np.exp(-1.0 / (2.0 * grid[pos])) / np.sqrt(2.0 * math.pi * grid[pos] ** 3)

print(f"\nestimated bandwidth: {marginals[0].bandwidth:.4f}")
print("  t     estimate   exact")
for t in (0.1, 0.2, 0.35, 0.5, 0.75, 1.0):
    k = int(t * 511)
    print(f"  {grid[k]:.2f}  {marginals[0].values[k]:8.4f}  {exact[k]:8.4f}")
