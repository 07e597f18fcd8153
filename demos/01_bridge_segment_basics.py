"""Crossing mathematics on a single interjump interval.

Between two simulated endpoint values the diffusion is a Brownian bridge, so
the probability of dipping below a level, and the density of the first time
it happens, have closed forms.  This script evaluates both with the array
kernels the engine runs and checks them the slow way: by simulating many
fine-grained bridges.
"""

import numpy as np

from fptmc.bridge import fpt_density_array, survival_array, uniform_candidates

rng = np.random.default_rng(7)

x_start = 1.0   # value just after the previous jump
x_end = 0.4     # value just before the next jump
t_start, t_end = 0.0, 1.0
sigma = 0.8
level = 0.0     # the barrier, held constant over the interval
tau = t_end - t_start

p_survive = float(survival_array(x_start, x_end, level, tau, sigma))
print(f"segment: start {x_start}, end {x_end}, barrier {level}")
print(f"probability the bridge never touches the barrier: {p_survive:.4f}")
print(f"interior crossing probability:                    {1 - p_survive:.4f}")

# brute-force check: step 20,000 bridges through the interval
n_paths, n_steps = 20_000, 4000
dt = tau / n_steps
x = np.full(n_paths, x_start)
alive = np.ones(n_paths, dtype=bool)
t = 0.0
for _ in range(n_steps):
    rem = tau - t
    x = x + (x_end - x) * (dt / rem) + np.sqrt(
        sigma**2 * dt * (rem - dt) / rem
    ) * rng.standard_normal(n_paths)
    t += dt
    alive &= x > level
# grid checks can miss brief excursions, so this sits slightly high
print(f"simulated survival over {n_paths} bridges:         {alive.mean():.4f}")

# the crossing-time density integrates to the crossing probability
ts = np.linspace(0.02, 0.98, 200)
dens = fpt_density_array(ts, x_start, x_end, level, t_start, t_end, sigma)
print(f"quadrature of the crossing density:               {np.trapezoid(dens, ts):.4f}")

# one uniform candidate per run either crosses (with a weight) or does not;
# the engine draws them for a whole block of (run, component) cells at once
n = 5
cells, times, weights = uniform_candidates(
    np.full((n, 1), x_start),
    np.full((n, 1), x_end),
    np.full((n, 1), level),
    np.full(n, t_start),
    np.full(n, t_end),
    np.array([sigma]),
    1.0 - rng.random((n, 1)),
    np.ones((n, 1), dtype=bool),
)
crossed = dict(zip(cells[0].tolist(), zip(times, weights)))
print("\nfive candidate draws:")
for run in range(n):
    if run in crossed:
        time, weight = crossed[run]
        print(f"  crossed at t = {time:.3f}, importance weight {weight:.3f}")
    else:
        print("  no interior crossing in this run")
