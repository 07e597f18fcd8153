"""Crossing mathematics on a single interjump interval.

Between two simulated endpoint values the diffusion is a Brownian bridge, so
the probability of dipping below the barrier, and the density of the first
time it happens, have closed forms.  They depend only on the distances d0
and d1 of the interval's start and end above the barrier, so given the
distances to an affine barrier at both ends they are exact for it: the
distance process is again a Brownian bridge.  This script evaluates both
with the array kernels the engine runs and checks them the slow way: by
simulating many fine-grained bridges against a slanted barrier.  It then
draws crossing times the way the engine does, exactly and with weight 1,
sets them beside the paper's weighted uniform candidate, and histograms the
exact draws against the density.
"""

import numpy as np

from fptmc.bridge import (
    crossing_cells,
    crossing_times,
    fpt_density_array,
    survival_array,
)

rng = np.random.default_rng(7)

x_start = 1.0   # value just after the previous jump
x_end = 0.4     # value just before the next jump
t_start, t_end = 0.0, 1.0
sigma = 0.8
icpt, slope = 0.0, 0.3   # the barrier D(t) = icpt + slope t
tau = t_end - t_start
d0 = x_start - (icpt + slope * t_start)   # distances above the barrier
d1 = x_end - (icpt + slope * t_end)

p_survive = float(survival_array(d0, d1, tau, sigma))
print(f"segment: start {x_start}, end {x_end}, barrier {icpt} + {slope} t")
print(f"distances above the barrier: start {d0}, end {d1:.1f}")
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
    alive &= x > icpt + slope * t
# grid checks can miss brief excursions, so this sits slightly high
print(f"simulated survival over {n_paths} bridges:         {alive.mean():.4f}")

# the crossing-time density integrates to the crossing probability
ts = np.linspace(t_start, t_end, 4001)[1:-1]  # open interval: g is 0 at both ends
dens = fpt_density_array(ts, d0, d1, t_start, t_end, sigma)
print(f"quadrature of the crossing density:               {np.trapezoid(dens, ts):.4f}")

# one uniform per run decides whether the bridge crosses; the engine does it
# for a whole block of (component, run) cells at once, one row per
# component, drawing the uniforms itself, and then draws the time of each
# crossing exactly from the same generator, so every crossing counts once,
# with weight 1.  The paper's sampler instead places the crossing at the
# candidate t0 + tau / (1 - P) * u and weights it by tau / (1 - P) * g(candidate).
def draw(n, seed):
    rng = np.random.default_rng(seed)
    t0, t1, sig = np.full(n, t_start), np.full(n, t_end), np.array([sigma])
    cells, w, start, end = crossing_cells(
        np.full((1, n), d0), np.full((1, n), d1), t0, t1, sig, rng
    )
    times = crossing_times(cells, w, start, end, t0, t1, sig, rng)
    return dict(zip(cells[1].tolist(), times))


# the uniforms the engine's kernel draws first from a generator of that seed
u = 1.0 - np.random.default_rng(1).random(5)
stretch = tau / (1.0 - p_survive)
print("\nfive runs, exact draw and the paper's candidate on the same uniforms:")
exact = draw(len(u), 1)
for run in range(len(u)):
    if run in exact:
        t_un = t_start + stretch * u[run]
        g_un = fpt_density_array(t_un, d0, d1, t_start, t_end, sigma)
        w_un = stretch * float(g_un)
        print(f"  crossed: exact t = {exact[run]:.3f}, "
              f"candidate t = {t_un:.3f} (weight {w_un:.3f})")
    else:
        print("  no interior crossing in this run")

# the exact draws, histogrammed, follow the crossing density given a crossing
times = np.array(list(draw(200_000, 2).values()))
edges = np.linspace(t_start, t_end, 11)
width = edges[1] - edges[0]
counts, _ = np.histogram(times, bins=edges)
print(f"\n{len(times)} exact crossing times against g(t) / (1 - P), bin averages:")
print("  bin            histogram  density")
for lo, c in zip(edges[:-1], counts):
    sub = lo + (np.arange(200) + 0.5) * width / 200  # midpoint rule in the bin
    g = fpt_density_array(sub, d0, d1, t_start, t_end, sigma).mean()
    print(f"  [{lo:.1f}, {lo + width:.1f}]   {c / len(times) / width:8.4f}  {g / (1 - p_survive):8.4f}")
