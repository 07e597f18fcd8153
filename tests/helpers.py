"""Independent oracles used across the test suite.

Everything here is deliberately separate from the package implementation:
closed forms from the reflection principle, quadrature, and brute-force path
simulation are the reference against which the fast formulas are judged.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
from scipy.integrate import quad
from scipy.signal import fftconvolve
from scipy.special import ive
from scipy.stats import norm, poisson

# second-order Richardson weights in sqrt(dt) for nested grids (n, n/2, n/4):
# combination annihilates both the sqrt(dt) and dt terms of the grid bias
_LEVELS = np.array([1.0, math.sqrt(2.0), 2.0])
_M = np.vstack([np.ones(3), _LEVELS, _LEVELS**2])
RICHARDSON_W = np.linalg.solve(_M, np.array([1.0, 0.0, 0.0]))


def simulate_bridge_survival(
    a: float,
    b: float,
    level: float,
    tau: float,
    sigma: float,
    n_paths: int,
    n_steps: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Brute-force estimate of P(bridge from a to b stays above level).

    Simulates bridges by sequential conditional stepping and counts grid
    minima, on the full grid and on its 2x and 4x coarsenings of the same
    paths.  Checking only grid points overstates survival by O(sqrt(dt)), so
    the three counts are Richardson-extrapolated; returns (estimate,
    standard error of the extrapolated estimator).
    """
    if n_steps % 4:
        raise ValueError("n_steps must be divisible by 4")
    dt = tau / n_steps
    x = np.full(n_paths, float(a))
    above = np.ones((3, n_paths), dtype=bool)  # fine, half, quarter grids
    t = 0.0
    for k in range(1, n_steps + 1):
        rem = tau - t
        mean = x + (b - x) * (dt / rem)
        var = sigma * sigma * dt * (rem - dt) / rem
        x = mean + math.sqrt(max(var, 0.0)) * rng.standard_normal(n_paths)
        t += dt
        ok = x > level
        above[0] &= ok
        if k % 2 == 0:
            above[1] &= ok
        if k % 4 == 0:
            above[2] &= ok
    z = RICHARDSON_W @ above
    return float(z.mean()), float(z.std(ddof=1) / math.sqrt(n_paths))


def simulate_bridge_crossing_times(
    a: float,
    b: float,
    level: float,
    tau: float,
    sigma: float,
    n_paths: int,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """First grid times at which simulated bridges reach the level; only
    paths that cross within the interval are returned."""
    dt = tau / n_steps
    x = np.full(n_paths, float(a))
    hit = np.full(n_paths, np.nan)
    t = 0.0
    for k in range(1, n_steps + 1):
        rem = tau - t
        mean = x + (b - x) * (dt / rem)
        var = sigma * sigma * dt * (rem - dt) / rem
        x = mean + math.sqrt(max(var, 0.0)) * rng.standard_normal(n_paths)
        t += dt
        newly = np.isnan(hit) & (x <= level)
        hit[newly] = t
    return hit[~np.isnan(hit)]


def quad_interjump_density(d0, d1, t_start, t_end, sigma, lo=None, hi=None) -> float:
    """Adaptive quadrature of the interior crossing-time density of a bridge
    with start and end distances d0 and d1 to the barrier, over its open
    interval, or over [lo, hi] inside it."""
    from fptmc.bridge import fpt_density_array

    val, _ = quad(
        lambda t: float(fpt_density_array(t, d0, d1, t_start, t_end, sigma)),
        t_start if lo is None else lo,
        t_end if hi is None else hi,
        limit=300,
    )
    return val


def uniform_candidates(d0, d1, t0, t1, sigma, u):
    """The paper's uniform-candidate sampler, on the arguments of
    ``bridge.crossing_cells``.  It returns the crossing cells, their times
    and their weights, where the engine's exact draw returns cells and times
    only: every exact crossing has weight 1.

    The crossing decision is the engine's, u <= 1 - P.  A crossing cell's
    time is the candidate t0 + tau / (1 - P) * u, which given the crossing is
    uniform on the interval, and it carries the importance weight
    tau / (1 - P) * g(s), so weighted times are an unbiased sample of the
    crossing-time density g.  A candidate that rounds onto an endpoint,
    where g is singular, is not accepted.
    """
    from fptmc import bridge

    tau = t1 - t0
    keep = 1.0 - bridge.survival_array(d0, d1, tau, sigma[:, None])
    hit = u <= keep
    comps, runs = np.nonzero(hit)
    stretch = tau[runs] / keep[comps, runs]
    s = t0[runs] + stretch * u[comps, runs]
    ok = (s < t1[runs]) & (s > t0[runs])
    ii = (comps[ok], runs[ok])
    s = s[ok]
    if len(s) == 0:
        return ii, s, np.empty(0)
    g = bridge.fpt_density_array(s, d0[ii], d1[ii], t0[ii[1]], t1[ii[1]], sigma[ii[0]])
    return ii, s, stretch[ok] * g


def midpoint_block(spec, rng: np.random.Generator, size: int):
    """The bridge-sampling block kernel as it was before the bridge kernels
    took distances and drew crossing times in place, kept as the reference
    for that rewrite: it holds each barrier at its interval's midpoint level,
    enters grazing segments as immediate crossings and calls its own copy of
    the draw, ``level_draw_crossings``.  Returns (times, weights, kinds,
    grazing count) on the random stream of ``unif.simulate_block``.
    """
    from fptmc.bridge import _cells
    from fptmc.results import KIND_AT_JUMP, KIND_INTERIOR, Crossings
    from fptmc.unif import _graze_times

    m = spec.m
    T = spec.horizon
    lam = spec.jump_rate
    sigma = spec.sigma
    sig_eff = spec.effective_sigmas()
    icpt, slope = spec.barrier_intercept, spec.barrier_slope
    mu, icpt_c, slope_c, jump_mean, jump_sd = (
        a[:, None] for a in (spec.mu, icpt, slope, spec.jump_mean, spec.jump_sd)
    )

    out = Crossings.never_crossed(m, size)
    grazing = 0

    run = np.arange(size)
    state = np.repeat(spec.x0[:, None], size, axis=1)
    alive = np.ones((m, size), dtype=bool)
    t0 = np.zeros(size)

    while run.size:
        n = run.size
        # lazy jump clock: the next instant of every live run
        if lam > 0:
            t1 = rng.exponential(1.0 / lam, n)
            t1 += t0
            jumped = t1 < T
            np.minimum(t1, T, out=t1)
        else:
            jumped = np.zeros(n, dtype=bool)
            t1 = np.full(n, T)
        tau = t1 - t0
        # block-sized arrays are updated in place where they can be: a
        # fresh temporary costs more than the arithmetic done in it
        x_end = sigma @ rng.standard_normal((m, n))
        x_end *= np.sqrt(tau)
        x_end += mu * tau
        x_end += state
        level = slope_c * (t0 + 0.5 * tau)
        level += icpt_c

        # defensive: a segment entered at or below its frozen level counts as
        # an immediate crossing carried over from the previous jump
        graze = alive & (state <= level)
        if graze.any():
            comps, cols = _cells(graze)
            times = _graze_times(
                t0[cols], t1[cols], state[comps, cols], icpt[comps], slope[comps]
            )
            out.record(comps, run[cols], times, KIND_AT_JUMP)
            grazing += len(cols)
            alive &= ~graze

        # condition 1: interior bridge crossing, decided by one uniform
        u = rng.random((m, n))
        np.subtract(1.0, u, out=u)
        # its weights are all 1, the weight every crossing carries
        ii, s, _ = level_draw_crossings(state, x_end, level, t0, t1, sig_eff, u, alive, rng)
        out.record(ii[0], run[ii[1]], s, KIND_INTERIOR)
        alive[ii] = False

        # retire runs that reached the horizon or have no component left;
        # the rest move on to their jump at t1
        cont = np.flatnonzero(jumped & alive.any(axis=0))
        run, t0 = run.take(cont), t1.take(cont)
        pre, alive = x_end.take(cont, axis=1), alive.take(cont, axis=1)

        # condition 3: the jump at t1 lands at or below the barrier
        state = rng.standard_normal(pre.shape)
        state *= jump_sd
        state += jump_mean
        state += pre
        level_right = slope_c * t0
        level_right += icpt_c
        at_jump = alive & (state <= level_right)
        if at_jump.any():
            comps, cols = _cells(at_jump)
            out.record(comps, run[cols], t0[cols], KIND_AT_JUMP)
            alive &= ~at_jump
            cont = np.flatnonzero(alive.any(axis=0))
            run, t0 = run.take(cont), t0.take(cont)
            state, alive = state.take(cont, axis=1), alive.take(cont, axis=1)

    return (*out, grazing)


def level_draw_crossings(x_start, x_end, level, t0, t1, sigma, u, alive, rng):
    """The engine's crossing step as it was when one call took values and a
    level, decided the crossings and drew their times out of place, for
    ``midpoint_block``.  Its survival is ``bridge.survival_array`` of the
    differences to the level, which the step then formed itself, the same
    to the last bit."""
    from fptmc.bridge import _cells, survival_array

    tau = t1 - t0
    keep = survival_array(x_start - level, x_end - level, tau, sigma[:, None])
    np.subtract(1.0, keep, out=keep)
    hit = alive & (u <= keep)
    if not hit.any():
        none = np.empty(0, dtype=np.intp)
        return (none, none), np.empty(0), np.empty(0)
    ii = _cells(hit)
    comps, runs = ii
    lv = level[ii]
    frac = reference_ig_fraction(
        x_start[ii] - lv,
        np.abs(x_end[ii] - lv),
        sigma[comps] * np.sqrt(tau[runs]),
        rng.standard_normal(len(runs)),
        # given u <= keep, u / keep is uniform on (0, 1]: it picks the root
        u[ii] / keep[ii],
    )
    # a time that rounds onto an endpoint is kept: weight 1 needs no density
    s = np.minimum(t0[runs] + tau[runs] * frac, t1[runs])
    return ii, s, np.ones(len(s))


def reference_ig_fraction(d0, d1, scale, z, w):
    """The formula of ``bridge._ig_fraction``, kept here as the reference the
    package's draw is compared with: the same operations, each into a fresh
    array."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = d1 / d0
        q = 0.5 * np.square(z * scale / d0)
        a = r + q + np.sqrt(q) * np.sqrt(q + 2.0 * r)
        return np.where(w * (a + r) <= a, 1.0 / (1.0 + a), a / (a + r * r))


def merge_by_block(engine: str, simulate, n_runs: int, seed: int):
    """The per-block merge the engines used before blocks wrote into one
    shared result: simulate each block alone as ``simulate(rng, size)`` with
    ``block_rng(seed, b)``, concatenate the blocks' (m, size) arrays in block
    order, then select."""
    from fptmc import results

    blocks = [
        simulate(results.block_rng(seed, b), size)
        for b, size in enumerate(results.block_sizes(n_runs))
    ]
    hits = results.Crossings(
        *(np.concatenate([blk[j] for blk in blocks], axis=1) for j in range(3))
    )
    return results.collect_result(engine, seed, [hits], elapsed=1.0)


def ratio_construction_density(
    t: float,
    x_start: float,
    x_end: float,
    level: float,
    t_start: float,
    t_end: float,
    mu: float,
    sigma: float,
) -> float:
    """Independent route to the interior crossing density: first-hit density
    of the free drifted motion, times the Gaussian density of reaching the
    observed endpoint from the level, divided by the Gaussian density of the
    observed endpoint from the start."""
    u = t - t_start
    v = t_end - t
    tau = t_end - t_start
    dist = x_start - level
    hit = (
        dist
        / (sigma * math.sqrt(2.0 * math.pi * u**3))
        * math.exp(-((dist + mu * u) ** 2) / (2.0 * sigma * sigma * u))
    )
    terminal = norm.pdf(x_end, loc=level + mu * v, scale=sigma * math.sqrt(v))
    endpoint = norm.pdf(x_end, loc=x_start + mu * tau, scale=sigma * math.sqrt(tau))
    return hit * terminal / endpoint


def bm_crossing_probability(
    x0: float, level: float, mu: float, sigma: float, horizon: float
) -> float:
    """P(min over [0, horizon] of x0 + mu t + sigma W_t <= level), level < x0."""
    d = level - x0
    st = sigma * math.sqrt(horizon)
    return float(
        norm.cdf((d - mu * horizon) / st)
        + math.exp(2.0 * mu * d / sigma**2) * norm.cdf((d + mu * horizon) / st)
    )


def line_crossing_probability(
    y0: float, drift: float, sigma: float, horizon: float
) -> float:
    """P(min over [0, horizon] of y0 + drift t + sigma W_t <= 0), y0 > 0.

    A drifted Brownian motion X hits the line D(t) = intercept + slope t
    exactly when X - D, which starts at y0 = x0 - intercept with drift
    mu - slope, hits zero; this is the reflection-principle law of that
    hit, written with ``math.erfc`` (Phi(x) = erfc(-x / sqrt 2) / 2).
    """
    st = sigma * math.sqrt(horizon)
    lo = 0.5 * math.erfc((y0 + drift * horizon) / (st * math.sqrt(2.0)))
    hi = 0.5 * math.erfc((y0 - drift * horizon) / (st * math.sqrt(2.0)))
    return lo + math.exp(-2.0 * drift * y0 / sigma**2) * hi


def bm_fpt_density(t, x0: float, level: float, mu: float, sigma: float):
    """First-passage-time density of drifted Brownian motion through a
    constant level below the start."""
    t = np.asarray(t, dtype=float)
    d = abs(level - x0)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = (
        d
        / (sigma * np.sqrt(2.0 * np.pi * tp**3))
        * np.exp(-((level - x0 - mu * tp) ** 2) / (2.0 * sigma * sigma * tp))
    )
    return out


def wedge_both_cross(z1: float, z2: float, rho: float, horizon: float) -> float:
    """Probability that both components of a driftless 2-D Brownian motion
    with unit variances and correlation ``rho`` fall ``z1`` and ``z2``
    below their starts by ``horizon``: 1 - S1 - S2 + S12.

    S_i = 2 Phi(z_i / sqrt(T)) - 1 is one component's survival and S12 the
    survival of the pair, that of a planar Brownian motion in a wedge of
    angle alpha (Iyengar 1985; Zhou 2001, Rev. Financ. Stud. 14:555):

        S12 = 2 r0 / sqrt(2 pi T) sum_{n odd} sin(n pi theta0 / alpha) / n
              * exp(-x) [I_{(nu_n + 1)/2}(x) + I_{(nu_n - 1)/2}(x)],

    with nu_n = n pi / alpha, x = r0^2 / (4T), theta0 = atan2(z2 sqrt(1 -
    rho^2), z1 - rho z2) and r0 = z2 / sin theta0.  alpha is pi + atan(-sqrt(1
    - rho^2) / rho) for rho > 0 and atan(-sqrt(1 - rho^2) / rho) for
    rho < 0, which atan2(sqrt(1 - rho^2), -rho) gives for every rho, pi/2 at
    rho = 0.  The first 200 odd terms are summed.
    """
    c = math.sqrt(1.0 - rho * rho)
    alpha = math.atan2(c, -rho)
    theta0 = math.atan2(z2 * c, z1 - rho * z2)
    r0 = z2 / math.sin(theta0)
    x = r0 * r0 / (4.0 * horizon)
    n = np.arange(1, 400, 2)
    nu = n * math.pi / alpha
    series = np.sin(nu * theta0) / n * (ive((nu + 1.0) / 2.0, x) + ive((nu - 1.0) / 2.0, x))
    both_survive = 2.0 * r0 / math.sqrt(2.0 * math.pi * horizon) * series.sum()
    s1, s2 = (math.erf(z / math.sqrt(2.0 * horizon)) for z in (z1, z2))
    return 1.0 - s1 - s2 + both_survive


def walk_first_passage(d, jump_mean, jump_sd, n_jumps=30, dx=5e-4) -> np.ndarray:
    """f[k - 1] for k = 1..n_jumps: the probability that the walk d + S_1 +
    ... + S_k, with steps S ~ N(jump_mean, jump_sd^2) and d > 0, first lands
    at or below 0 at step k.

    The first step is taken from d exactly.  The surviving walk is then held
    as masses on the cells [j dx, (j + 1) dx) up to a reach that the walk
    leaves with negligible probability, and each step moves a cell's mass
    from its midpoint y: Phi((-y - jump_mean) / jump_sd) of it lands at or
    below 0, and the rest spreads over the cells by one FFT convolution with
    the step's cell probabilities.  The error is O(dx^2).
    """
    step = norm(jump_mean, jump_sd)
    reach = d + max(jump_mean, 0.0) * n_jumps + 8.0 * jump_sd * math.sqrt(n_jumps)
    edges = np.arange(0.0, reach + dx, dx)
    mids = edges[:-1] + 0.5 * dx
    n = len(mids)
    lags = np.arange(1 - n, n) * dx
    moves = step.cdf(lags + 0.5 * dx) - step.cdf(lags - 0.5 * dx)
    lands_below = step.cdf(-mids)
    f = [step.cdf(-d)]
    mass = np.diff(step.cdf(edges - d))
    for _ in range(n_jumps - 1):
        f.append(mass @ lands_below)
        mass = fftconvolve(mass, moves)[n - 1 : 2 * n - 1]
    return np.array(f)


def compound_poisson_law(distances, jump_means, jump_sds, rate, horizon, jumps=None, **walk):
    """Exact crossing law of two components in the limit sigma -> 0 with zero
    distance drift (mu = slope): (P1, P2, P(both), P(tau1 = tau2)).

    Each distance to its barrier is then a random walk, ``walk_first_passage``
    with the given ``n_jumps`` and ``dx``, stepped at the shared clock's
    jumps.  Given the jump count N the components are independent, so with
    F_i the cumulative sum of f_i: P_i = sum_k P(N >= k) f_i(k), P(both) =
    sum_K P(N = K) F_1(K) F_2(K), and both cross at the same jump with
    probability sum_k P(N >= k) f_1(k) f_2(k).  N is Poisson(rate horizon),
    the exact clock's count, unless ``jumps``, a frozen ``scipy.stats``
    discrete law, gives another: the Euler baseline's N steps of T / N, one
    Bernoulli(rate T / N) arrival each, count Binomial(N, rate T / N) jumps.
    """
    f1, f2 = (
        walk_first_passage(d, mean, sd, **walk)
        for d, mean, sd in zip(distances, jump_means, jump_sds)
    )
    k = np.arange(1, len(f1) + 1)
    jumps = poisson(rate * horizon) if jumps is None else jumps
    at_least = jumps.sf(k - 1)
    both = jumps.pmf(k) @ (np.cumsum(f1) * np.cumsum(f2))
    return float(at_least @ f1), float(at_least @ f2), float(both), float(at_least @ (f1 * f2))


def direct_kernel_sum(times, axes, std: float) -> np.ndarray:
    """Direct product-kernel sum on a tensor grid:
    sum_k prod_i N(axes[i]; times[k, i], std^2), one sample chunk at a
    time, with every sample evaluated at every grid node."""
    times = np.asarray(times, dtype=float)
    times = times.reshape(len(times), -1)
    m = len(axes)
    values = np.zeros(tuple(len(g) for g in axes))
    for k in range(0, len(times), 1024):
        sk = times[k : k + 1024]
        operands = []
        for i, g in enumerate(axes):
            d = np.asarray(g, dtype=float)[:, None] - sk[None, :, i]
            factor = np.exp(-np.square(d) / (2.0 * std * std)) / (
                math.sqrt(2.0 * math.pi) * std
            )
            operands += [factor, [i, m]]
        values += np.einsum(*operands, list(range(m)))
    return values


def gamma_density_curvature_quad(alpha: float, beta: float) -> float:
    """Quadrature of the integrated squared second derivative of the gamma
    density t^(beta-1) exp(-alpha t) alpha^beta / Gamma(beta)."""
    lognorm = beta * math.log(alpha) - math.lgamma(beta)

    def second_derivative(t: float) -> float:
        quadratic = (
            alpha * alpha * t * t
            - 2.0 * alpha * (beta - 1.0) * t
            + (beta - 1.0) * (beta - 2.0)
        )
        return math.exp(lognorm - alpha * t) * t ** (beta - 3.0) * quadratic

    val, _ = quad(lambda t: second_derivative(t) ** 2, 0.0, np.inf, limit=400)
    return val


def traced_peak(call):
    """Run ``call()`` and return its peak traced memory above the start of
    the call, in bytes, with its result.  Tracing is left as found: under
    ``-X tracemalloc`` it is already on, and it stays on."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak - before, result
