"""Fast bridge-sampling Monte Carlo engine.

Each run evaluates the process only at its jump instants.  Between two
instants the path is a Brownian bridge given its simulated endpoints, so a
single uniform per component per interval, which ``bridge.crossing_cells``
draws, decides whether the bridge crosses the barrier, held at its value at
the interval's midpoint, with the exact probability for that level.  A
bridge that crosses gets its crossing time drawn exactly from the bridge's
conditional crossing-time law, with weight 1.  Crossings caused by a jump
itself are read off the post-jump value.  A component is retired from the
run at its first crossing, by setting its value to +inf.

Internally the engine simulates whole blocks of runs at once.  It keeps a
compacted live set of runs, those with a finite component value and time
left before the horizon, and advances every live run by one interjump
interval per pass: the next jump instant is drawn lazily, one exponential
gap per live run.  A run leaves the set when its last component crosses or
its clock passes the horizon, so the work is proportional to the live (run,
interval) pairs.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import bridge
from .bridge import _cells
from .model import ModelSpec
from .results import (
    KIND_AT_JUMP,
    KIND_INTERIOR,
    Crossings,
    EngineResult,
    collect_result,
    run_blocks,
)

__all__ = ["run_engine", "simulate_block"]


def simulate_block(
    spec: ModelSpec,
    rng: np.random.Generator,
    size: int,
    out: Crossings,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Simulate ``size`` independent runs with one generator.

    The loop state is the live set: ``run`` (each live column's index in the
    block), ``state`` (the value at the column's last jump instant, +inf for
    a component that has crossed) and ``t0`` (that instant).  A retired
    value never tests at or below a barrier, a retired cell's bridge has
    survival 1, and inf plus any increment stays inf, so no mask is kept:
    a column is live while any of its values is finite.  Each pass draws
    one exponential gap per live column (an infinite one where the jump
    rate is 0, so no run jumps and the pass ends at the horizon), runs the
    bridge step on the interval up to the next jump (or the horizon) with
    the start and end distances to each barrier's midpoint level, applies
    the jump, records crossings straight in ``out``'s column ``run``, and
    keeps only the columns that jumped and still have a finite value.

    No block-sized array outlives its last reader: the diffusion's normals
    take the drift and then hold the level, the interval lengths are
    dropped once the level is formed, the start values and the level become
    the distances to it, and these are dropped once the crossing cells are
    decided, before their times are drawn.  ``bridge.crossing_cells`` draws
    the pass's uniforms itself, from ``rng`` between the diffusion's normals
    and the crossing times' normals, once it holds the survival
    probabilities, so the block never holds them beside the distances.  The
    start times begin as a zero-stride view of 0 and the run ids are int32.
    One 65,536-run block peaks at about 6.9 MiB of temporaries for
    ``configs/example1.cfg`` and 8.2 MiB for ``configs/example3.cfg``.

    The state is component-major: row i of the (m, n) arrays is component i
    of the n live runs, so per-run values of shape (n,) and per-component
    constants of shape (m, 1) broadcast along contiguous rows.

    ``out`` is the block's ``results.Crossings`` record of ``size`` runs, in
    which no component has crossed yet.  Returns its (times, weights, kinds)
    arrays, of shape (m, size) in run order, plus the count of grazing
    events: segments entered at or below the frozen midpoint level.  They
    are recorded as immediate crossings of kind 2, so ``at_jump_crossings``
    counts them too.  They are not rare: where a barrier rises, its midpoint
    level lies above its level at the segment's start, so a run that starts
    a segment just above the barrier often starts it below that frozen
    level (x0 0, mu 0, intercept -0.3, slope 0.5, sigma 0.2, lambda 3,
    jump sd 0.05 and T 1 gave 23,267 grazing events among 86,546 crossings
    in 100,000 runs at seed 1).
    """
    m = spec.m
    T = spec.horizon
    lam = spec.jump_rate
    sigma = spec.sigma
    sig_eff = spec.effective_sigmas()
    icpt, slope = spec.barrier_intercept, spec.barrier_slope
    mu, icpt_c, slope_c, jump_mean, jump_sd = (
        a[:, None] for a in (spec.mu, icpt, slope, spec.jump_mean, spec.jump_sd)
    )

    grazing = 0

    run = np.arange(size, dtype=np.int32)
    state = np.repeat(spec.x0[:, None], size, axis=1)
    # every run starts at 0: a zero-stride view, which the first compaction
    # replaces with the surviving runs' jump instants
    t0 = np.broadcast_to(0.0, size)

    while run.size:
        n = run.size
        # lazy jump clock: the next instant of every live run
        t1 = rng.exponential(1.0 / lam, n) if lam > 0 else np.full(n, np.inf)
        t1 += t0
        jumped = t1 < T
        np.minimum(t1, T, out=t1)
        tau = t1 - t0
        # block-sized arrays are updated in place where they can be: a
        # fresh temporary costs more than the arithmetic done in it, so the
        # diffusion's normals take the drift and then become the level
        z = rng.standard_normal((m, n))
        x_end = sigma @ z
        x_end *= np.sqrt(tau)
        x_end += np.multiply(mu, tau, out=z)
        level = np.multiply(slope_c, t0 + 0.5 * tau, out=z)
        level += icpt_c
        del z, tau

        # a segment entered at or below its frozen level (common where the
        # barrier rises) counts as an immediate crossing at the segment start,
        # or where the barrier reaches the entry value; it is retired before
        # the end values are formed, so both its distances are +inf (one
        # infinite distance beside a finite one at or below 0 would make
        # the survival 0 * inf = NaN)
        graze = state <= level
        if graze.any():
            comps, cols = _cells(graze)
            times = _graze_times(
                t0[cols], t1[cols], state[comps, cols], icpt[comps], slope[comps]
            )
            out.record(comps, run[cols], times, KIND_AT_JUMP)
            grazing += len(cols)
            state[comps, cols] = np.inf
        del graze
        x_end += state

        # condition 1: interior bridge crossing, decided by one uniform
        # (which the kernel draws) on the distances to the frozen level,
        # formed in the buffers of the start values and the level, which
        # the pass no longer needs
        np.subtract(state, level, out=state)
        np.subtract(x_end, level, out=level)
        ii, w, start, end = bridge.crossing_cells(state, level, t0, t1, sig_eff, rng)
        del state, level
        s = bridge.crossing_times(ii, w, start, end, t0, t1, sig_eff, rng)
        out.record(ii[0], run[ii[1]], s, KIND_INTERIOR)
        x_end[ii] = np.inf
        del ii, w, start, end, s

        # retire runs that reached the horizon or have no component left;
        # the rest move on to their jump at t1
        cont = np.flatnonzero(jumped & (x_end.min(axis=0) < np.inf))
        run, t0 = run.take(cont), t1.take(cont)
        pre = x_end.take(cont, axis=1)
        del t1, x_end, cont

        # condition 3: the run is at or below the barrier after its jump at
        # t1 (under a rising barrier it may be there before the jump, too)
        state = rng.standard_normal(pre.shape)
        state *= jump_sd
        state += jump_mean
        state += pre
        level_right = slope_c * t0
        level_right += icpt_c
        at_jump = state <= level_right
        if at_jump.any():
            comps, cols = _cells(at_jump)
            out.record(comps, run[cols], t0[cols], KIND_AT_JUMP)
            state[comps, cols] = np.inf
            cont = np.flatnonzero(state.min(axis=0) < np.inf)
            run, t0 = run.take(cont), t0.take(cont)
            state = state.take(cont, axis=1)

    return (*out, grazing)


def _graze_times(t0, t1, start, icpt, slope):
    """Crossing times for grazing entries: the instant the affine barrier
    reaches the entry value, clipped to the segment.

    Every live cell starts a pass above D(t0), whatever the barrier: x0
    lies above the intercept, and the at-jump check retires every cell at or
    below D(t1).  So only a rising barrier is grazed, and ``slope`` > 0 here.
    Were that ever false, the division would warn (an error under ``-W
    error``) or ``WeightedSamples`` would reject the time."""
    return np.clip((start - icpt) / slope, t0, t1)


def run_engine(
    spec: ModelSpec, n_runs: int, seed: int = 0, workers: int = 1
) -> EngineResult:
    """Run the bridge-sampling engine.

    Output is bitwise reproducible for a given seed regardless of ``workers``:
    runs are partitioned into fixed blocks with per-block random streams,
    each recording its crossings in the columns it owns of the record that
    ``run_blocks`` makes and times: ``seconds_per_run`` includes making it
    and excludes density estimation.
    """
    spec.effective_sigmas()  # reject degenerate diffusion rows up front
    hits, outputs, elapsed = run_blocks(
        spec.m, n_runs, seed, workers, partial(simulate_block, spec)
    )
    grazing = sum(o[3] for o in outputs)
    return collect_result(
        "unif", seed, [hits], elapsed, diagnostics={"grazing_entries": grazing}
    )
