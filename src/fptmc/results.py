"""Shared result types and run-loop machinery for the Monte Carlo engines.

Runs are partitioned into fixed-size blocks.  Block b of a job seeded with s
always draws from the generator seeded by SeedSequence([s, b]) and writes its
crossings into the columns it owns of one preallocated (m, n_runs) result, so
results are bitwise identical for any worker count and any scheduling.
Workers are threads: each block task is dominated by numpy work on its own
arrays, and blocks own disjoint columns of the result, so no element is
shared.

Blocks are large because every numpy call releases the interpreter lock and
takes it back, and a block makes the same calls whatever its size: fewer,
larger blocks mean fewer calls, hence fewer lock handoffs between workers,
per run.  On a 2-vCPU machine, ``unif.run_engine`` on 1M runs of
``configs/example3.cfg`` took 1.18-1.21 s on one thread and 0.93-0.95 s on
two with 16,384-run blocks, against 0.98-1.06 s and 0.63-0.70 s with
65,536-run blocks; 131,072-run blocks were no faster and used more memory.
2,000 blocks of 16 runs, overhead only, ran slower on two threads than on one
(3.5-5.0 s against 2.5-2.9 s).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .kde import (
    DensityEstimate,
    WeightedSamples,
    estimate_density_1d,
    estimate_density_multi,
    gamma_moment_fit,
    optimal_bandwidth_1d,
    optimal_bandwidth_multi,
)

__all__ = [
    "BLOCK_SIZE",
    "EngineResult",
    "block_rng",
    "run_blocks",
    "collect_result",
    "estimate_densities",
]

# Runs per random-stream block.  Fixed: it is part of the reproducibility
# contract (outputs depend on seed and block index only, never on workers).
BLOCK_SIZE = 65536

KIND_NONE = 0
KIND_INTERIOR = 1
KIND_AT_JUMP = 2


@dataclass(frozen=True)
class EngineResult:
    """Everything one engine execution produced.

    ``marginals[i]`` holds component i's crossing times over all runs;
    ``joint`` holds the m-tuples from runs where every component crossed.
    Both engines record every crossing with weight 1, so a crossing
    probability is a count over ``n_runs``.  The
    ``*_run_indices`` arrays map samples back to their run for diagnostics.
    ``seconds_per_run`` is wall time of the run loop only, divided by n_runs;
    the loop includes each block setting its columns of the result to "never
    crossed" before it writes its crossings there.
    """

    engine: str
    n_runs: int
    seed: int
    marginals: list[WeightedSamples]
    joint: WeightedSamples
    marginal_run_indices: list[np.ndarray]
    joint_run_indices: np.ndarray
    seconds_per_run: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.marginals)

    def crossing_probabilities(self) -> np.ndarray:
        """Estimate of each component's probability of crossing within the
        horizon: the sum of its weights, each 1, over the number of runs."""
        return np.array([ws.weights.sum() / ws.n_runs for ws in self.marginals])


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The generator owning block ``block_index`` of a job seeded ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(block_index)]))


def block_sizes(n_runs: int) -> list[int]:
    sizes = [BLOCK_SIZE] * (n_runs // BLOCK_SIZE)
    if n_runs % BLOCK_SIZE:
        sizes.append(n_runs % BLOCK_SIZE)
    return sizes


def empty_hits(m: int, n_runs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uninitialised (m, n_runs) crossing times, weights and kinds: a job's
    result, whose columns each block sets with ``block_hits``."""
    return np.empty((m, n_runs)), np.empty((m, n_runs)), np.empty((m, n_runs), dtype=np.int8)


def block_hits(
    out: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (times, weights, kinds) arrays a block writes its crossings into,
    ``out``, views of the block's columns of a job's result, set to "never
    crossed" (NaN, 0, KIND_NONE)."""
    hit_t, hit_w, hit_k = out
    hit_t.fill(np.nan)
    hit_w.fill(0.0)
    hit_k.fill(KIND_NONE)
    return hit_t, hit_w, hit_k


def run_blocks(
    n_runs: int,
    seed: int,
    workers: int,
    simulate: Callable[..., tuple],
    out: tuple[np.ndarray, ...],
) -> tuple[list[tuple], float]:
    """Run ``simulate(rng, size, out=...)`` over every block, in order, timed.

    ``out`` is a tuple of arrays with n_runs columns; block b is passed
    ``out=`` views of the columns it owns, ``b * BLOCK_SIZE`` onwards, to
    write its results into in place.

    Returns the per-block outputs in block order and the elapsed wall time of
    the whole loop.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be a positive integer")
    if workers < 1:
        raise ValueError("workers must be a positive integer")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    sizes = block_sizes(n_runs)

    def task(b: int) -> tuple:
        rng = block_rng(seed, b)
        cols = slice(b * BLOCK_SIZE, b * BLOCK_SIZE + sizes[b])
        return simulate(rng, sizes[b], out=tuple(a[:, cols] for a in out))

    start = time.perf_counter()
    if workers == 1:
        outputs = [task(b) for b in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(sizes))) as pool:
            outputs = list(pool.map(task, range(len(sizes))))
    elapsed = time.perf_counter() - start
    return outputs, elapsed


def collect_result(
    engine: str,
    seed: int,
    hits: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    elapsed: float,
    diagnostics: Optional[dict] = None,
) -> EngineResult:
    """Build an EngineResult from a job's crossings.

    ``hits`` is a list holding one (times, weights, kinds) triple of
    (m, n_runs) arrays in run order: the result every block wrote its columns
    of.  Row i is component i over all runs."""
    [(hit_t, hit_w, hit_k)] = hits
    m, n_runs = hit_t.shape
    marginals = []
    run_indices = []
    complete = np.ones(n_runs, dtype=bool)
    for i in range(m):
        sel = hit_k[i] != KIND_NONE
        # an integer gather is several times faster than a boolean one
        rows = np.flatnonzero(sel)
        marginals.append(
            WeightedSamples(
                times=hit_t[i].take(rows), weights=hit_w[i].take(rows), n_runs=n_runs
            )
        )
        run_indices.append(rows)
        complete &= sel
    joint_rows = np.flatnonzero(complete)
    # the joint tuples are (n_joint, m), one row per run
    joint_t = np.empty((len(joint_rows), m))
    for i in range(m):
        joint_t[:, i] = hit_t[i].take(joint_rows)
    joint = WeightedSamples(
        times=joint_t, weights=np.ones(len(joint_rows)), n_runs=n_runs
    )
    diag = dict(diagnostics or {})
    diag.setdefault("interior_crossings", int(np.count_nonzero(hit_k == KIND_INTERIOR)))
    diag.setdefault("at_jump_crossings", int(np.count_nonzero(hit_k == KIND_AT_JUMP)))
    return EngineResult(
        engine=engine,
        n_runs=n_runs,
        seed=seed,
        marginals=marginals,
        joint=joint,
        marginal_run_indices=run_indices,
        joint_run_indices=joint_rows,
        seconds_per_run=elapsed / n_runs,
        diagnostics=diag,
    )


def marginal_bandwidth(times: np.ndarray, horizon: float) -> float:
    """Bandwidth for one component's estimate: gamma-reference optimum, or
    1% of the horizon when the sample is too small or degenerate to fit."""
    try:
        fit = gamma_moment_fit(times)
    except ValueError:
        return 0.01 * horizon
    return optimal_bandwidth_1d(fit, len(times))


def estimate_densities(
    result: EngineResult,
    grid: np.ndarray,
    joint_grid: Optional[tuple[np.ndarray, ...]] = None,
) -> tuple[list[DensityEstimate], Optional[DensityEstimate]]:
    """Marginal estimates for every component, plus the joint estimate on
    ``joint_grid`` (one axis per component) when it is given, else None.

    ``grid`` is the 1-D evaluation grid spanning [0, T].  A component with no
    crossings gets the zero density; the joint estimate is zero when any
    component never crossed in any run.
    """
    grid = np.asarray(grid, dtype=float)
    horizon = float(grid[-1]) if len(grid) else 1.0
    marginals = []
    for ws in result.marginals:
        h = marginal_bandwidth(ws.times, horizon)
        marginals.append(estimate_density_1d(ws, grid, h))
    joint = None
    if joint_grid is not None:
        h = optimal_bandwidth_multi(result.m, max(len(result.joint), 1))
        joint = estimate_density_multi(result.joint, joint_grid, h)
    return marginals, joint
