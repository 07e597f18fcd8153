"""Shared result types and run-loop machinery for the Monte Carlo engines.

A job's result is its crossing record, ``Crossings``, whose format only this
module knows: the engines write it through ``Crossings.record``, and
``EngineResult`` derives its samples, run indices and probabilities from it.

Runs are partitioned into fixed-size blocks.  Block b of a job seeded with s
always draws from the SFC64 generator seeded by SeedSequence([s, b]) and
records its crossings in the columns it owns of one (m, n_runs) record, so
results are bitwise identical for any worker count and any scheduling.
Workers are threads: each block task is dominated by numpy work on its own
arrays, and blocks own disjoint columns of the result, so no element is
shared.  The calling thread is one of the workers: it runs blocks beside
``min(workers, blocks) - 1`` helper threads, so a job on one worker or of
one block starts no thread.

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

import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

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
from .model import _integer

__all__ = [
    "BLOCK_SIZE",
    "ComponentSets",
    "Crossings",
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


class Crossings(NamedTuple):
    """A crossing record: (m, n) ``times``, ``weights`` and ``kinds`` of the
    first crossing of component i in run j, one cell per (i, j).

    A crossing is recorded as its time and its kind, KIND_INTERIOR or
    KIND_AT_JUMP; a cell that never crossed holds (NaN, KIND_NONE), as a new
    record's cells do.  ``record`` is the only code that writes one.  Weight
    1, which every crossing carries, is not stored: ``weights`` is a read-only
    all-ones view with zero strides that the benchmark (``perfbench/``) reads."""

    times: np.ndarray
    weights: np.ndarray
    kinds: np.ndarray

    @classmethod
    def never_crossed(cls, m: int, n_runs: int) -> Crossings:
        """The record of n_runs runs in which no component crossed."""
        shape = (m, n_runs)
        return cls(np.full(shape, np.nan), np.broadcast_to(1.0, shape), np.zeros(shape, np.int8))

    def columns(self, cols: slice) -> Crossings:
        """The record of the runs ``cols``, views of these columns: what one
        block records its crossings in."""
        return Crossings(*(a[:, cols] for a in self))

    def record(self, comps: np.ndarray, runs: np.ndarray, times, kind: int) -> None:
        """Record that component ``comps[k]`` of run ``runs[k]`` crossed at
        ``times[k]`` (or at ``times`` when it is a scalar), of ``kind``."""
        cells = (comps, runs)
        self.times[cells] = times
        self.kinds[cells] = kind


class ComponentSets(Sequence):
    """A read-only sequence of m sets, one per component, that derives
    component i's set only when index i is read and keeps none of them.

    It takes int and slice indices, a length and iteration, as a list does;
    a slice is a list of the sets it selects."""

    __slots__ = ("_m", "_derive")

    def __init__(self, m: int, derive: Callable[[int], object]):
        self._m = m
        self._derive = derive

    def __len__(self) -> int:
        return self._m

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._derive(i) for i in range(self._m)[index]]
        return self._derive(range(self._m)[index])


@dataclass(frozen=True)
class EngineResult:
    """Everything one engine execution produced: the (m, n_runs) ``times``
    and ``kinds`` of the job's ``Crossings`` record, and what they give.

    ``marginals[i]`` holds component i's crossing times over all runs;
    ``joint`` holds the m-tuples from runs where every component crossed.
    Every crossing has weight 1, so a crossing probability is a count over
    ``n_runs``.  The ``*_run_indices`` arrays map samples back to their run.
    ``seconds_per_run`` is the wall time of ``run_blocks`` only, divided by
    n_runs: making the "never crossed" record and running every block.

    A result holds its record only, float64 ``times`` and int8 ``kinds``:
    9 bytes per (component, run) cell as during the call, 18 MB for 1M runs
    of two components.  Its sample sets are derived from the record and not
    kept.  ``marginals`` and ``marginal_run_indices`` are ``ComponentSets``:
    component i's set is derived, a gather of O(n_runs), each time index i
    is read, so a read costs one component's cells whatever m is, and
    ``estimate_densities`` holds one component's samples at a time.  Each
    read of ``joint_run_indices`` or ``joint`` derives that set again.  A
    caller that uses one set more than once binds it once: ``ws =
    result.marginals[i]``, not ``result.marginals``.
    """

    engine: str
    seed: int
    times: np.ndarray
    kinds: np.ndarray
    seconds_per_run: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.kinds.shape[0]

    @property
    def n_runs(self) -> int:
        return self.kinds.shape[1]

    @property
    def marginal_run_indices(self) -> ComponentSets:
        """The runs where each component crossed, in increasing order."""
        return ComponentSets(self.m, lambda i: np.flatnonzero(self.kinds[i]))

    @property
    def marginals(self) -> ComponentSets:
        """Each component's crossing times, in run order."""
        return ComponentSets(
            self.m,
            lambda i: WeightedSamples(times=self.times[i][self.kinds[i] != 0], n_runs=self.n_runs),
        )

    @property
    def joint_run_indices(self) -> np.ndarray:
        """The runs where every component crossed, in increasing order."""
        return np.flatnonzero(self.kinds.all(axis=0))

    @property
    def joint(self) -> WeightedSamples:
        # the joint tuples are (n_joint, m), one row per run, gathered as
        # rows of the transposed record in one C-contiguous allocation
        times = self.times.T.take(self.joint_run_indices, axis=0)
        return WeightedSamples(times=times, n_runs=self.n_runs)

    def crossing_probabilities(self) -> np.ndarray:
        """Estimate of each component's probability of crossing within the
        horizon: its number of crossings over the number of runs."""
        # one row at a time: counting along an axis makes an (m, n) temporary
        return np.array([np.count_nonzero(row) for row in self.kinds]) / self.n_runs


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The generator owning block ``block_index`` of a job seeded ``seed``:
    NumPy's SFC64 (the Small Fast Chaotic generator, which passes PractRand),
    seeded by SeedSequence([seed, block_index]).  It draws faster than the
    default PCG64, which the engines used before."""
    sequence = np.random.SeedSequence([int(seed), int(block_index)])
    return np.random.Generator(np.random.SFC64(sequence))


def block_sizes(n_runs: int) -> list[int]:
    sizes = [BLOCK_SIZE] * (n_runs // BLOCK_SIZE)
    if n_runs % BLOCK_SIZE:
        sizes.append(n_runs % BLOCK_SIZE)
    return sizes


def run_blocks(
    m: int,
    n_runs: int,
    seed: int,
    workers: int,
    simulate: Callable[..., tuple],
) -> tuple[Crossings, list[tuple], float]:
    """Run ``simulate(rng, size, out=...)`` over every block, timed.

    The job's (m, n_runs) record, 9 bytes per cell, is made "never crossed"
    (``Crossings.never_crossed``); block b is passed ``out=`` the columns it
    owns, ``b * BLOCK_SIZE`` onwards, to record its crossings in.

    Returns the record, the per-block outputs in block order, and the elapsed
    wall time of making the record and running the blocks.

    The calling thread runs blocks, with ``min(workers, blocks) - 1``
    helper threads beside it; each thread takes the next block index until
    none is left.  Once a block raises, no thread starts another block:
    the call waits for the blocks already running, then raises the first
    exception.  Blocks are handed out in index order, but which thread
    runs a block does not change the output.

    The calling thread works rather than waits because of memory: glibc
    serves each thread from its own malloc arena, and memory freed in an
    arena is reused only by that arena's threads, so a caller that waits
    leaves its own arena's free memory idle while one more helper's arena
    grows.  On the
    ``lam8-probs`` benchmark (1M runs of ``configs/example3.cfg``, two
    workers, the previous result held) ``peak_rss_mb`` read 116.9 MB with
    a pool of two threads while the caller waited and 101.6 MB with the
    caller and one helper (medians of ten pairs); with glibc held to one
    arena (``MALLOC_ARENA_MAX=1`` set in the measuring process) the pool
    read 97.5-99.9 MB.  Timings did not move.
    """
    n_runs = _integer("n_runs", n_runs, 1)
    workers = _integer("workers", workers, 1)
    seed = _integer("seed", seed, 0)
    sizes = block_sizes(n_runs)

    start = time.perf_counter()
    out = Crossings.never_crossed(m, n_runs)

    def task(b: int) -> tuple:
        cols = slice(b * BLOCK_SIZE, b * BLOCK_SIZE + sizes[b])
        return simulate(block_rng(seed, b), sizes[b], out=out.columns(cols))

    outputs: list = [None] * len(sizes)
    errors: list[BaseException] = []
    lock = threading.Lock()
    taken = 0

    def work() -> None:
        # take the next block until none is left or a block has raised
        nonlocal taken
        while True:
            with lock:
                if errors or taken == len(sizes):
                    return
                b = taken
                taken += 1
            try:
                outputs[b] = task(b)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    helpers = [threading.Thread(target=work) for _ in range(min(workers, len(sizes)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    elapsed = time.perf_counter() - start
    return out, outputs, elapsed


def collect_result(
    engine: str,
    seed: int,
    hits: list[Crossings],
    elapsed: float,
    diagnostics: Optional[dict] = None,
) -> EngineResult:
    """Build an EngineResult from a job's crossing record.

    ``hits`` is a list holding one ``Crossings``: the record every block
    recorded its columns of.  The diagnostics are the crossing counts by
    kind followed by the engine's own ``diagnostics``."""
    [(times, _, kinds)] = hits
    diag = {
        "interior_crossings": int(np.count_nonzero(kinds == KIND_INTERIOR)),
        "at_jump_crossings": int(np.count_nonzero(kinds == KIND_AT_JUMP)),
        **(diagnostics or {}),
    }
    return EngineResult(engine, seed, times, kinds, elapsed / kinds.shape[1], diag)


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
    component never crossed in any run.  Each marginal is estimated from
    its component's samples alone, derived when it is reached, so the call
    holds one component's samples at a time.
    """
    grid = np.asarray(grid, dtype=float)
    horizon = float(grid[-1]) if len(grid) else 1.0
    marginals = []
    for ws in result.marginals:
        h = marginal_bandwidth(ws.times, horizon)
        marginals.append(estimate_density_1d(ws, grid, h))
    joint = None
    if joint_grid is not None:
        samples = result.joint
        h = optimal_bandwidth_multi(result.m, max(len(samples), 1))
        joint = estimate_density_multi(samples, joint_grid, h)
    return marginals, joint
