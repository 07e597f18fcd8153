"""Kernel density estimation of first-passage-time densities.

One-dimensional estimates use the Gaussian kernel
K(h, x) = exp(-x^2 / (h^2/2)) / (sqrt(pi/2) h), i.e. a normal density of
standard deviation h/2, with the bandwidth minimising asymptotic integrated
squared error under a gamma reference fit of the sample.  Multivariate
estimates use the product Gaussian kernel of covariance h^2 I with the
normal-reference bandwidth.  Every sample counts once, and both estimators
divide by the number of Monte Carlo runs, not the number of crossings: an
estimate is a kernel-smoothed count over the runs, so its integral is the
estimated crossing probability.

Both estimators run through one body, which differs between them only in
the kernel's standard deviation, and evaluate their kernel sum the same
way: samples are binned onto a lattice and the Gaussian is Taylor-expanded
about each lattice node (Silverman 1982, Appl. Stat. 31:93 for the binning;
Greengard & Strain 1991, SIAM J. Sci. Stat. Comput. 12:79 for the
expansion), with the series cut below 2^-53 of the kernel peak, and each
grid point sums only the lattice nodes within the kernel's reach, beyond
which a sample adds less than that.  So the estimate equals the direct sum
over every sample and grid node up to rounding, and the memory of its
operators is set by the grid and the reach, not by the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import _integer

__all__ = [
    "WeightedSamples",
    "GammaFit",
    "DensityEstimate",
    "gaussian_kernel",
    "gamma_moment_fit",
    "roughness_functional",
    "optimal_bandwidth_1d",
    "optimal_bandwidth_multi",
    "estimate_density_1d",
    "estimate_density_multi",
]

# Lattice spacing of the binned kernel sum as a fraction of the kernel
# standard deviation.  At a quarter the Taylor series converges in 13
# orders per axis.
_LATTICE_STEP = 0.25
# Taylor terms bounded below this fraction of the kernel peak are dropped:
# the result then equals the direct sum up to rounding.
_TAIL = 2.0**-53
_LOG_TAIL = math.log(_TAIL)


@dataclass(frozen=True)
class WeightedSamples:
    """Crossing times from N Monte Carlo runs, each sample counting once.

    ``times`` is (n,) for one component or (n, m) for joint tuples where every
    component crossed in the same run.  ``n_runs`` is the total number of runs
    (the estimator denominator), so n_runs >= n.
    """

    times: np.ndarray
    n_runs: int

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        if not np.isfinite(times).all():
            raise ValueError("crossing times must be finite")
        n_runs = _integer("n_runs", self.n_runs, max(times.shape[0], 1))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "n_runs", n_runs)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Weight 1, one per sample: a read-only view with zero strides,
        kept because the benchmark (``perfbench/``) reads it.  It leaves with
        ROADMAP item 3 once item 2 stops those reads."""
        return np.broadcast_to(1.0, (len(self),))


@dataclass(frozen=True)
class GammaFit:
    """Moment-matched gamma reference: density ~ t^(beta-1) exp(-alpha t).

    beta is kept at or above 3 so the curvature functional below stays
    positive and finite.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.beta < 3.0:
            raise ValueError("beta must be >= 3 (clamp before constructing)")


@dataclass(frozen=True)
class DensityEstimate:
    """A density evaluated on a grid.

    ``grid`` is the 1-D evaluation grid, or a tuple of per-axis grids for a
    multivariate estimate whose ``values`` then form the matching mesh.
    ``total_mass`` is the trapezoidal integral over the grid, i.e. the
    estimated crossing probability caught by the grid window.
    """

    grid: np.ndarray | tuple[np.ndarray, ...]
    values: np.ndarray
    bandwidth: float
    total_mass: float


def gaussian_kernel(h: float, x) -> np.ndarray:
    """Smoothing kernel of bandwidth h: a centred normal density with
    standard deviation h/2.  Symmetric, unit mass, peak at x = 0."""
    if not 0 < h < math.inf:
        raise ValueError("bandwidth must be finite and positive")
    x = np.asarray(x, dtype=float)
    return np.exp(-np.square(x) / (h * h / 2.0)) / (math.sqrt(math.pi / 2.0) * h)


def gamma_moment_fit(times) -> GammaFit:
    """Fit the gamma reference by the method of moments.

    alpha = mean/variance and beta = mean^2/variance with the population
    variance; beta is clamped up to 3.  Needs at least two distinct positive
    values, otherwise the caller should fall back to a default bandwidth.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("need at least two samples to fit")
    mean = float(t.mean())
    var = float(t.var())
    if var <= 0.0:
        raise ValueError("samples have zero variance; gamma fit undefined")
    if mean <= 0.0:
        raise ValueError("sample mean must be positive for a gamma fit")
    return GammaFit(alpha=mean / var, beta=max(mean * mean / var, 3.0))


def roughness_functional(fit: GammaFit) -> float:
    """Integrated squared second derivative of the gamma reference density.

    Closed form: with a = alpha and b = beta, the five moment terms of the
    squared quadratic (a t^2 - 2a(b-1) t + (b-1)(b-2))^2 collect into

        a^5 (3/4) (b-1)(b-2) Gamma(2b - 5) / (2^(2b-5) Gamma(b)^2),

    and Legendre's duplication formula Gamma(2b - 5) =
    2^(2b-6) Gamma(b - 5/2) Gamma(b - 2) / sqrt(pi) reduces it to

        3 a^5 Gamma(b - 5/2) / (8 sqrt(pi) Gamma(b)),

    one gamma ratio with no cancellation (3/16 at a = 1, b = 3).  Scales as
    alpha^5 at fixed beta.
    """
    a, b = fit.alpha, fit.beta
    if b < 3.0:
        raise ValueError("beta must be >= 3")
    ratio = math.exp(math.lgamma(b - 2.5) - math.lgamma(b))
    return 3.0 * a**5 * ratio / (8.0 * math.sqrt(math.pi))


def optimal_bandwidth_1d(fit: GammaFit, n: int) -> float:
    """AMISE-optimal bandwidth for the 1-D kernel given the gamma reference:
    (2 n sqrt(pi) * roughness)^(-1/5), decreasing as n^(-1/5)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return float((2.0 * n * math.sqrt(math.pi) * roughness_functional(fit)) ** -0.2)


def optimal_bandwidth_multi(m: int, n: int) -> float:
    """Normal-reference bandwidth for the m-variate product kernel:
    n^(-1/(m+4)) * (4 / (2m+1))^(1/(m+4))."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive integers")
    p = 1.0 / (m + 4.0)
    return float(n ** -p * (4.0 / (2.0 * m + 1.0)) ** p)


def estimate_density_1d(samples: WeightedSamples, grid, h: float) -> DensityEstimate:
    """Kernel estimate on a finite sorted grid: f(t) = (1/n_runs) * sum_k K(h, t - s_k).

    An empty sample set yields the all-zero estimate (no crossings observed).
    """
    if samples.times.ndim != 1:
        raise ValueError("1-D estimator needs scalar crossing times")
    est = _estimate(samples, (grid,), h, h / 2.0)
    return replace(est, grid=est.grid[0])


def estimate_density_multi(
    samples: WeightedSamples, grid: tuple[np.ndarray, ...], h: float
) -> DensityEstimate:
    """m-variate product-kernel estimate on a tensor grid.

    ``grid`` holds one sorted axis per dimension; the result values have shape
    (len(grid[0]), ..., len(grid[m-1])).  Only complete tuples (runs where
    every component crossed) should be passed in.  The kernel here is a normal
    density of covariance h^2 I, not the half-width convention of the 1-D
    kernel.
    """
    return _estimate(samples, grid, h, h)


def _estimate(samples: WeightedSamples, grid, h: float, std: float) -> DensityEstimate:
    """The estimate on the tensor grid of the axes ``grid``: the product
    normal kernel of standard deviation ``std`` summed over the samples,
    divided by ``n_runs``, and its trapezoidal mass."""
    if not 0 < h < math.inf:
        raise ValueError("bandwidth must be finite and positive")
    axes = tuple(np.asarray(g, dtype=float) for g in grid)
    if any(g.ndim != 1 or not np.isfinite(g).all() or np.any(np.diff(g) < 0) for g in axes):
        raise ValueError("every grid axis must be a finite sorted 1-D array")
    times = samples.times
    if times.ndim == 1:
        times = times[:, None]
    if times.shape[1] != len(axes):
        raise ValueError(f"samples have {times.shape[1]} components, grid has {len(axes)}")
    values = _kernel_sum(times, axes, std)
    values /= samples.n_runs
    mass = values
    for axis in reversed(axes):
        mass = np.trapezoid(mass, axis, axis=-1)
    return DensityEstimate(
        grid=axes,
        values=values,
        bandwidth=float(h),
        total_mass=float(mass),
    )


class _Lattice:
    """One axis of the binned kernel sum.

    Each sample s is snapped to its nearest lattice node c (spacing
    ``_LATTICE_STEP * std``, origin at the smallest sample), leaving the
    offset r = s - c.  With kappa = 2 std^2 the kernel factorises exactly,

        exp(-(g - s)^2 / kappa)
            = exp(-(g - c)^2 / kappa) exp(-r^2 / kappa)
              * sum_n (2 (g - c) / kappa)^n r^n / n!,

    so a sample enters only through the moments r^n exp(-r^2 / kappa) of
    its node, and the grid receives sum_n T_n M_n with the operators
    T_n[j, a] = K(g_j - c_a) (2 (g_j - c_a) / kappa)^n / n! built over the
    occupied nodes only.  ``bounds[n]`` bounds |T_n| max|r|^n relative to
    the kernel peak; the list stops before the first order below ``_TAIL``.

    A sample's whole series is exp(-(g - s)^2 / kappa), at most
    exp(-(|g - c| - max|r|)^2 / kappa), so a node at least ``reach`` =
    sqrt(-kappa ln _TAIL) + max|r| from a grid point adds less than
    ``_TAIL`` of the peak there and is skipped.  The grid is cut into
    ``chunks`` of points spanning at most ``reach``; each pairs a slice of
    the grid with the contiguous slice of nodes within reach of it, so it
    holds at most about 3 reach / step nodes, and the operators are built
    on those blocks only.  A chunk with no node in reach is left out.
    """

    def __init__(self, s: np.ndarray, grid: np.ndarray, std: float):
        step = _LATTICE_STEP * std
        origin = s.min()
        nodes, self.index = np.unique(np.rint((s - origin) / step), return_inverse=True)
        self.centres = origin + nodes * step
        self.offset = s - self.centres[self.index]
        self.kappa = 2.0 * std * std
        self.damp = np.exp(-np.square(self.offset) / self.kappa)
        self.grid = grid
        self.std = std
        self.bounds = [1.0]
        r_max = float(np.abs(self.offset).max())
        while r_max > 0.0:
            # sup_x exp(-x^2/kappa) |2x/kappa|^n / n! is reached at x^2 = n kappa/2
            n = len(self.bounds)
            log_b = (
                0.5 * n * (math.log(2.0 * n / self.kappa) - 1.0)
                + n * math.log(r_max)
                - math.lgamma(n + 1.0)
            )
            if log_b < _LOG_TAIL:
                break
            self.bounds.append(math.exp(log_b))
        reach = math.sqrt(-self.kappa * _LOG_TAIL) + r_max
        first = np.searchsorted(self.centres, grid - reach, side="right")
        stop = np.searchsorted(self.centres, grid + reach, side="left")
        self.chunks = []
        j = 0
        while j < len(grid):
            end = max(int(np.searchsorted(grid, grid[j] + reach, side="right")), j + 1)
            lo, hi = int(first[j]), int(stop[end - 1])
            if lo < hi:
                self.chunks.append((slice(j, end), slice(lo, hi)))
            j = end

    def operators(self):
        """Yield T_0, T_1, ... for every order in ``bounds``, each as its
        list of blocks, one per chunk.  Every order is built in place from
        the previous one, so a consumer that keeps an order copies it."""
        diffs = [self.grid[g, None] - self.centres[None, c] for g, c in self.chunks]
        ops = [gaussian_kernel(2.0 * self.std, diff) for diff in diffs]
        yield ops
        for diff in diffs:
            diff *= 2.0 / self.kappa
        for n in range(1, len(self.bounds)):
            for op, diff in zip(ops, diffs):
                op *= diff
                op /= n
            yield ops


def _kernel_sum(points: np.ndarray, axes: tuple[np.ndarray, ...], std: float) -> np.ndarray:
    """sum_k prod_i N(g_i; points[k, i], std^2) on the tensor grid ``axes``,
    each sample counting once.

    Equal to the direct sum up to rounding (the Taylor tail and the nodes
    out of reach dropped are below 2^-53 of the kernel peak), at a cost and
    memory set by the grid, the reach and the lattice rather than by
    samples x grid.  An operator has one block per chunk of grid points,
    over the nodes within their reach, so one axis holds about grid x
    3 reach / step entries per order however many nodes it has; the moment
    tensor has one cell per combination of occupied nodes across the axes.
    For m axes the order tuples form a tensor product; a tuple whose bounds
    multiply to below ``_TAIL`` is skipped.  Orders of axis 0 are summed
    outermost, so its operators are updated in place and at most one
    order's moment term is held; the inner axes keep every order, which
    each order of the outer axes reuses.
    """
    if len(points) == 0:
        return np.zeros(tuple(len(g) for g in axes))
    lattices = [_Lattice(points[:, i], g, std) for i, g in enumerate(axes)]
    nodes = tuple(len(lat.centres) for lat in lattices)
    cell = np.ravel_multi_index(tuple(lat.index for lat in lattices), nodes)
    operators = [lattices[0].operators()]
    operators += [[[op.copy() for op in ops] for ops in lat.operators()] for lat in lattices[1:]]
    return _contract(lattices, operators, cell, 0, 1.0, 1.0)


def _contract(lattices, operators, cell, k, q, bound) -> np.ndarray:
    """The sum over the orders of axes k, k+1, ... with the orders of the
    axes before k fixed: ``q`` holds each sample's moment factors on those
    axes (1.0 on the first call), whose order bounds multiply to ``bound``.
    The result is grid-valued on axes >= k and node-valued on axes < k."""
    lat = lattices[k]
    q = q * lat.damp
    outer = math.prod(len(x.centres) for x in lattices[:k])
    inner = math.prod(len(x.grid) for x in lattices[k + 1 :])
    total = np.zeros((outer, len(lat.grid), inner))
    for n, (op, b) in enumerate(zip(operators[k], lat.bounds)):
        if bound * b < _TAIL:
            break
        if n:
            q *= lat.offset
        if k + 1 < len(lattices):
            sub = _contract(lattices, operators, cell, k + 1, q, bound * b)
        else:
            nodes = tuple(len(x.centres) for x in lattices)
            sub = np.bincount(cell, q, minlength=math.prod(nodes)).reshape(nodes)
        sub = sub.reshape(outer, -1, inner)
        for (rows, cols), block in zip(lat.chunks, op):
            # on the last axis, one product over every outer node: a batched
            # product would make one matrix-vector product per node
            if inner == 1:
                total[:, rows, 0] += sub[:, cols, 0] @ block.T
            else:
                total[:, rows] += block @ sub[:, cols]
    shape = [len(x.centres) for x in lattices[:k]] + [len(x.grid) for x in lattices[k:]]
    return total.reshape(shape)
