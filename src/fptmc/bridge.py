"""Exact crossing mathematics for one interjump interval, on whole arrays.

Between two consecutive jumps the diffusion, conditioned on its simulated
endpoint values, is a Brownian bridge.  The kernels take the bridge's start
and end distances d0 and d1 above the barrier: the crossing law depends
only on them, the interval's length and sigma.  For an affine barrier
D(t) = intercept + slope t this is exact with d0 = x(t0) - D(t0) and
d1 = x(t1) - D(t1), since the distance X - D is again a Brownian motion
(with drift mu - slope) and its bridge is drift-free.  This module
provides, elementwise:

* ``survival_array``: the probability that the bridge stays above the
  barrier for the whole interval;
* ``fpt_density_array``: the conditional first-crossing-time density on the
  open interval, which integrates to one minus that survival probability;
* ``crossing_cells``: the crossing decision, which draws one uniform per
  (component, run) cell and turns it into either "no interior crossing" or
  a crossing cell;
* ``crossing_times``: the crossing times of those cells, drawn exactly from
  the bridge's conditional crossing-time law (an inverse-Gaussian
  transform), so every crossing has weight 1.

The bridge-sampling engine passes the distances to each barrier, held at
its interval's midpoint (see ``unif``), to ``crossing_cells``, which
evaluates ``survival_array`` and then draws the pass's uniforms from the
engine's generator, and then to ``crossing_times``, which draws one normal
per crossing from the same generator and whose times follow
``fpt_density_array``.
These are the only implementation of the formulas.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "survival_array",
    "fpt_density_array",
    "crossing_cells",
    "crossing_times",
]

_LEAST_DOUBLE = np.finfo(float).smallest_subnormal

# Crossing cells per chunk of ``crossing_times``' draw: the first pass of a
# 65,536-run two-component block crosses about 73,000 cells, and each of the
# draw's temporaries takes 128 KiB.
_DRAW_CHUNK = 16384


def survival_array(d0, d1, tau, sigma):
    """Probability the bridge stays above the barrier, elementwise.

    With d0 and d1 the start and end distances to the barrier, survival is
    1 - exp(-2 d0 d1 / (sigma^2 tau)).  Both distances enter clipped at zero,
    so the exponent is never positive and a cell that starts or ends at or
    below the barrier survives with probability 0.  sigma^2 tau enters as at
    least the least positive double, so no 0 / 0 arises; where it vanishes
    the exponent of every other cell is -inf, certain survival.
    """
    shape = np.broadcast(d0, d1, tau, sigma).shape
    # two buffers, updated in place: fresh block-sized temporaries cost more
    # than the arithmetic
    expo = np.maximum(d0, 0.0, out=np.empty(shape))
    d1 = np.maximum(d1, 0.0, out=np.empty(shape))
    with np.errstate(over="ignore"):
        expo *= d1
        expo *= -2.0
        var = np.multiply(tau, np.square(sigma), out=d1)
        np.maximum(var, _LEAST_DOUBLE, out=var)
        expo /= var
    np.expm1(expo, out=expo)
    return np.negative(expo, out=expo)


def fpt_density_array(t, d0, d1, t_start, t_end, sigma):
    """Interior first-crossing-time density g(t), elementwise.

    Valid strictly inside (t_start, t_end); the prefactors are singular at
    the endpoints.  The drift does not enter: conditioning on both endpoints
    cancels it.  With d0 and d1 the start and end distances to the barrier
    and u = t - t_start, v = t_end - t, the hitting terms over the endpoint
    normaliser collapse to the single exponent
    -(d0 v + d1 u)^2 / (2 sigma^2 u v tau), which is never positive, so the
    density stays finite where the normaliser alone would underflow.
    """
    (t, d0, d1, t_start, t_end, sigma) = np.broadcast_arrays(
        t, d0, d1, t_start, t_end, sigma
    )
    tau = t_end - t_start
    u = t - t_start
    v = t_end - t
    expo = -np.square(d0 * v + d1 * u) / (2.0 * np.square(sigma) * u * v * tau)
    return d0 * np.sqrt(tau / (2.0 * np.pi)) / sigma * u**-1.5 * v**-0.5 * np.exp(expo)


def crossing_cells(d0, d1, t0, t1, sigma, rng):
    """The crossing decision of a block of bridge intervals, one uniform per
    cell drawn from ``rng``.

    Column r of the (m, n) arrays ``d0`` and ``d1`` holds run r's start and
    end distances to the barrier on its interval (t0[r], t1[r]), and row i
    is component i; ``sigma`` holds the (m,) per-component volatilities.
    Once it holds each cell's 1 - P, the kernel draws the (m, n) uniforms
    u = 1 - ``rng.random((m, n))`` on (0, 1], consumed row-major, and takes
    no other number from ``rng``.

    With P the cell's survival probability, a cell crosses exactly when
    u <= 1 - P, which happens with probability 1 - P; so every cell with
    finite distances and d1 <= 0 crosses, and since u >= 2^-53 a cell whose
    1 - P is below that never crosses.  A cell with d0 = d1 = +inf, the
    engine's mark of a component that has crossed already, has P exactly 1
    and never crosses; only one infinite distance beside a finite one at or
    below 0 would give P = NaN, with an invalid-value warning.  The
    block-sized survival array is dropped once its values at the crossing
    cells are gathered, and the uniforms once theirs are, so the kernel
    holds at most two block-sized arrays of its own beside its arguments.

    Returns ((components, runs), w, start, end) of the crossing cells, in
    component-major order: ``w`` = u / (1 - P), which given the crossing is
    uniform on (0, 1], and the start and absolute end distances, the
    arguments ``crossing_times`` takes with them.
    """
    keep = survival_array(d0, d1, t1 - t0, sigma[:, None])
    np.subtract(1.0, keep, out=keep)
    u = rng.random(keep.shape)
    np.subtract(1.0, u, out=u)
    flat = np.flatnonzero(u <= keep)
    # a flat take gathers several times faster than (rows, cols) indexing;
    # each block-sized array is dropped once gathered, and w and |d1| are
    # finished in their gathered buffers, which the block's peak holds
    cross = keep.ravel().take(flat)
    del keep
    w = u.ravel().take(flat)
    del u
    w /= cross
    del cross
    start = d0.ravel().take(flat)
    end = d1.ravel().take(flat)
    np.abs(end, out=end)
    # the runs take the buffer of the flat indices
    comps = np.empty_like(flat)
    runs = np.divmod(flat, d0.shape[1], out=(comps, flat))[1]
    return (comps, runs), w, start, end


def crossing_times(cells, w, start, end, t0, t1, sigma, rng):
    """Crossing times of the cells ``crossing_cells`` returns, with its
    ``w``, ``start`` and ``end``, drawn exactly from each bridge's
    conditional crossing-time law with one standard normal per cell from
    ``rng``, so every crossing has weight 1.

    The times are drawn over chunks of ``_DRAW_CHUNK`` cells, so the draw's
    temporaries stay small however many cells cross.  Consecutive
    ``standard_normal`` calls give the numbers one call of their total size
    gives, so the times do not depend on the chunk size.  Returns the times
    as a new array, in the cells' order; no argument is written.
    """
    comps, runs = cells
    times = np.empty(runs.size)
    for lo in range(0, runs.size, _DRAW_CHUNK):
        part = slice(lo, lo + _DRAW_CHUNK)
        t0_c, t1_c = t0.take(runs[part]), t1.take(runs[part])
        tau_c = t1_c - t0_c
        scale = np.sqrt(tau_c) * sigma.take(comps[part])
        z = rng.standard_normal(tau_c.size)
        frac = _ig_fraction(start[part], end[part], scale, z, w[part])
        # a time that rounds onto an endpoint is kept: weight 1 needs no density
        np.minimum(t0_c + tau_c * frac, t1_c, out=times[part])
    return times


def _ig_fraction(d0, d1, scale, z, w):
    """Crossing instant of a bridge that crosses, as a fraction of its
    interval, drawn exactly from a standard normal ``z`` and a uniform ``w``
    on (0, 1].

    ``d0`` > 0 and ``d1`` >= 0 are the bridge's start and end distances to
    the barrier and ``scale`` is sigma sqrt(tau).  With u and v the times
    from the interval's start and to its end, b = u / v is inverse Gaussian
    with mean 1 / r, r = d1 / d0, and shape (d0 / scale)^2 (Metwally &
    Atiya 2002).  It is drawn by Michael, Schucany & Haas (1976): the
    chi-square z^2 fixes two roots x1 <= x2 with x1 x2 = mean^2, and x1 is
    taken with probability mean / (mean + x1).  The draw is written with
    a = 1 / x1, which sums non-negative terms only and stays finite in the
    Levy limit r = 0; the fraction b / (1 + b) is 1 / (1 + a) for x1 and
    a / (a + r^2) for x2.
    """
    # a vanishing d0 overflows q and a to inf, which is the right limit (the
    # time rounds onto t0); inf or a = r = 0 only make the unused x2 branch NaN
    with np.errstate(over="ignore", invalid="ignore"):
        r = d1 / d0
        q = 0.5 * np.square(z * scale / d0)
        a = r + q + np.sqrt(q) * np.sqrt(q + 2.0 * r)
        return np.where(w * (a + r) <= a, 1.0 / (1.0 + a), a / (a + r * r))


def _cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(components, runs) of the true cells of an (m, n) mask, in
    component-major order: ``np.nonzero`` but several times faster."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])
