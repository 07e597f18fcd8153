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
* ``draw_crossings``: turns one uniform per (component, run) cell into
  either "no interior crossing" or a crossing time, drawn exactly from the
  bridge's conditional crossing-time law (an inverse-Gaussian transform),
  so every crossing has weight 1.

The bridge-sampling engine calls ``draw_crossings``, which evaluates
``survival_array``, with distances to each barrier held at its interval's
midpoint (see ``unif``); the crossing times it draws follow
``fpt_density_array``.
These are the only implementation of the formulas.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "survival_array",
    "fpt_density_array",
    "draw_crossings",
]

_LEAST_DOUBLE = np.finfo(float).smallest_subnormal

# Crossing cells per chunk of ``draw_crossings``' time draw: the first pass of
# a 65,536-run two-component block crosses about 73,000 cells.
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


def draw_crossings(d0, d1, t0, t1, tau, sigma, u, alive, rng):
    """Interior crossings of a block of bridge intervals, one uniform per cell.

    Column r of the (m, n) arrays ``d0`` and ``d1`` holds run r's start and
    end distances to the barrier on its interval (t0[r], t1[r]), of length
    tau[r] = t1[r] - t0[r], and row i is component i; ``sigma`` holds the
    (m,) per-component volatilities, ``u`` holds (m, n) uniforms on (0, 1]
    and ``alive`` marks the cells that are still uncrossed.

    With P the cell's survival probability, a cell crosses exactly when
    u <= 1 - P, which happens with probability 1 - P; so every alive cell
    with d1 <= 0 crosses, and since u >= 2^-53 a cell whose 1 - P is below
    that never crosses.  The crossing time is drawn exactly from the
    bridge's conditional crossing-time law, with one standard normal per
    crossing cell from ``rng``, so every crossing has weight 1.

    The block-sized survival array is dropped once the crossing cells'
    values are gathered, and the times are drawn over chunks of
    ``_DRAW_CHUNK`` cells, so the draw's temporaries stay small however
    many cells cross.  Consecutive ``standard_normal`` calls give the
    numbers one call of their total size gives, so the times do not depend
    on the chunk size.

    Returns ((components, runs), times) of the crossing cells, in
    component-major order.
    """
    keep = survival_array(d0, d1, tau, sigma[:, None])
    np.subtract(1.0, keep, out=keep)
    flat = np.flatnonzero(alive & (u <= keep))
    # a flat take gathers several times faster than (rows, cols) indexing;
    # given u <= keep, u / keep is uniform on (0, 1]: it picks the root
    w = u.ravel().take(flat)
    w /= keep.ravel().take(flat)
    del keep
    start = d0.ravel().take(flat)
    # each chunk's fraction, then its time, is formed in the buffer of its
    # end distances
    s = d1.ravel().take(flat)
    np.abs(s, out=s)
    # the runs take the buffer of the flat indices
    comps = np.empty_like(flat)
    runs = np.divmod(flat, d0.shape[1], out=(comps, flat))[1]
    for lo in range(0, s.size, _DRAW_CHUNK):
        part = slice(lo, lo + _DRAW_CHUNK)
        runs_c = runs[part]
        tau_c = tau.take(runs_c)
        scale = np.sqrt(tau_c)
        scale *= sigma.take(comps[part])
        frac = _ig_fraction(
            start[part], s[part], scale, rng.standard_normal(tau_c.size), w[part]
        )
        # a time that rounds onto an endpoint is kept: weight 1 needs no density
        frac *= tau_c
        frac += t0.take(runs_c)
        np.minimum(frac, t1.take(runs_c), out=frac)
    return (comps, runs), s


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

    The five arguments are 1-D arrays of one chunk of crossing cells that
    the caller hands over: they are overwritten, and the result is returned
    in the buffer of ``d1``, so the draw makes no further temporaries of
    that size but the mask of first roots.
    """
    # a vanishing d0 overflows q and a to inf, which is the right limit (the
    # time rounds onto t0); inf or a = r = 0 only make the unused x2 branch NaN
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.divide(d1, d0, out=d1)
        z *= scale
        z /= d0
        q = np.square(z, out=z)
        q *= 0.5
        root = np.multiply(r, 2.0, out=d0)
        root += q
        np.sqrt(root, out=root)
        root *= np.sqrt(q, out=scale)
        a = np.add(r, q, out=scale)
        a += root
        # x1 is taken where w (a + r) <= a
        wa = np.add(a, r, out=z)
        wa *= w
        first = wa <= a
        np.square(r, out=r)
        r += a
        frac = np.divide(a, r, out=r)
        a += 1.0
        np.copyto(frac, np.reciprocal(a, out=a), where=first)
        return frac


def _cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(components, runs) of the true cells of an (m, n) mask, in
    component-major order: ``np.nonzero`` but several times faster."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])
