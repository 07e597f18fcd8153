import copy
import math
import warnings
from collections import namedtuple

import numpy as np
import pytest
from scipy import stats

from fptmc import ModelSpec, bridge
from fptmc.bridge import (
    crossing_cells,
    crossing_times,
    fpt_density_array,
    survival_array,
)
from fptmc.results import KIND_AT_JUMP, KIND_INTERIOR, KIND_NONE, Crossings
from fptmc.unif import simulate_block
from helpers import (
    quad_interjump_density,
    ratio_construction_density,
    reference_ig_fraction,
    simulate_bridge_crossing_times,
    simulate_bridge_survival,
    uniform_candidates,
)

# One component's bridge data on one interjump interval; mu is kept because
# the independent oracle takes it, although the bridge formulas do not.  The
# kernels take the distances x_start - level and x_end - level.
Seg = namedtuple("Seg", "x_start x_end level t_start t_end mu sigma")


def seg(x_start=1.0, x_end=1.0, level=0.0, t_start=0.0, t_end=1.0, mu=0.0, sigma=1.0):
    return Seg(x_start, x_end, level, t_start, t_end, mu, sigma)


def random_segment(rng, level=0.0):
    return seg(
        x_start=level + rng.uniform(0.2, 2.0),
        x_end=level + rng.uniform(-1.0, 2.0),
        level=level,
        t_start=rng.uniform(0.0, 1.0),
        t_end=rng.uniform(1.2, 3.0),
        mu=rng.uniform(-1.0, 1.0),
        sigma=rng.uniform(0.2, 1.5),
    )


def distances(s):
    return s.x_start - s.level, s.x_end - s.level


def survival(s):
    return float(survival_array(*distances(s), s.t_end - s.t_start, s.sigma))


def density(s, t):
    return float(fpt_density_array(t, *distances(s), s.t_start, s.t_end, s.sigma))


def quad_density(s):
    return quad_interjump_density(*distances(s), s.t_start, s.t_end, s.sigma)


def exact_crossings(d0, d1, t0, t1, sigma, rng):
    """The engine's interior step: the crossing decision, which draws its
    uniforms from ``rng``, then the exact times of the crossing cells, drawn
    from the same generator.  Returns ((components, runs), times)."""
    cells, w, start, end = crossing_cells(d0, d1, t0, t1, sigma, rng)
    return cells, crossing_times(cells, w, start, end, t0, t1, sigma, rng)


def segment_args(s, n):
    """The kernels' arguments for n runs of the segment, one block column
    per run: (d0, d1, t0, t1, sigma)."""
    d0, d1 = distances(s)
    t0, t1 = np.full(n, float(s.t_start)), np.full(n, float(s.t_end))
    return np.full((1, n), d0), np.full((1, n), d1), t0, t1, np.array([float(s.sigma)])


def run_mask(ii, n):
    """The mask of the n runs among the crossing cells ``ii``."""
    mask = np.zeros(n, dtype=bool)
    mask[ii[1]] = True
    return mask


def candidates(s, u):
    """The paper's uniform candidates for the segment, one block column per
    uniform: the accepted mask, then the times of accepted columns and their
    weights."""
    u = np.asarray(u, dtype=float).reshape(1, -1)
    ii, *drawn = uniform_candidates(*segment_args(s, u.shape[1]), u)
    return (run_mask(ii, u.shape[1]), *drawn)


def exact_draws(s, n, rng):
    """The engine's exact draw for n runs of the segment, its uniforms and
    normals from ``rng``: the crossed mask, then the times of crossed
    columns."""
    ii, times = exact_crossings(*segment_args(s, n), rng)
    return run_mask(ii, n), times


class TestSurvivalProbability:
    def test_zero_when_end_at_or_below_level(self):
        assert survival(seg(x_end=0.0)) == 0.0
        assert survival(seg(x_end=-0.3)) == 0.0

    def test_zero_when_start_at_level(self):
        assert survival(seg(x_start=0.0, x_end=1.0, level=0.0)) == 0.0

    def test_symmetric_unit_case(self):
        assert survival(seg()) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)

    def test_brute_force_bridge_minimum(self):
        p = survival(seg())
        est, se = simulate_bridge_survival(
            1.0, 1.0, 0.0, 1.0, 1.0, 100_000, 1000, np.random.default_rng(2024)
        )
        assert abs(est - p) < 3.0 * se

    def test_translation_invariance(self, rng):
        for _ in range(50):
            s = random_segment(rng)
            shift = rng.uniform(-5.0, 5.0)
            shifted = s._replace(
                x_start=s.x_start + shift, x_end=s.x_end + shift, level=s.level + shift
            )
            assert survival(shifted) == pytest.approx(survival(s), rel=1e-12, abs=1e-15)

    def test_scaling_invariance(self, rng):
        for _ in range(50):
            s = random_segment(rng)
            c = rng.uniform(0.1, 10.0)
            scaled = s._replace(
                x_start=s.level + c * (s.x_start - s.level),
                x_end=s.level + c * (s.x_end - s.level),
                sigma=c * s.sigma,
            )
            assert survival(scaled) == pytest.approx(survival(s), rel=1e-12, abs=1e-15)

    def test_in_unit_interval(self, rng):
        for _ in range(200):
            p = survival(random_segment(rng))
            assert 0.0 <= p <= 1.0


class TestInterjumpDensity:
    def test_certain_crossing_integrates_to_one(self):
        s = seg(x_end=-0.5)
        assert quad_density(s) == pytest.approx(1.0, abs=1e-3)

    def test_integrates_to_crossing_probability(self):
        s = seg()
        assert quad_density(s) == pytest.approx(1.0 - survival(s), abs=1e-3)

    def test_matches_ratio_construction(self, rng):
        # the oracle keeps the drift; conditioning on both endpoints cancels it
        for _ in range(100):
            s = random_segment(rng)
            t = rng.uniform(
                s.t_start + 0.05 * (s.t_end - s.t_start),
                s.t_start + 0.95 * (s.t_end - s.t_start),
            )
            direct = density(s, t)
            via_ratio = ratio_construction_density(
                t, s.x_start, s.x_end, s.level, s.t_start, s.t_end, s.mu, s.sigma
            )
            if via_ratio > 1e-290:
                assert direct == pytest.approx(via_ratio, rel=1e-10)

    def test_crossing_time_histogram(self):
        # fine-grid bridges that do cross, against the conditional density
        # g / (1 - P); the grid is kept fine and the sample modest so the
        # simulation's own detection bias stays below the test's power
        s = seg()
        times = simulate_bridge_crossing_times(
            1.0, 1.0, 0.0, 1.0, 1.0, 15_000, 8000, np.random.default_rng(77)
        )
        edges = np.linspace(0.0, 1.0, 21)
        observed, _ = np.histogram(times, bins=edges)
        from scipy.integrate import quad

        expected = np.array(
            [
                quad(lambda t: density(s, t), lo, hi, limit=200)[0]
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        )
        expected = expected / expected.sum() * observed.sum()
        assert stats.chisquare(observed, expected).pvalue > 0.01

    def test_equals_the_product_form(self, rng):
        # the single exponent against the two hitting factors over the
        # endpoint normaliser, on arrays of interior points, wherever both
        # are normal doubles: a subnormal value has fewer than 12 digits
        n = 20_000
        d0 = rng.uniform(1e-3, 2.0, n)
        d1 = rng.uniform(-1.0, 2.0, n)
        t0 = rng.uniform(0.0, 1.0, n)
        t1 = t0 + rng.uniform(1e-3, 2.0, n)
        t = t0 + rng.uniform(0.001, 0.999, n) * (t1 - t0)
        sigma = rng.uniform(0.05, 1.5, n)
        g = fpt_density_array(t, d0, d1, t0, t1, sigma)
        product = product_form_density(t, d0, d1, t0, t1, sigma)
        tiny = np.finfo(float).tiny
        both = (g >= tiny) & (product >= tiny)
        assert both.mean() > 0.9
        np.testing.assert_allclose(g[both], product[both], rtol=1e-12, atol=0.0)

    def test_near_deterministic_bridges_underflow_to_zero(self):
        # sigma = 1e-9 bridges of the drifting subject's geometry, whose
        # distance to the barrier is x0 - intercept + (mu - slope) t, on
        # intervals that end above and below the barrier.  Evaluated as the
        # product form's three exponentials, such a density is inf * 0 = NaN
        # wherever the endpoint normaliser underflows
        x0, mu, _, intercept, slope = DRIFTING_SUBJECT
        sigma = 1e-9
        rng = np.random.default_rng(61)
        n = 20_000
        t0 = rng.uniform(0.0, 0.49, n)
        t1 = t0 + rng.uniform(1e-3, 0.5, n)

        def distance(t):
            return x0 - intercept + (mu - slope) * t

        d0 = distance(t0)
        d1 = distance(t1) + sigma * np.sqrt(t1 - t0) * rng.standard_normal(n)
        # interior points, and each crossing bridge's straight-line crossing
        # instant, where its density peaks
        t = t0 + rng.uniform(0.001, 0.999, n) * (t1 - t0)
        cross = np.flatnonzero(d1 < 0.0)
        t[cross] = t0[cross] + (t1 - t0)[cross] * d0[cross] / (d0 - d1)[cross]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            g = fpt_density_array(t, d0, d1, t0, t1, sigma)
        assert not np.isnan(g).any()
        assert np.count_nonzero(g > 0.0) >= len(cross) > 1000
        # every zero is a true underflow: its logarithm, by the independent
        # ratio construction, is below that of the least positive double
        zero = g == 0.0
        assert zero.sum() > 1000
        u, v = (t - t0)[zero], (t1 - t)[zero]
        a, b = d0[zero], d1[zero]
        log_g = (
            np.log(a / (sigma * np.sqrt(2.0 * math.pi * u**3)))
            - a**2 / (2.0 * sigma**2 * u)
            + stats.norm.logpdf(b, loc=0.0, scale=sigma * np.sqrt(v))
            - stats.norm.logpdf(b, loc=a, scale=sigma * np.sqrt(u + v))
        )
        assert np.all(log_g < math.log(5e-324))


def product_form_density(t, x_start, x_end, t_start, t_end, sigma):
    """The crossing density as the two hitting factors over the endpoint
    normaliser, three separate exponentials: the form that
    ``bridge.fpt_density_array`` replaced with a single exponential.  It
    takes distances to the barrier, that is values against a level of 0.
    It is NaN where any of the three exponentials is not a normal double:
    there it loses the digits that the single exponential keeps."""
    level = 0.0
    (t, x_start, x_end, t_start, t_end, sigma) = np.broadcast_arrays(
        t, x_start, x_end, t_start, t_end, sigma
    )
    tau = t_end - t_start
    u = t - t_start
    v = t_end - t
    sig2 = np.square(sigma)
    endpoint, down, up = (
        np.exp(-np.square(d) / (2.0 * span * sig2))
        for d, span in ((x_start - x_end, tau), (x_end - level, v), (x_start - level, u))
    )
    y = endpoint / (sigma * np.sqrt(2.0 * np.pi * tau))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pref = (x_start - level) / (2.0 * y * np.pi * sig2) * u**-1.5 * v**-0.5
        g = pref * down * up
    normal = np.minimum(np.minimum(endpoint, down), up) >= np.finfo(float).tiny
    return np.where(normal, g, np.nan)


class TestSampleCrossing:
    def test_certain_crossing_always_accepts(self, rng):
        s = seg(x_end=-0.5)  # survival 0
        accepted, times, _ = candidates(s, 1.0 - rng.random(5000))
        assert accepted.all()
        assert np.all((times > s.t_start) & (times <= s.t_end))
        # candidate times are uniform before weighting
        u = (times - s.t_start) / (s.t_end - s.t_start)
        assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_acceptance_rate_matches_crossing_probability(self, rng):
        s = seg()  # survival = 1 - exp(-2)
        n = 100_000
        accepted, _, _ = candidates(s, 1.0 - rng.random(n))
        p_cross = math.exp(-2.0)
        se = math.sqrt(p_cross * (1 - p_cross) / n)
        assert accepted.mean() == pytest.approx(p_cross, abs=3 * se)

    def test_weighted_draws_reproduce_density_at_midpoint(self, rng):
        # importance identity: E[w * K(s - t)] -> g(t)
        s = seg()
        n = 1_000_000
        _, times, weights = candidates(s, 1.0 - rng.random(n))
        t_mid = 0.5
        width = 0.02
        kernel = np.exp(-np.square(times - t_mid) / (width * width / 2.0)) / (
            math.sqrt(math.pi / 2.0) * width
        )
        estimate = float((weights * kernel).sum() / n)
        assert estimate == pytest.approx(density(s, t_mid), rel=0.05)

    def test_short_circuit_when_survival_rounds_to_one(self, rng):
        s = seg(x_start=5.0, x_end=5.0, t_end=0.01, sigma=0.1)
        assert survival(s) == 1.0
        accepted, _, _ = candidates(s, 1.0 - rng.random(100))
        assert not accepted.any()

    def test_draw_fields(self, rng):
        s = seg()
        _, times, weights = candidates(s, 1.0 - rng.random(200))
        assert np.all((s.t_start < times) & (times <= s.t_end))
        assert np.all(weights > 0.0)

    def test_candidates_on_an_endpoint_are_rejected(self):
        # the density is singular at both ends of the interval, so a
        # candidate rounding onto either one is not accepted
        s = seg(x_end=-0.5, t_start=1.0, t_end=2.0)  # survival 0
        with np.errstate(divide="ignore", invalid="ignore"):
            assert not np.isfinite(density(s, s.t_start))
            assert not np.isfinite(density(s, s.t_end))
            accepted, times, weights = candidates(s, [1.0, 5e-324, 0.5])
        assert accepted.tolist() == [False, False, True]
        assert times.tolist() == [1.5]
        assert np.all(np.isfinite(weights))


# segments for the exact sampler: ending above, below and exactly at the
# level, a shifted interval, and a near-deterministic bridge whose shape
# d0^2 / (sigma^2 tau) is 4e4
IG_SEGMENTS = {
    "end_above": seg(),
    "end_below": seg(x_end=-0.5),
    "end_at_level": seg(x_end=0.0),
    "shifted": seg(x_start=0.3, x_end=1.7, t_start=0.5, t_end=2.0, sigma=0.6),
    "narrow": seg(x_end=-0.2, sigma=0.005),
}


class TestExactCrossingTime:
    @pytest.mark.parametrize("name", sorted(IG_SEGMENTS))
    def test_times_follow_the_crossing_density(self, name):
        # KS test of the times against the crossing-time CDF given a
        # crossing, from quadrature of the density between sorted times
        s = IG_SEGMENTS[name]
        rng = np.random.default_rng(sorted(IG_SEGMENTS).index(name) + 500)
        n = int(3000 / (1.0 - survival(s)))
        _, times = exact_draws(s, n, rng)
        edges = np.concatenate([[s.t_start], np.sort(times), [s.t_end]])
        pieces = [
            quad_interjump_density(*distances(s), s.t_start, s.t_end, s.sigma, lo, hi)
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        cdf = np.cumsum(pieces)
        assert stats.kstest(cdf[:-1] / cdf[-1], "uniform").pvalue > 1e-3

    def test_crossing_decision_is_shared_with_the_candidate(self, rng):
        # the exact draw keeps the paper's crossing decision: on the same
        # uniforms, which the kernel draws from a twin of the candidate's
        # generator, the same cells cross
        s = seg()
        n = 20_000
        exact, _ = exact_draws(s, n, copy.deepcopy(rng))
        paper, _, _ = candidates(s, 1.0 - rng.random(n))
        assert np.array_equal(exact, paper)

    def test_the_decision_draws_one_block_of_uniforms(self, rng):
        # the kernel takes u = 1 - rng.random((m, n)) and nothing else from
        # its generator, and on those uniforms returns what it returned when
        # it was handed u: the cells u <= 1 - P in component-major order,
        # w = u / (1 - P), the start distance and the absolute end distance
        m, n = 3, 5000
        d0 = rng.uniform(1e-3, 2.0, (m, n))
        d1 = rng.uniform(-1.0, 2.0, (m, n))
        retired = rng.random((m, n)) >= 0.9
        d0[retired] = d1[retired] = np.inf
        t0 = rng.uniform(0.0, 1.0, n)
        t1 = t0 + rng.uniform(1e-3, 1.0, n)
        sigma = rng.uniform(0.1, 1.0, m)
        kernel, twin = np.random.default_rng(41), np.random.default_rng(41)
        (comps, runs), w, start, end = crossing_cells(d0, d1, t0, t1, sigma, kernel)
        u = 1.0 - twin.random((m, n))
        keep = 1.0 - survival_array(d0, d1, t1 - t0, sigma[:, None])
        cells = np.nonzero(u <= keep)
        assert 0 < cells[0].size < m * n
        assert np.array_equal(comps, cells[0]) and np.array_equal(runs, cells[1])
        assert np.array_equal(w, u[cells] / keep[cells])
        assert np.array_equal(start, d0[cells])
        assert np.array_equal(end, np.abs(d1[cells]))
        assert kernel.bit_generator.state == twin.bit_generator.state

    def test_extreme_cells_stay_inside_the_interval(self):
        # a vanishing start distance, an end far below the barrier and the
        # Levy limit with a tiny sigma: each cell crosses whatever its
        # uniform (the first one's 1 - P rounds to 1), and every crossing is
        # kept, with a time on the closed interval
        d0 = np.array([[1e-300], [1.0], [1.0], [1.0]])
        d1 = np.array([[0.5], [-1e300], [0.0], [0.0]])
        ii, times = exact_crossings(
            d0,
            d1,
            np.array([2.0]),
            np.array([3.0]),
            np.array([1.0, 1.0, 1e-200, 1.0]),
            np.random.default_rng(3),
        )
        assert ii[0].tolist() == [0, 1, 2, 3]
        assert np.all((times >= 2.0) & (times <= 3.0))
        assert times[0] == 2.0 and times[1] == 2.0

    def test_in_place_fraction_equals_the_reference(self, rng):
        # the draw does the reference's operations in the same order, also
        # where d0 vanishes, d1 is zero or huge and sigma is tiny
        n = 50_000
        d0 = rng.uniform(1e-3, 2.0, n)
        d1 = rng.uniform(0.0, 2.0, n)
        scale = rng.uniform(1e-3, 1.5, n)
        d0[:4], d1[4:8], d1[8:10], scale[10:12] = 1e-300, 0.0, 1e300, 1e-200
        z = rng.standard_normal(n)
        w = 1.0 - rng.random(n)
        expected = reference_ig_fraction(d0, d1, scale, z, w)
        got = bridge._ig_fraction(d0.copy(), d1.copy(), scale.copy(), z.copy(), w.copy())
        assert np.array_equal(got, expected)
        assert np.all((got >= 0.0) & (got <= 1.0))

    def test_times_do_not_depend_on_the_chunk_and_keep_their_inputs(
        self, rng, monkeypatch
    ):
        # about 50 crossing cells over 3 components and 20 runs, drawn in
        # one chunk and in chunks of 3 cells, whose edges split runs and
        # components; the draw writes into none of its inputs
        m, n = 3, 20
        d0 = rng.uniform(0.1, 2.0, (m, n))
        d1 = rng.uniform(-1.0, 0.0, (m, n))
        # a retired cell, the engine's +inf distances, never crosses
        retired = rng.random((m, n)) >= 0.85
        d0[retired] = d1[retired] = np.inf
        t0 = rng.uniform(0.0, 1.0, n)
        t1 = t0 + rng.uniform(1e-3, 1.0, n)
        sigma = rng.uniform(0.1, 1.0, m)
        cells, *drawn = crossing_cells(d0, d1, t0, t1, sigma, rng)
        assert 40 <= cells[0].size <= 60
        assert len(set(cells[0].tolist())) == m and len(set(cells[1].tolist())) > 10
        inputs = (*drawn, t0, t1, sigma)
        copies = [a.copy() for a in inputs]
        whole = crossing_times(cells, *inputs, np.random.default_rng(5))
        monkeypatch.setattr(bridge, "_DRAW_CHUNK", 3)
        chunked = crossing_times(cells, *inputs, np.random.default_rng(5))
        assert np.array_equal(chunked, whole)
        for a, before in zip(inputs, copies):
            assert np.array_equal(a, before)

    def test_every_alive_cell_ending_at_or_below_the_barrier_crosses(self, rng):
        # a cell whose interval ends at or below the barrier has crossing
        # probability exactly 1 and u is at most 1, so it never reaches the
        # jump at the interval's end uncrossed
        m, n = 3, 20_000
        d0 = rng.uniform(1e-6, 2.0, (m, n))
        d1 = rng.uniform(-1.0, 1.0, (m, n))
        d1[:, ::7] = 0.0
        d0[:, ::11] = 50.0  # far above: survival that rounds to one unless d1 <= 0
        # a retired cell has +inf distances, as in the engine, and column 0
        # is a run with no live component, whose inputs push hardest to cross
        alive = rng.random((m, n)) < 0.8
        alive[:, 0] = False
        d0[~alive] = d1[~alive] = np.inf
        t0 = rng.uniform(0.0, 1.0, n)
        t1 = t0 + rng.uniform(1e-3, 1.0, n)
        sigma = rng.uniform(0.1, 1.0, m)
        ii, times = exact_crossings(d0, d1, t0, t1, sigma, rng)
        crossed = np.zeros((m, n), dtype=bool)
        crossed[ii] = True
        below = alive & (d1 <= 0.0)
        assert below.sum() > 0.4 * m * n
        # so even the largest uniform, 1, crosses there
        assert np.all(survival_array(d0, d1, t1 - t0, sigma[:, None])[below] == 0.0)
        assert np.all(crossed[below])
        assert not np.any(crossed & ~alive)
        assert 0 not in ii[1]
        assert np.all((times >= t0[ii[1]]) & (times <= t1[ii[1]]))


CLOCKS = 3


def clocked_spec(*subjects, jump_rate=3.0):
    """A deterministic model (sigma 1e-9, fixed jump sizes).

    The first CLOCKS components step down by 1 at every jump and cross at
    jump k + 1 for k = 0, 1, ..., so their crossing times are each run's
    first jump instants (NaN past the last jump).  ``subjects`` are further
    components given as (x0, mu, jump size, barrier intercept, barrier
    slope).
    """
    comps = [(0.0, 0.0, -1.0, -0.5 - k, 0.0) for k in range(CLOCKS)]
    x0, mu, jump, intercept, slope = zip(*(comps + list(subjects)))
    m = len(x0)
    return ModelSpec(
        m=m,
        x0=x0,
        mu=mu,
        sigma=np.eye(m) * 1e-9,
        jump_rate=jump_rate,
        jump_mean=jump,
        jump_sd=np.zeros(m),
        barrier_intercept=intercept,
        barrier_slope=slope,
        horizon=1.0,
    )


def clocked_block(*subjects, jump_rate=3.0, n=2000, seed=0):
    """One engine block of ``clocked_spec``.  Returns the clock times and the
    subjects' crossing times and kinds, one row per run (the transpose of
    the block's component-major arrays)."""
    spec = clocked_spec(*subjects, jump_rate=jump_rate)
    out = Crossings.never_crossed(spec.m, n)
    hit_t, _, hit_k, _ = simulate_block(spec, np.random.default_rng(seed), n, out=out)
    return hit_t[:CLOCKS].T, hit_t[CLOCKS:].T, hit_k[CLOCKS:].T


# drifts to its barrier at t = 0.5 unless a jump before that breaches
DRIFTING_SUBJECT = (0.0, -2.0, -10.0, -1.0, 0.0)


class TestFirstJumpCrossing:
    """The engine's at-jump check: a component crosses at the first jump whose
    post-jump value is at or below the barrier at that instant, unless the
    diffusion crossed before it."""

    def test_no_jumps(self):
        clock, times, kinds = clocked_block(
            (0.0, 0.0, -1.0, -0.5, 0.0), jump_rate=0.0
        )
        assert np.isnan(clock).all() and np.isnan(times).all()
        assert np.all(kinds == KIND_NONE)

    def test_direct_breach_at_first_jump(self):
        clock, times, kinds = clocked_block((0.0, 0.0, -1.0, -0.5, 0.0))
        assert np.array_equal(times[:, 0], clock[:, 0], equal_nan=True)
        assert np.all(kinds[~np.isnan(clock[:, 0]), 0] == KIND_AT_JUMP)

    def test_breach_at_second_jump(self):
        clock, times, kinds = clocked_block((0.0, 0.0, -0.6, -1.0, 0.0))
        assert np.array_equal(times[:, 0], clock[:, 1], equal_nan=True)
        assert np.all(kinds[~np.isnan(clock[:, 1]), 0] == KIND_AT_JUMP)

    def test_blocked_by_earlier_diffusion_crossing(self):
        # the drift reaches the barrier at t = 0.5; a jump before that
        # breaches, and every later jump finds the component already crossed
        clock, times, kinds = clocked_block(DRIFTING_SUBJECT)
        early = clock[:, 0] < 0.5
        assert 0 < early.sum() < len(early)
        assert np.all(kinds[early, 0] == KIND_AT_JUMP)
        assert np.array_equal(times[early, 0], clock[early, 0])
        assert np.all(kinds[~early, 0] == KIND_INTERIOR)

    def test_exact_sampler_finds_the_drift_crossing(self):
        # with sigma 1e-9 the bridge's crossing time is where its straight
        # line meets the barrier
        clock, times, kinds = clocked_block(DRIFTING_SUBJECT)
        late = kinds[:, 0] == KIND_INTERIOR
        assert late.sum() > 0
        assert np.allclose(times[late, 0], 0.5, rtol=0.0, atol=1e-6)

    def test_extreme_cells_raise_no_warning(self):
        # the near-deterministic blocks above, and bridges that end far below
        # the barrier, at it with a zero sigma sqrt(tau), above it with a zero
        # tau, or start a hair above it, and a retired cell, whose distances
        # are both +inf: no overflow, no 0 / 0 and no 0 * inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = survival_array(
                np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1e-300, np.inf]),
                np.array([0.5, -0.5, -1e300, 0.0, 0.5, 0.5, np.inf]),
                np.array([0.3, 0.3, 1.0, 1.0, 0.0, 1.0, 0.3]),
                np.array([1e-9, 1e-9, 1.0, 1e-200, 1.0, 1.0, 1.0]),
            )
            assert p.tolist() == [1.0, 0.0, 0.0, 0.0, 1.0, 1e-300, 1.0]
            for subject in (DRIFTING_SUBJECT, (0.0, 0.0, -1.0, -0.5, 0.0)):
                clocked_block(subject)
            TestExactCrossingTime().test_extreme_cells_stay_inside_the_interval()

    def test_no_breach(self):
        _, _, kinds = clocked_block((0.0, 0.0, 0.5, -0.5, 0.0))
        assert np.all(kinds == KIND_NONE)

    def test_affine_barrier_evaluated_at_jump_instants(self):
        # the first jump lands at 0.4: below the rising barrier D(t) = t from
        # t = 0.4 on, never below the flat barrier at 0
        clock, times, kinds = clocked_block(
            (1.0, 0.0, -0.6, 0.0, 1.0),
            (1.0, 0.0, -0.6, 0.0, 0.0),
        )
        late = clock[:, 0] >= 0.4
        assert 0 < late.sum() < len(late)
        assert np.array_equal(times[:, 0] == clock[:, 0], late)
        assert np.all(kinds[late, 0] == KIND_AT_JUMP)
        assert not np.any(times[:, 1] == clock[:, 0])
