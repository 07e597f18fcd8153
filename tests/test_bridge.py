import math
from collections import namedtuple

import numpy as np
import pytest
from scipy import stats

from fptmc import LinearBarrier, ModelSpec
from fptmc.bridge import fpt_density_array, survival_array, uniform_candidates
from fptmc.results import KIND_AT_JUMP, KIND_INTERIOR, KIND_NONE
from fptmc.unif import simulate_block
from helpers import (
    quad_interjump_density,
    ratio_construction_density,
    simulate_bridge_crossing_times,
    simulate_bridge_survival,
)

# One component's bridge data on one interjump interval; mu is kept because
# the independent oracle takes it, although the bridge formulas do not.
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


def survival(s):
    return float(survival_array(s.x_start, s.x_end, s.level, s.t_end - s.t_start, s.sigma))


def density(s, t):
    return float(fpt_density_array(t, s.x_start, s.x_end, s.level, s.t_start, s.t_end, s.sigma))


def quad_density(s):
    return quad_interjump_density(s.x_start, s.x_end, s.level, s.t_start, s.t_end, s.sigma)


def candidates(s, u):
    """Uniform candidates for the segment, one block row per uniform; returns
    (accepted mask, times, weights) with times and weights of accepted rows."""
    u = np.asarray(u, dtype=float).reshape(-1, 1)
    n = len(u)

    def cells(value):
        return np.full((n, 1), float(value))

    ii, times, weights = uniform_candidates(
        cells(s.x_start),
        cells(s.x_end),
        cells(s.level),
        np.full(n, float(s.t_start)),
        np.full(n, float(s.t_end)),
        np.array([float(s.sigma)]),
        u,
        np.ones((n, 1), dtype=bool),
    )
    accepted = np.zeros(n, dtype=bool)
    accepted[ii[0]] = True
    return accepted, times, weights


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
        assert not np.isfinite(density(s, s.t_start))
        assert not np.isfinite(density(s, s.t_end))
        accepted, times, weights = candidates(s, [1.0, 5e-324, 0.5])
        assert accepted.tolist() == [False, False, True]
        assert times.tolist() == [1.5]
        assert np.all(np.isfinite(weights))


CLOCKS = 3


def clocked_block(*subjects, jump_rate=3.0, n=2000, seed=0):
    """One deterministic engine block (sigma 1e-9, fixed jump sizes).

    The first CLOCKS components step down by 1 at every jump and cross at
    jump k + 1 for k = 0, 1, ..., so their crossing times are each run's
    first jump instants (NaN past the last jump).  ``subjects`` are further
    components given as (x0, mu, jump size, barrier).  Returns the clock
    times and the subjects' crossing times and kinds, one row per run.
    """
    comps = [(0.0, 0.0, -1.0, LinearBarrier(-0.5 - k, 0.0)) for k in range(CLOCKS)]
    x0, mu, jump, barriers = zip(*(comps + list(subjects)))
    m = len(x0)
    spec = ModelSpec(
        m=m,
        x0=x0,
        mu=mu,
        sigma=np.eye(m) * 1e-9,
        jump_rate=jump_rate,
        jump_mean=jump,
        jump_sd=np.zeros(m),
        barriers=barriers,
        horizon=1.0,
    )
    hit_t, _, hit_k, _ = simulate_block(spec, np.random.default_rng(seed), n)
    return hit_t[:, :CLOCKS], hit_t[:, CLOCKS:], hit_k[:, CLOCKS:]


class TestFirstJumpCrossing:
    """The engine's at-jump check: a component crosses at the first jump whose
    post-jump value is at or below the barrier at that instant, unless the
    diffusion crossed before it."""

    def test_no_jumps(self):
        clock, times, kinds = clocked_block(
            (0.0, 0.0, -1.0, LinearBarrier(-0.5, 0.0)), jump_rate=0.0
        )
        assert np.isnan(clock).all() and np.isnan(times).all()
        assert np.all(kinds == KIND_NONE)

    def test_direct_breach_at_first_jump(self):
        clock, times, kinds = clocked_block((0.0, 0.0, -1.0, LinearBarrier(-0.5, 0.0)))
        assert np.array_equal(times[:, 0], clock[:, 0], equal_nan=True)
        assert np.all(kinds[~np.isnan(clock[:, 0]), 0] == KIND_AT_JUMP)

    def test_breach_at_second_jump(self):
        clock, times, kinds = clocked_block((0.0, 0.0, -0.6, LinearBarrier(-1.0, 0.0)))
        assert np.array_equal(times[:, 0], clock[:, 1], equal_nan=True)
        assert np.all(kinds[~np.isnan(clock[:, 1]), 0] == KIND_AT_JUMP)

    def test_blocked_by_earlier_diffusion_crossing(self):
        # the drift reaches the barrier at t = 0.5; a jump before that
        # breaches, and every later jump finds the component already crossed
        clock, times, kinds = clocked_block((0.0, -2.0, -10.0, LinearBarrier(-1.0, 0.0)))
        early = clock[:, 0] < 0.5
        assert 0 < early.sum() < len(early)
        assert np.all(kinds[early, 0] == KIND_AT_JUMP)
        assert np.array_equal(times[early, 0], clock[early, 0])
        assert np.all(kinds[~early, 0] == KIND_INTERIOR)

    def test_no_breach(self):
        _, _, kinds = clocked_block((0.0, 0.0, 0.5, LinearBarrier(-0.5, 0.0)))
        assert np.all(kinds == KIND_NONE)

    def test_affine_barrier_evaluated_at_jump_instants(self):
        # the first jump lands at 0.4: below the rising barrier D(t) = t from
        # t = 0.4 on, never below the flat barrier at 0
        clock, times, kinds = clocked_block(
            (1.0, 0.0, -0.6, LinearBarrier(0.0, 1.0)),
            (1.0, 0.0, -0.6, LinearBarrier(0.0, 0.0)),
        )
        late = clock[:, 0] >= 0.4
        assert 0 < late.sum() < len(late)
        assert np.array_equal(times[:, 0] == clock[:, 0], late)
        assert np.all(kinds[late, 0] == KIND_AT_JUMP)
        assert not np.any(times[:, 1] == clock[:, 0])
