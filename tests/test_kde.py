import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from fptmc import (
    DensityEstimate,
    GammaFit,
    WeightedSamples,
    estimate_density_1d,
    estimate_density_multi,
    estimate_densities,
    gamma_moment_fit,
    gaussian_kernel,
    optimal_bandwidth_1d,
    optimal_bandwidth_multi,
    roughness_functional,
)
from fptmc.results import collect_result
from helpers import direct_kernel_sum, gamma_density_curvature_quad, traced_peak


class TestGaussianKernel:
    def test_peak_value(self):
        assert gaussian_kernel(1.0, 0.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-14
        )

    def test_symmetry(self, rng):
        for _ in range(100):
            h = rng.uniform(0.01, 5.0)
            x = rng.uniform(-10.0, 10.0)
            assert gaussian_kernel(h, x) == gaussian_kernel(h, -x)

    def test_unit_mass(self):
        for h in (0.1, 1.0, 3.0):
            mass, _ = quad(lambda x: gaussian_kernel(h, x), -np.inf, np.inf)
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            gaussian_kernel(0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_kernel(-1.0, 1.0)
        for h in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                gaussian_kernel(h, 1.0)


class TestGammaFit:
    def test_direct_formulas(self):
        fit = gamma_moment_fit([1.0, 3.0])  # mean 2, population sd 1
        assert fit.alpha == pytest.approx(2.0)
        assert fit.beta == pytest.approx(4.0)

    def test_clamps_beta_to_three(self):
        fit = gamma_moment_fit([0.0, 2.0])  # mean 1, sd 1 -> raw beta 1
        assert fit.beta == 3.0
        assert fit.alpha == pytest.approx(1.0)

    def test_recovers_parameters(self, rng):
        draws = rng.gamma(shape=5.0, scale=1.0 / 5.0, size=100_000)
        fit = gamma_moment_fit(draws)
        assert fit.alpha == pytest.approx(5.0, rel=0.05)
        assert fit.beta == pytest.approx(5.0, rel=0.05)

    def test_too_few_or_degenerate(self):
        with pytest.raises(ValueError):
            gamma_moment_fit([1.0])
        with pytest.raises(ValueError):
            gamma_moment_fit([2.0, 2.0, 2.0])

    def test_constructor_rejects_low_beta(self):
        with pytest.raises(ValueError):
            GammaFit(alpha=1.0, beta=2.9)
        with pytest.raises(ValueError):
            GammaFit(alpha=0.0, beta=3.0)


class TestRoughnessFunctional:
    def test_reference_value(self):
        # independently derived: for unit-rate shape-3 gamma the integral of
        # the squared second derivative is 3/16
        assert roughness_functional(GammaFit(1.0, 3.0)) == pytest.approx(
            3.0 / 16.0, rel=1e-12
        )

    def test_alpha_scaling_law(self, rng):
        for _ in range(20):
            beta = rng.uniform(3.0, 9.0)
            alpha = rng.uniform(0.2, 5.0)
            c = rng.uniform(0.1, 10.0)
            assert roughness_functional(GammaFit(c * alpha, beta)) == pytest.approx(
                c**5 * roughness_functional(GammaFit(alpha, beta)), rel=1e-10
            )

    def test_matches_quadrature(self):
        assert roughness_functional(GammaFit(2.0, 4.0)) == pytest.approx(
            gamma_density_curvature_quad(2.0, 4.0), rel=1e-6
        )

    @pytest.mark.parametrize("beta", [10, 40, 100, 150])
    def test_exact_at_integer_beta(self, beta):
        # at integer beta the closed form is the rational
        # (3/4)(b-1)(b-2) (2b-6)! / (2^(2b-5) ((b-1)!)^2), exact in fractions
        exact = Fraction(3 * (beta - 1) * (beta - 2), 4) * Fraction(
            math.factorial(2 * beta - 6), 2 ** (2 * beta - 5) * math.factorial(beta - 1) ** 2
        )
        value = roughness_functional(GammaFit(1.0, float(beta)))
        assert abs(value - float(exact)) <= 1e-12 * float(exact)

    def test_large_beta_stays_finite(self):
        val = roughness_functional(GammaFit(20.0, 80.0))
        assert np.isfinite(val) and val > 0


class TestBandwidths:
    def test_1d_reference_value(self):
        # (2 * 1e5 * sqrt(pi) * 3/16) ** -0.2, recomputed independently
        h = optimal_bandwidth_1d(GammaFit(1.0, 3.0), 100_000)
        expected = (2.0 * 100_000 * math.sqrt(math.pi) * 0.1875) ** -0.2
        assert h == pytest.approx(expected, rel=1e-12)
        assert h == pytest.approx(0.108512, abs=1e-6)

    def test_1d_power_law(self):
        fit = GammaFit(2.5, 4.0)
        for n in (10, 1000, 12345):
            assert optimal_bandwidth_1d(fit, 16 * n) == pytest.approx(
                optimal_bandwidth_1d(fit, n) * 16.0**-0.2, rel=1e-12
            )

    def test_1d_decreasing_in_n(self):
        fit = GammaFit(1.0, 3.0)
        hs = [optimal_bandwidth_1d(fit, n) for n in (10, 100, 1000, 10_000)]
        assert np.all(np.diff(hs) < 0)

    def test_multi_reference_values(self):
        assert optimal_bandwidth_multi(2, 100_000) == pytest.approx(
            100_000 ** (-1.0 / 6.0) * (4.0 / 5.0) ** (1.0 / 6.0), rel=1e-12
        )
        assert optimal_bandwidth_multi(2, 100_000) == pytest.approx(0.141421, abs=1e-6)
        assert optimal_bandwidth_multi(1, 1) == pytest.approx(
            (4.0 / 3.0) ** 0.2, rel=1e-12
        )

    def test_multi_doubling_law(self):
        for m in (1, 2, 3):
            for n in (7, 500):
                assert optimal_bandwidth_multi(m, 2 ** (m + 4) * n) == pytest.approx(
                    optimal_bandwidth_multi(m, n) / 2.0, rel=1e-12
                )

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            optimal_bandwidth_1d(GammaFit(1.0, 3.0), 0)
        with pytest.raises(ValueError):
            optimal_bandwidth_multi(0, 10)


class TestEstimate1D:
    def test_single_sample_is_shifted_kernel(self):
        grid = np.linspace(0.0, 1.0, 101)
        ws = WeightedSamples(times=[0.5], n_runs=1)
        est = estimate_density_1d(ws, grid, h=0.1)
        assert np.array_equal(est.values, gaussian_kernel(0.1, grid - 0.5))

    def test_classical_reduction(self, rng):
        times = rng.uniform(0.2, 0.8, size=500)
        grid = np.linspace(0.0, 1.0, 64)
        ws = WeightedSamples(times=times, n_runs=500)
        est = estimate_density_1d(ws, grid, h=0.05)
        direct = gaussian_kernel(0.05, grid[:, None] - times[None, :]).mean(axis=1)
        assert np.allclose(est.values, direct, rtol=1e-12)

    def test_empty_samples(self):
        grid = np.linspace(0.0, 1.0, 32)
        ws = WeightedSamples(times=np.empty(0), n_runs=10)
        est = estimate_density_1d(ws, grid, h=0.1)
        assert np.all(est.values == 0.0)
        assert est.total_mass == 0.0

    def test_merge_linearity(self, rng):
        grid = np.linspace(0.0, 1.0, 50)
        t1, t2 = rng.uniform(0.1, 0.9, 300), rng.uniform(0.1, 0.9, 200)
        a = estimate_density_1d(WeightedSamples(t1, 1000), grid, 0.05)
        b = estimate_density_1d(WeightedSamples(t2, 500), grid, 0.05)
        merged = estimate_density_1d(WeightedSamples(np.concatenate([t1, t2]), 1500), grid, 0.05)
        averaged = (1000 * a.values + 500 * b.values) / 1500
        assert np.allclose(merged.values, averaged, rtol=1e-12)

    def test_mass_tracks_weight_sum(self, rng):
        # samples well inside the grid with a narrow kernel: trapezoid mass
        # approaches the sample count over n_runs
        times = rng.uniform(0.3, 0.7, 2000)
        ws = WeightedSamples(times, 4000)
        est = estimate_density_1d(ws, np.linspace(0.0, 1.0, 512), h=0.02)
        assert est.total_mass == pytest.approx(2000 / 4000, abs=1e-3)

    def test_rejects_bad_grid_and_bandwidth(self):
        ws = WeightedSamples([0.5], 1)
        with pytest.raises(ValueError):
            estimate_density_1d(ws, np.array([0.5, 0.1]), h=0.1)
        with pytest.raises(ValueError):
            estimate_density_1d(ws, np.linspace(0, 1, 8), h=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_grid_nodes(self, bad):
        # a NaN node compares false with its neighbours, so the sorted check
        # alone lets it through to a NaN mass, and an infinite node to an
        # infinite one
        ws = WeightedSamples([0.2, 0.5, 0.7], 10)
        for grid in ([0.0, bad, 1.0], [bad, 0.0, 1.0], [0.0, 1.0, bad]):
            with pytest.raises(ValueError, match="finite sorted 1-D"):
                estimate_density_1d(ws, grid, 0.1)
        with pytest.raises(ValueError, match="finite sorted 1-D"):
            estimate_density_multi(
                WeightedSamples([[0.5, 0.5]], 1), (np.linspace(0, 1, 5), [0.0, bad]), 0.1
            )

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_rejects_non_finite_bandwidth(self, h):
        # an infinite bandwidth passes a positivity check and gives all
        # zeros, through an invalid-value warning in the lattice
        ws = WeightedSamples([0.2, 0.5, 0.7], 10)
        with pytest.raises(ValueError, match="finite and positive"):
            estimate_density_1d(ws, np.linspace(0, 1, 8), h)
        with pytest.raises(ValueError, match="finite and positive"):
            estimate_density_multi(WeightedSamples([[0.5, 0.5]], 1), (ws.times, ws.times), h)

    def test_one_column_samples_are_the_scalar_samples(self, rng):
        # the one-component case of the shared body's shape rule: (n, 1)
        # times are the n scalar times
        times = rng.uniform(0.2, 0.8, 300)
        grid = np.linspace(0.0, 1.0, 64)
        flat = estimate_density_1d(WeightedSamples(times, 1000), grid, 0.05)
        column = estimate_density_1d(WeightedSamples(times[:, None], 1000), grid, 0.05)
        assert np.array_equal(column.values, flat.values)
        assert np.array_equal(column.grid, flat.grid)
        assert column.total_mass == flat.total_mass

    def test_rejects_samples_of_two_components(self, rng):
        ws = WeightedSamples(rng.uniform(0.2, 0.8, (30, 2)), 100)
        with pytest.raises(ValueError, match="samples have 2 components, grid has 1"):
            estimate_density_1d(ws, np.linspace(0.0, 1.0, 64), 0.05)


class TestEstimateMulti:
    def test_single_sample_peak_2d(self):
        axis = np.linspace(0.0, 1.0, 101)  # includes 0.5
        ws = WeightedSamples(times=[[0.5, 0.5]], n_runs=1)
        est = estimate_density_multi(ws, (axis, axis), h=0.1)
        peak = est.values[50, 50]
        assert peak == pytest.approx(1.0 / (2.0 * math.pi * 0.01), rel=1e-12)

    def test_m1_reduction_has_full_variance(self):
        # the multivariate kernel at m = 1 is a normal of variance h^2,
        # unlike the 1-D kernel's h^2/4
        axis = np.linspace(-1.0, 1.0, 201)
        ws = WeightedSamples(times=[[0.0]], n_runs=1)
        est = estimate_density_multi(ws, (axis,), h=0.2)
        expected = np.exp(-np.square(axis) / (2 * 0.04)) / math.sqrt(
            2 * math.pi * 0.04
        )
        assert np.allclose(est.values, expected, rtol=1e-12)

    def test_kernel_mass_2d(self, rng):
        axis = np.linspace(0.0, 1.0, 96)
        ws = WeightedSamples(times=[[0.5, 0.5]], n_runs=1)
        est = estimate_density_multi(ws, (axis, axis), h=0.05)
        assert est.total_mass == pytest.approx(1.0, abs=1e-3)

    def test_independence_factorization(self, rng):
        # two independent coordinates: the joint estimate matches the outer
        # product of smooth marginal references
        n = 100_000
        s1 = rng.beta(3.0, 3.0, n)
        s2 = rng.beta(4.0, 2.0, n)
        ws = WeightedSamples(np.column_stack([s1, s2]), n)
        axis = np.linspace(0.0, 1.0, 96)
        h = optimal_bandwidth_multi(2, n)
        joint = estimate_density_multi(ws, (axis, axis), h)
        # marginal references smoothed with the same kernel scale, so the
        # comparison isolates the factorization property
        f1 = estimate_density_multi(WeightedSamples(s1[:, None], n), (axis,), h)
        f2 = estimate_density_multi(WeightedSamples(s2[:, None], n), (axis,), h)
        outer = np.outer(f1.values, f2.values)
        l1 = np.trapezoid(
            np.trapezoid(np.abs(joint.values - outer), axis, axis=1), axis
        )
        assert l1 < 0.05

    def test_empty_joint(self):
        axis = np.linspace(0.0, 1.0, 16)
        ws = WeightedSamples(np.empty((0, 2)), n_runs=5)
        est = estimate_density_multi(ws, (axis, axis), h=0.1)
        assert np.all(est.values == 0.0)
        assert est.total_mass == 0.0

    def test_rejects_unsorted_or_2d_axes(self):
        # a descending axis would give a negative trapezoid mass
        ws = WeightedSamples(times=[[0.5, 0.5]], n_runs=1)
        axis = np.linspace(0.0, 1.0, 11)
        for bad in (axis[::-1], axis[None, :]):
            with pytest.raises(ValueError, match="sorted 1-D"):
                estimate_density_multi(ws, (axis, bad), h=0.1)

    def test_3d_path_matches_direct_formula(self, rng):
        axes = tuple(np.linspace(0.0, 1.0, 9) for _ in range(3))
        times = rng.uniform(0.2, 0.8, size=(40, 3))
        ws = WeightedSamples(times, 100)
        h = 0.15
        est = estimate_density_multi(ws, axes, h)
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        d2 = np.square(mesh[..., None, :] - times).sum(axis=-1)
        direct = np.exp(-d2 / (2 * h * h)).sum(axis=-1) * (2 * math.pi * h * h) ** -1.5 / 100
        assert np.allclose(est.values, direct, rtol=1e-10)


def _heavy_repeats(rng):
    # four samples each repeated 1,000 times: nodes that hold most of the
    # count stress the Taylor bound
    times = rng.gamma(3.0, 0.1, 5000)
    repeats = np.ones(5000, dtype=int)
    repeats[rng.choice(5000, 4, replace=False)] = 1000
    return np.repeat(times, repeats), np.linspace(0.0, 1.0, 512)


def _grid_aligned(rng):
    # cmc-style crossing times: multiples of dt = 1e-3
    times = rng.integers(1, 1001, 8000) * 1e-3
    return times, np.linspace(0.0, 1.0, 512)


def _grid_ends(rng):
    ends = [0.0, 1.0, np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), -0.01, 1.01]
    times = np.concatenate([ends, rng.uniform(0.0, 1.0, 200)])
    return times, np.linspace(0.0, 1.0, 512)


def _far_beyond_grid(rng):
    # most samples lie past the grid's end and none within 0.3 of its
    # middle, so grid points there have no lattice node in the kernel's reach
    times = rng.uniform(0.0, 5.0, 3000)
    return times[(times < 0.2) | (times > 0.8)], np.linspace(0.0, 1.0, 512)


def _non_uniform_grid(rng):
    grid = np.concatenate([[0.0, 1.0], np.sort(rng.uniform(0.0, 1.0, 300)) ** 2])
    return rng.beta(2.0, 5.0, 3000), np.sort(grid)


class TestBinnedKernelSum:
    """The binned Taylor sum against the direct sum of every sample at every
    grid node: equal up to rounding, relative to the estimate's peak."""

    @pytest.mark.parametrize(
        "make", [_heavy_repeats, _grid_aligned, _grid_ends, _far_beyond_grid, _non_uniform_grid]
    )
    def test_1d_matches_direct_sum(self, rng, make):
        times, grid = make(rng)
        n_runs = 2 * len(times)
        h = 0.03
        est = estimate_density_1d(WeightedSamples(times, n_runs), grid, h)
        direct = direct_kernel_sum(times, (grid,), h / 2.0) / n_runs
        assert np.abs(est.values - direct).max() <= 1e-12 * direct.max()
        assert abs(est.total_mass - np.trapezoid(direct, grid)) <= 1e-14

    def test_joint_matches_direct_sum(self, rng):
        n = 20_000
        times = np.column_stack([rng.gamma(3.0, 0.1, n), rng.beta(2.0, 3.0, n)])
        axis = np.linspace(0.0, 1.0, 128)
        h = optimal_bandwidth_multi(2, n)
        est = estimate_density_multi(WeightedSamples(times, 2 * n), (axis, axis), h)
        direct = direct_kernel_sum(times, (axis, axis), h) / (2 * n)
        assert np.abs(est.values - direct).max() <= 1e-12 * direct.max()
        mass = np.trapezoid(np.trapezoid(direct, axis, axis=-1), axis)
        assert abs(est.total_mass - mass) <= 1e-14

    def test_1d_memory_is_bounded_by_the_reach(self, rng):
        # h = 1e-3 puts 20,000 samples on about 8,000 lattice nodes; dense
        # 512 x 8,000 operators would hold about 100 MB
        n = 20_000
        ws = WeightedSamples(rng.uniform(0.0, 1.0, n), n)
        grid = np.linspace(0.0, 1.0, 512)
        peak, est = traced_peak(lambda: estimate_density_1d(ws, grid, 1e-3))
        assert peak < 8 * 2**20
        assert est.total_mass == pytest.approx(1.0, rel=0.01)

    def test_3d_memory_is_bounded_by_the_grid(self, rng):
        # a direct sum over 256-sample chunks would hold ~200 MB per chunk
        n = 20_000
        ws = WeightedSamples(rng.uniform(0.2, 0.8, (n, 3)), n)
        axis = np.linspace(0.0, 1.0, 32)
        peak, est = traced_peak(lambda: estimate_density_multi(ws, (axis, axis, axis), 0.1))
        assert peak < 64 * 2**20
        assert est.values.shape == (32, 32, 32)
        assert est.total_mass == pytest.approx(len(ws) / n, rel=0.05)

    def test_estimate_densities_three_components(self, rng):
        n = 3000
        hit_t = rng.uniform(0.0, 1.0, (3, n))
        hit_w = np.ones((3, n))
        hit_k = np.ones((3, n), dtype=np.int8)
        hit_k[rng.uniform(size=(3, n)) < 0.3] = 0
        result = collect_result("unif", 0, [(hit_t, hit_w, hit_k)], elapsed=1.0)
        axis = np.linspace(0.0, 1.0, 12)
        marginals, joint = estimate_densities(
            result, np.linspace(0.0, 1.0, 64), joint_grid=(axis, axis, axis)
        )
        assert len(marginals) == 3
        assert joint.values.shape == (12, 12, 12)
        direct = direct_kernel_sum(result.joint.times, (axis,) * 3, joint.bandwidth)
        direct /= n
        assert np.abs(joint.values - direct).max() <= 1e-12 * direct.max()


class TestWeightedSamplesValidation:
    def test_n_runs_lower_bound(self):
        with pytest.raises(ValueError):
            WeightedSamples(times=[0.1, 0.2], n_runs=1)

    @pytest.mark.parametrize("n_runs", [1.9, 2.0, True, "2"])
    def test_n_runs_must_be_an_integer(self, n_runs):
        with pytest.raises(ValueError, match="n_runs"):
            WeightedSamples(times=[0.5], n_runs=n_runs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_times_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightedSamples(times=[0.5, bad], n_runs=2)

    def test_n_runs_accepts_numpy_integers(self):
        assert WeightedSamples(times=[0.5], n_runs=np.int64(3)).n_runs == 3
