"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s or -v to see them).

The full-scale benchmark reproduction (100,000 runs with baseline step
0.0002) is marked slow and excluded from the default run; select it with
``pytest -m slow``.
"""

import dataclasses
import math
import os

import numpy as np
import pytest
from scipy import integrate, stats

import fptmc
from fptmc import (
    CmcConfig,
    GammaFit,
    estimate_densities,
    gamma_moment_fit,
    gaussian_kernel,
    normalized_l1,
    optimal_bandwidth_1d,
    optimal_bandwidth_multi,
    parse_config_text,
    results,
    roughness_functional,
    run_cmc,
    run_engine,
    run_experiment,
)
from fptmc.bridge import survival_array
from conftest import make_example_spec
from helpers import (
    bm_crossing_probability,
    bm_fpt_density,
    gamma_density_curvature_quad,
    quad_interjump_density,
    simulate_bridge_survival,
)

GRID = np.linspace(0.0, 1.0, 512)
EXAMPLE_RATES = (1.0, 3.0, 8.0)


def _report(criterion: str, detail: str, ok: bool) -> None:
    print(f"[{criterion}] {detail}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# shared desk-scale engine executions (criteria 5 and 6 reuse these)

DESK_RUNS = 20_000
DESK_DT = 0.001


@pytest.fixture(scope="module")
def desk_results():
    out = {}
    for rate in EXAMPLE_RATES:
        spec = make_example_spec(rate)
        unif = run_engine(spec, DESK_RUNS, seed=424242)
        cmc = run_cmc(spec, CmcConfig(dt=DESK_DT, n_runs=DESK_RUNS, seed=424243))
        out[rate] = (unif, cmc)
    return out


def test_c1_bridge_survival_brute_force():
    # five randomized segments with analytic survival inside [0.1, 0.9];
    # the oracle simulates 1e5 bridges x 1e3 steps and extrapolates the
    # counted grid minima over nested grids to remove the O(sqrt(dt))
    # detection bias of discrete monitoring
    rng = np.random.default_rng(20240917)
    segments = []
    while len(segments) < 5:
        x_start = rng.uniform(0.1, 2.0)
        x_end = rng.uniform(0.05, 2.0)
        tau = rng.uniform(0.3, 2.0)
        sigma = rng.uniform(0.3, 1.2)
        p = float(survival_array(x_start, x_end, tau, sigma))  # barrier at 0
        if 0.1 <= p <= 0.9:
            segments.append((x_start, x_end, tau, sigma, p))
    for k, (x_start, x_end, tau, sigma, p) in enumerate(segments):
        est, se = simulate_bridge_survival(x_start, x_end, 0.0, tau, sigma, 100_000, 1000, rng)
        _report(
            "C1",
            f"segment {k + 1}: exact {p:.5f}, oracle {est:.5f} +- {se:.5f}",
            abs(est - p) < 3.0 * se,
        )


def test_c2_density_integrates_to_crossing_probability():
    rng = np.random.default_rng(77)
    cases = []
    for _ in range(8):
        x_start = rng.uniform(0.1, 2.0)
        x_end = rng.uniform(-1.0, 2.0)
        t_start = rng.uniform(0.0, 0.5)
        t_end = rng.uniform(0.8, 2.5)
        rng.uniform(-1.0, 1.0)  # a drift: the bridge density does not depend on it
        sigma = rng.uniform(0.2, 1.5)
        cases.append((x_start, x_end, 0.0, t_start, t_end, sigma))
    # pin the two qualitative regimes explicitly
    cases.append((1.0, -0.5, 0.0, 0.0, 1.0, 1.0))
    cases.append((1.0, 1.0, 0.0, 0.0, 1.0, 1.0))
    worst = 0.0
    for x_start, x_end, level, t_start, t_end, sigma in cases:
        d0, d1 = x_start - level, x_end - level
        total = quad_interjump_density(d0, d1, t_start, t_end, sigma)
        p = float(survival_array(d0, d1, t_end - t_start, sigma))
        worst = max(worst, abs(total - (1.0 - p)))
    _report("C2", f"10 cases, max |quad(g) - (1-P)| = {worst:.2e} (tol 1e-3)", worst < 1e-3)


def test_c3_roughness_functional_against_quadrature():
    base = roughness_functional(GammaFit(1.0, 3.0))
    _report(
        "C3",
        f"(alpha, beta) = (1, 3): {base:.12f} vs 3/16",
        abs(base - 3.0 / 16.0) < 1e-12,
    )
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 4.0, 8.0):
        for beta in (3.0, 4.0, 5.0, 6.0, 8.0):
            closed = roughness_functional(GammaFit(alpha, beta))
            reference = gamma_density_curvature_quad(alpha, beta)
            worst = max(worst, abs(closed - reference) / reference)
    _report("C3", f"5x5 grid, worst relative error {worst:.2e} (tol 1e-6)", worst < 1e-6)


def test_c4_zero_jump_closed_form(single_bm_spec):
    n = 100_000
    result = run_engine(single_bm_spec, n, seed=31337)
    p_exact = bm_crossing_probability(0.0, -1.0, 0.0, 1.0, 1.0)
    freq = len(result.marginals[0]) / n
    se = math.sqrt(p_exact * (1.0 - p_exact) / n)
    _report(
        "C4",
        f"crossing probability {freq:.5f} vs 2*Phi(-1) = {p_exact:.5f} (3SE {3*se:.5f})",
        abs(freq - p_exact) < 3.0 * se,
    )
    marginals, _ = estimate_densities(result, GRID)
    exact = bm_fpt_density(GRID, 0.0, -1.0, 0.0, 1.0)
    l1 = normalized_l1(marginals[0].values, exact, GRID)
    _report("C4", f"density vs closed form, normalized L1 = {l1:.4f} (tol 0.05)", l1 <= 0.05)


# ROADMAP item 4's density anchors, on example1's intercepts with zero drift
# and slope and no jumps: its two components are then independent Brownian
# motions against flat barriers, which the engine steps exactly, so each
# marginal is the closed form of C4 and the joint is their product.  The
# bandwidth rules miss component 2 and the joint by far more than
# Monte Carlo noise; item 4's log-time rule is to pass all three.

ANCHOR_AXIS = np.linspace(0.0, 1.0, 128)
ITEM4 = (
    "ROADMAP item 4: the gamma rule oversmooths component 2, and the joint's "
    "normal-reference bandwidth, applied to unscaled times, smooths a third "
    "of its mass out of the window"
)


@pytest.fixture(scope="module")
def flat_example1():
    spec = dataclasses.replace(make_example_spec(0.0), mu=[0.0, 0.0], barrier_slope=[0.0, 0.0])
    result = run_engine(spec, 100_000, seed=11)
    marginals, joint = estimate_densities(result, GRID, (ANCHOR_AXIS, ANCHOR_AXIS))
    levels = spec.barrier_intercept
    exact = [bm_fpt_density(GRID, 0.0, level, 0.0, 0.2) for level in levels]
    exact_joint = np.multiply.outer(
        *(bm_fpt_density(ANCHOR_AXIS, 0.0, level, 0.0, 0.2) for level in levels)
    )
    return marginals, exact, joint, exact_joint


@pytest.mark.parametrize(
    "i", [0, pytest.param(1, marks=pytest.mark.xfail(strict=True, reason=ITEM4))]
)
def test_flat_example1_marginal_against_closed_form(flat_example1, i):
    marginals, exact, _, _ = flat_example1
    l1 = normalized_l1(marginals[i].values, exact[i], GRID)
    _report("item 4", f"component {i + 1} density, normalized L1 = {l1:.4f} (tol 0.05)", l1 <= 0.05)


@pytest.mark.xfail(strict=True, reason=ITEM4)
def test_flat_example1_joint_against_closed_form(flat_example1):
    _, _, joint, exact = flat_example1

    def mass(values):
        return np.trapezoid(np.trapezoid(values, ANCHOR_AXIS, axis=-1), ANCHOR_AXIS)

    l1 = mass(np.abs(joint.values - exact)) / (0.5 * (mass(joint.values) + mass(exact)))
    _report("item 4", f"joint density, normalized L1 = {l1:.4f} (tol 0.1)", l1 <= 0.1)


def test_c5_engine_agreement_desk_scale(desk_results):
    for rate in EXAMPLE_RATES:
        unif, cmc = desk_results[rate]
        unif_est, _ = estimate_densities(unif, GRID)
        cmc_est, _ = estimate_densities(cmc, GRID)
        for i in range(2):
            assert 0.0 <= unif_est[i].total_mass <= 1.01  # crossing probability bound
            l1 = normalized_l1(unif_est[i].values, cmc_est[i].values, GRID)
            _report(
                "C5",
                f"rate {rate:g}, component {i + 1}: normalized L1 = {l1:.4f} (tol 0.1)",
                l1 <= 0.1,
            )


def test_c6_speedup_full_resolution(desk_results):
    for rate in EXAMPLE_RATES:
        spec = make_example_spec(rate)
        # best of three timings for the cheap engine: its short wall time is
        # the one sensitive to scheduler noise
        unif_time = min(
            run_engine(spec, 32_768, seed=515151 + rep).seconds_per_run
            for rep in range(3)
        )
        cmc = run_cmc(spec, CmcConfig(dt=0.0002, n_runs=10_000, seed=515152))
        ratio = cmc.seconds_per_run / unif_time
        _report(
            "C6",
            f"rate {rate:g}, dt = 0.0002: per-run {cmc.seconds_per_run:.2e} / "
            f"{unif_time:.2e} s, speedup {ratio:.0f} (floor 50)",
            ratio >= 50.0,
        )


def test_c6_speedup_desk_scale(desk_results):
    for rate in EXAMPLE_RATES:
        unif, cmc = desk_results[rate]
        ratio = cmc.seconds_per_run / unif.seconds_per_run
        _report(
            "C6",
            f"rate {rate:g}, dt = {DESK_DT}: speedup {ratio:.1f} (floor 10)",
            ratio >= 10.0,
        )


CONFIG_TEMPLATE = """
m = 2
x0 = [0.0, 0.0]
mu = [-0.002, -0.012]
sigma = [[0.2, 0.0], [0.0, 0.2]]
lambda = 1.0
jump_mean = [0.0, 0.0]
jump_sd = [0.2, 0.12]
barrier_intercept = [-0.10536051565782628, -0.05129329438755058]
barrier_slope = [-0.002, -0.012]
horizon = 1.0
engine = both
runs = 40000
dt = 0.005
seed = 97
grid_1d = 256
grid_2d = 32
"""


def test_c7_determinism_across_worker_counts(monkeypatch, tmp_path):
    # smaller blocks keep the job cheap while it still spans several blocks
    monkeypatch.setattr(results, "BLOCK_SIZE", 16384)
    assert len(results.block_sizes(parse_config_text(CONFIG_TEMPLATE).runs)) >= 3
    digests = {}
    names = [
        "unif_marginal_1.csv",
        "unif_marginal_2.csv",
        "unif_joint.csv",
        "cmc_marginal_1.csv",
        "cmc_marginal_2.csv",
        "cmc_joint.csv",
    ]
    for workers in (1, 2, 4):
        cfg = parse_config_text(
            CONFIG_TEMPLATE + f"workers = {workers}\nout = {tmp_path}/w{workers}\n"
        )
        run_experiment(cfg)
        digests[workers] = {
            name: (tmp_path / f"w{workers}" / name).read_bytes()
            for name in names
        }
    ok = all(
        digests[1][name] == digests[w][name] for w in (2, 4) for name in names
    )
    _report("C7", "density CSVs byte-identical for workers in {1, 2, 4}", ok)


def test_c8_bandwidth_power_laws_and_kernel_mass():
    for h in (0.05, 0.7, 2.0):
        mass, _ = integrate.quad(lambda x: gaussian_kernel(h, x), -np.inf, np.inf)
        _report("C8", f"1-D kernel mass at h = {h}: {mass:.10f}", abs(mass - 1.0) < 1e-8)
    for h in (0.2, 1.0):
        norm = (2.0 * math.pi * h * h) ** -1.0
        mass, _ = integrate.nquad(
            lambda x, y: norm * math.exp(-(x * x + y * y) / (2.0 * h * h)),
            [[-8.0 * h, 8.0 * h]] * 2,
        )
        _report("C8", f"2-D kernel mass at h = {h}: {mass:.10f}", abs(mass - 1.0) < 1e-8)
    fit = GammaFit(1.7, 4.2)
    law_1d = all(
        abs(
            optimal_bandwidth_1d(fit, 16 * n)
            - optimal_bandwidth_1d(fit, n) * 16.0**-0.2
        )
        <= 1e-15
        for n in (3, 10, 1000, 99_999)
    )
    _report("C8", "1-D bandwidth power law h(16N) = h(N) * 16^(-1/5)", law_1d)
    law_md = all(
        abs(
            optimal_bandwidth_multi(m, 2 ** (m + 4) * n)
            - optimal_bandwidth_multi(m, n) / 2.0
        )
        <= 1e-15
        for m in (1, 2, 3)
        for n in (5, 1000)
    )
    _report("C8", "m-D bandwidth doubling law h(m, 2^(m+4) N) = h(m, N)/2", law_md)


def test_c9_gamma_moment_fit():
    rng = np.random.default_rng(2718)
    draws = rng.gamma(shape=5.0, scale=1.0 / 5.0, size=1_000_000)
    fit = gamma_moment_fit(draws)
    ok = abs(fit.alpha - 5.0) / 5.0 < 0.02 and abs(fit.beta - 5.0) / 5.0 < 0.02
    _report(
        "C9",
        f"recovered (alpha, beta) = ({fit.alpha:.4f}, {fit.beta:.4f}) from 1e6 draws (tol 2%)",
        ok,
    )
    clamped = gamma_moment_fit([0.0, 2.0])  # raw beta = 1
    _report("C9", f"raw beta below 3 clamps to {clamped.beta}", clamped.beta == 3.0)


# ---------------------------------------------------------------------------
# full-scale benchmark reproduction: long-running, excluded from the default
# suite (the published bandwidth windows are also not reachable from the
# documented estimation pipeline; see the repository notes)

FULL_RUNS = 100_000
FULL_DT = 0.0002

TABLE_BANDWIDTHS = {
    # rate -> engine -> (component 1, component 2)
    1.0: {"unif": (0.016030, 0.013880), "cmc": (0.012664, 0.006943)},
    3.0: {"unif": (0.012249, 0.009443), "cmc": (0.011157, 0.006582)},
    8.0: {"unif": (0.009117, 0.006542), "cmc": (0.008894, 0.005921)},
}


@pytest.fixture(scope="module")
def full_scale_results():
    out = {}
    for rate in EXAMPLE_RATES:
        spec = make_example_spec(rate)
        unif = run_engine(spec, FULL_RUNS, seed=616161)
        cmc = run_cmc(spec, CmcConfig(dt=FULL_DT, n_runs=FULL_RUNS, seed=616162))
        out[rate] = {
            "unif": (unif, estimate_densities(unif, GRID)[0]),
            "cmc": (cmc, estimate_densities(cmc, GRID)[0]),
        }
    return out


@pytest.mark.slow
def test_full_scale_engine_agreement(full_scale_results):
    for rate in EXAMPLE_RATES:
        unif_est = full_scale_results[rate]["unif"][1]
        cmc_est = full_scale_results[rate]["cmc"][1]
        for i in range(2):
            l1 = normalized_l1(unif_est[i].values, cmc_est[i].values, GRID)
            _report(
                "FULL",
                f"rate {rate:g}, component {i + 1}: normalized L1 = {l1:.4f} (tol 0.1)",
                l1 <= 0.1,
            )


@pytest.mark.slow
def test_full_scale_speedup(full_scale_results):
    for rate in EXAMPLE_RATES:
        unif = full_scale_results[rate]["unif"][0]
        cmc = full_scale_results[rate]["cmc"][0]
        # best of three timings for the short-running engine (noise floor)
        unif_time = min(
            unif.seconds_per_run,
            *(
                run_engine(make_example_spec(rate), 32_768, seed=818181 + r).seconds_per_run
                for r in range(2)
            ),
        )
        ratio = cmc.seconds_per_run / unif_time
        _report("FULL", f"rate {rate:g}: speedup {ratio:.0f} (floor 50)", ratio >= 50.0)


@pytest.mark.slow
def test_full_scale_published_bandwidths(full_scale_results):
    # the published bandwidth table is not reproducible from the documented
    # moment-fit pipeline applied to the actual crossing samples (verified
    # against both engines and both weighting conventions); every window is
    # reported before the assertion so the full comparison is visible
    misses = []
    for rate in EXAMPLE_RATES:
        for engine in ("unif", "cmc"):
            estimates = full_scale_results[rate][engine][1]
            for i in range(2):
                target = TABLE_BANDWIDTHS[rate][engine][i]
                got = estimates[i].bandwidth
                ok = abs(got - target) <= 0.15 * target
                print(
                    f"[FULL] rate {rate:g} {engine} h_opt(X{i + 1}) = {got:.6f} vs "
                    f"published {target:.6f} +- 15%: {'PASS' if ok else 'FAIL'}"
                )
                if not ok:
                    misses.append((rate, engine, i + 1, got, target))
    assert not misses, f"{len(misses)}/12 published bandwidth windows missed: {misses}"
