import math

import numpy as np
import pytest
from scipy import stats

from fptmc import CmcConfig, ModelSpec, cmc, results, run_cmc
from fptmc.cmc import simulate_block_cmc
from conftest import make_example_spec
from helpers import bm_crossing_probability, traced_peak


def drift_spec(mu, barrier, m=1, slope=0.0):
    return ModelSpec(
        m=m,
        x0=np.zeros(m),
        mu=np.asarray(mu, dtype=float),
        sigma=np.zeros((m, m)),
        jump_rate=0.0,
        jump_mean=np.zeros(m),
        jump_sd=np.zeros(m),
        barrier_intercept=np.atleast_1d(barrier),
        barrier_slope=np.broadcast_to(slope, m),
        horizon=1.0,
    )


def single_run(spec, dt, rng):
    """(times, kinds) of one discretised run, one entry per component:
    column 0 of a one-run block."""
    out = results.Crossings.never_crossed(spec.m, 1)
    hit_t, _, hit_k, _, _ = simulate_block_cmc(spec, CmcConfig(dt=dt, n_runs=1), rng, 1, out=out)
    return hit_t[:, 0], hit_k[:, 0]


def test_deterministic_drift_crossing(rng):
    spec = drift_spec([-1.0], -0.5)
    times, kinds = single_run(spec, 0.1, rng)
    assert kinds[0] == results.KIND_INTERIOR
    assert times[0] == 0.5


def test_drift_and_slope_cross_at_the_first_grid_time_past_the_level(rng):
    # the state is held as u = x - mu t against the level intercept +
    # (slope - mu) t; without diffusion a component crosses at the first
    # grid time with mu t <= intercept + slope t: t >= 0.2 for component 1
    # and t >= 0.1 for component 2, both between grid times of dt = 0.03
    spec = drift_spec([-1.0, 0.5], [-0.3, -0.1], m=2, slope=[0.5, 1.5])
    times, kinds = single_run(spec, 0.03, rng)
    assert kinds.tolist() == [results.KIND_INTERIOR] * 2
    assert times[0] == pytest.approx(0.21)
    assert times[1] == pytest.approx(0.12)


def test_each_process_tracked_to_its_own_crossing(rng):
    spec = drift_spec([-1.0, -0.25], [-0.5, -0.2], m=2)
    times, _ = single_run(spec, 0.1, rng)
    assert times[0] == pytest.approx(0.5)
    assert times[1] == pytest.approx(0.8)


@pytest.mark.parametrize("dt", [0.001, 0.3])
def test_jump_count_matches_rate(dt):
    # dt = 0.3 ends on a shortened step of 0.1: the arrival probabilities
    # 3 x 0.9 + 0.3 still add up to lambda T
    spec = ModelSpec(
        m=1,
        x0=[0.0],
        mu=[0.0],
        sigma=[[0.1]],
        jump_rate=3.0,
        jump_mean=[0.0],
        jump_sd=[0.1],
        barrier_intercept=[-50.0],
        barrier_slope=[0.0],
        horizon=1.0,
    )
    n = 10_000
    result = run_cmc(spec, CmcConfig(dt=dt, n_runs=n, seed=8))
    mean_jumps = result.diagnostics["total_jumps"] / n
    se = math.sqrt(3.0 / n)
    assert mean_jumps == pytest.approx(3.0, abs=3 * se)


def test_jump_arrivals_are_one_bernoulli_trial_per_run_and_step():
    # a jump of -10 crosses at once, so a run's crossing step is its first
    # jump: geometric in the steps of 0.03 (arrival probability 0.06), with
    # a shortened last step of 0.01 (0.02); the arrivals of a window between
    # regroupings are drawn together and must land on their own steps
    spec = ModelSpec(
        m=1,
        x0=[0.0],
        mu=[0.0],
        sigma=[[0.0]],
        jump_rate=2.0,
        jump_mean=[-10.0],
        jump_sd=[0.0],
        barrier_intercept=[-1.0],
        barrier_slope=[0.0],
        horizon=1.0,
    )
    n = 20_000
    result = run_cmc(spec, CmcConfig(dt=0.03, n_runs=n, seed=27))
    grid = cmc._step_grid(1.0, 0.03)[0]
    steps = np.searchsorted(grid, result.marginals[0].times)
    observed = np.append(np.bincount(steps, minlength=len(grid)), n - len(steps))
    p = np.append(np.full(len(grid) - 1, 0.06), 0.02)
    survive = np.cumprod(np.append(1.0, 1.0 - p))
    expected = n * np.append(survive[:-1] * p, survive[-1])
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_determinism_across_worker_counts(monkeypatch, example1_spec):
    # smaller blocks keep the job cheap while it still spans several blocks;
    # 400 steps take the runs through three regroupings
    monkeypatch.setattr(results, "BLOCK_SIZE", 16384)
    assert len(results.block_sizes(40_000)) >= 3
    outputs = [
        run_cmc(example1_spec, CmcConfig(dt=0.0025, n_runs=40_000, seed=14, workers=w))
        for w in (1, 2, 4)
    ]
    base = outputs[0]
    assert base.diagnostics["total_jumps"] > 0 and len(base.joint) > 0
    for other in outputs[1:]:
        assert other.diagnostics["total_jumps"] == base.diagnostics["total_jumps"]
        for a, b in zip([*base.marginals, base.joint], [*other.marginals, other.joint]):
            assert np.array_equal(a.times, b.times)
        assert np.array_equal(base.joint_run_indices, other.joint_run_indices)


def test_regrouped_runs_keep_their_columns():
    # two identical sigma rows and equal jumps make the components one path
    # while both are uncrossed, so component 2 (barrier -0.2) cannot cross
    # before component 1 (barrier -0.1); after component 1 crosses, a run
    # moves to component 2's own group at the next regrouping.  A crossing
    # written to the wrong run breaks t2 >= t1 somewhere
    spec = ModelSpec(
        m=2,
        x0=[0.0, 0.0],
        mu=[0.0, 0.0],
        sigma=[[0.2, 0.1], [0.2, 0.1]],
        jump_rate=2.0,
        jump_mean=[-0.02, -0.02],
        jump_sd=[0.0, 0.0],
        barrier_intercept=[-0.1, -0.2],
        barrier_slope=[0.0, 0.0],
        horizon=1.0,
    )
    dt, n = 0.001, 4000
    hit_t, _, _, _, _ = simulate_block_cmc(
        spec, CmcConfig(dt=dt, n_runs=n), np.random.default_rng(19), n,
        out=results.Crossings.never_crossed(2, n),
    )
    t1, t2 = hit_t
    crossed2 = ~np.isnan(t2)
    assert np.all(~np.isnan(t1[crossed2]))
    assert np.all(t2[crossed2] >= t1[crossed2])
    # the runs passed several regroupings between their two crossings
    gap = t2[crossed2] - t1[crossed2]
    assert np.count_nonzero(gap > 3 * cmc._COMPACT_EVERY * dt) > 50


def test_regroup_moves_each_run_with_its_state():
    # every state value encodes its run and component, 10 run + component,
    # so a run moved without its own state shows in any group
    spec = drift_spec([0.0, 0.0, 0.0], [-1.0, -1.0, -1.0], m=3)
    full = cmc._Group(spec, np.arange(3), spec.sigma)
    # a crossed cell holds +inf
    alive = np.array([[1, 0, 1, 0, 0, 1], [1, 1, 0, 0, 0, 1], [0, 1, 0, 1, 0, 1]], dtype=bool)
    full.hold(np.where(alive, 10.0 * np.arange(6) + np.arange(3)[:, None], np.inf), np.arange(6))
    singles = [cmc._Group(spec, np.array([i]), np.zeros((1, 1))) for i in range(3)]
    # component 1's group already holds runs 7 and 9, and run 7 has crossed
    singles[0].hold(np.array([[np.inf, 90.0]]), np.array([7, 9]))
    cmc._regroup(full, singles)
    assert full.run_ids.tolist() == [0, 1, 5]
    assert singles[0].run_ids.tolist() == [9, 2]
    assert singles[1].run_ids.tolist() == []
    assert singles[2].run_ids.tolist() == [3]
    for group in (full, *singles):
        code = 10.0 * group.run_ids + group.comps[:, None]
        assert np.array_equal(group.state, np.where(np.isfinite(group.state), code, np.inf))
    assert np.isfinite(full.state).tolist() == [[1, 0, 1], [1, 1, 1], [0, 1, 1]]
    assert all(np.isfinite(group.state).all() for group in singles)


def test_regrouped_component_keeps_its_row_norm():
    # component 1 crosses surely in step 1, and from the first regrouping on
    # component 2 runs alone with the factor ||sigma_2|| = sqrt(0.0325):
    # its crossing frequency is that of the one-component model
    sigma = [[0.2, 0.0], [0.15, 0.1]]
    pair = ModelSpec(
        m=2,
        x0=[0.0, 0.0],
        mu=[-1000.0, 0.0],
        sigma=sigma,
        jump_rate=1.0,
        jump_mean=[0.0, 0.0],
        jump_sd=[0.1, 0.1],
        barrier_intercept=[-0.1, -0.3],
        barrier_slope=[0.0, 0.0],
        horizon=1.0,
    )
    alone = ModelSpec(
        m=1,
        x0=[0.0],
        mu=[0.0],
        sigma=[[math.hypot(0.15, 0.1)]],
        jump_rate=1.0,
        jump_mean=[0.0],
        jump_sd=[0.1],
        barrier_intercept=[-0.3],
        barrier_slope=[0.0],
        horizon=1.0,
    )
    dt, n = 0.002, 40_000
    p_pair = run_cmc(pair, CmcConfig(dt=dt, n_runs=n, seed=20)).crossing_probabilities()
    p_alone = run_cmc(alone, CmcConfig(dt=dt, n_runs=n, seed=21)).crossing_probabilities()
    assert p_pair[0] == 1.0
    se = math.sqrt(p_pair[1] * (1 - p_pair[1]) / n + p_alone[0] * (1 - p_alone[0]) / n)
    assert p_pair[1] == pytest.approx(p_alone[0], abs=3.0 * se)


def test_single_component_steps_with_its_row_norm():
    # a one-component model runs in its component's group, as a run with
    # one live component does for any m, so sigma enters only through
    # ||sigma_1||: the signs of sigma give one record, draw for draw
    def spec(sigma):
        return ModelSpec(
            m=1,
            x0=[0.0],
            mu=[0.0],
            sigma=[[sigma]],
            jump_rate=1.0,
            jump_mean=[0.0],
            jump_sd=[0.1],
            barrier_intercept=[-0.3],
            barrier_slope=[0.1],
            horizon=1.0,
        )

    cfg = CmcConfig(dt=0.005, n_runs=20_000, seed=29)
    plus, minus = run_cmc(spec(0.3), cfg), run_cmc(spec(-0.3), cfg)
    assert 0.2 < plus.crossing_probabilities()[0] < 0.8
    assert np.array_equal(plus.times, minus.times, equal_nan=True)
    assert np.array_equal(plus.kinds, minus.kinds)


def test_swapped_sigma_takes_matmul_with_the_law_of_its_diagonal():
    # sigma = [[0, a], [b, 0]] has sigma sigma^T = diag(a^2, b^2): its full
    # group goes through matmul, and diag(a, b)'s scales the normals in
    # place, yet the two models have one law
    def spec(sigma):
        return ModelSpec(
            m=2,
            x0=[0.0, 0.0],
            mu=[0.0, -0.1],
            sigma=sigma,
            jump_rate=1.0,
            jump_mean=[0.0, 0.0],
            jump_sd=[0.1, 0.1],
            barrier_intercept=[-0.2, -0.3],
            barrier_slope=[0.0, 0.1],
            horizon=1.0,
        )

    swapped, diagonal = spec([[0.0, 0.2], [0.3, 0.0]]), spec([[0.2, 0.0], [0.0, 0.3]])
    assert cmc._Group(swapped, np.arange(2), swapped.sigma).matmul
    assert not cmc._Group(diagonal, np.arange(2), diagonal.sigma).matmul
    dt, n = 0.005, 40_000
    probs = []
    for model, seed in ((swapped, 24), (diagonal, 25)):
        result = run_cmc(model, CmcConfig(dt=dt, n_runs=n, seed=seed))
        probs.append([*result.crossing_probabilities(), len(result.joint) / n])
    for p, q in zip(*probs):
        assert 0.05 < q < 0.95
        se = math.sqrt(p * (1 - p) / n + q * (1 - q) / n)
        assert p == pytest.approx(q, abs=4.0 * se)


def test_work_counts_bound_the_stepped_cells(example1_spec):
    # every uncrossed cell is stepped, and a crossed cell is stepped for
    # less than one regrouping interval past its crossing step (m = 2: a
    # run with one live component leaves the full group at the next one)
    result = run_cmc(example1_spec, CmcConfig(dt=0.002, n_runs=5000, seed=26))
    diag = result.diagnostics
    crossed = diag["interior_crossings"]
    assert 0 < crossed
    assert diag["live_cells"] <= diag["stepped_cells"]
    assert diag["stepped_cells"] <= diag["live_cells"] + crossed * cmc._COMPACT_EVERY
    # one run crossing in its 5th of 10 steps needs 5 steps and is stepped
    # until it retires at the next regrouping or at the horizon
    one = run_cmc(drift_spec([-1.0], -0.45), CmcConfig(dt=0.1, n_runs=1)).diagnostics
    assert one["live_cells"] == 5
    assert one["stepped_cells"] == min(10, math.ceil(5 / cmc._COMPACT_EVERY) * cmc._COMPACT_EVERY)


def one_factor_spec(m):
    """m names with pairwise diffusion correlation 0.3 and sigma row norm
    0.2: a full lower triangular sigma, so the full group steps through
    matmul."""
    corr = np.full((m, m), 0.3) + 0.7 * np.eye(m)
    return ModelSpec(
        m=m,
        x0=np.zeros(m),
        mu=np.full(m, -0.01),
        sigma=0.2 * np.linalg.cholesky(corr),
        jump_rate=1.0,
        jump_mean=np.zeros(m),
        jump_sd=np.full(m, 0.15),
        barrier_intercept=np.full(m, -0.1),
        barrier_slope=np.full(m, -0.01),
        horizon=1.0,
    )


@pytest.mark.parametrize(
    "spec, dt, size, bound_mib",
    [(make_example_spec(3.0), 1e-3, 65_536, 5.0), (one_factor_spec(16), 1e-2, 16_384, 9.0)],
    ids=["example2", "one-factor-m16"],
)
def test_block_working_set_is_bounded(spec, dt, size, bound_mib):
    # a group makes its step arrays once per window at its live size: a
    # 65,536-run example2 block peaks near 4.1 MiB above its record and a
    # 16,384-run block of 16 names near 6.9 MiB, where arrays sized for
    # every run of the block in each group took 6.5 and 11.5 MiB
    out = results.Crossings.never_crossed(spec.m, size)
    rng = results.block_rng(1, 0)
    cfg = CmcConfig(dt=dt, n_runs=size)
    peak, _ = traced_peak(lambda: simulate_block_cmc(spec, cfg, rng, size, out=out))
    assert peak < bound_mib * 2**20


def test_crossing_probability_bias_shrinks_with_dt(single_bm_spec):
    # grid checks can only miss excursions, so the frequency sits below the
    # exact value and climbs towards it as the step shrinks
    p_exact = bm_crossing_probability(0.0, -1.0, 0.0, 1.0, 1.0)
    n = 100_000
    freq = {}
    for dt in (0.01, 0.001, 0.0002):
        result = run_cmc(single_bm_spec, CmcConfig(dt=dt, n_runs=n, seed=15))
        freq[dt] = len(result.marginals[0]) / n
    se = math.sqrt(p_exact * (1 - p_exact) / n)
    assert freq[0.01] < p_exact
    assert freq[0.001] < p_exact
    gap_tol = 3.0 * se * math.sqrt(2.0)
    assert p_exact - freq[0.001] <= (p_exact - freq[0.01]) + gap_tol
    assert p_exact - freq[0.0002] <= (p_exact - freq[0.001]) + gap_tol
    assert abs(freq[0.0002] - p_exact) < 0.01


def test_crossing_times_grid_aligned(single_bm_spec):
    dt = 0.01
    result = run_cmc(single_bm_spec, CmcConfig(dt=dt, n_runs=5000, seed=16))
    times = result.marginals[0].times
    steps = times / dt
    assert np.allclose(steps, np.round(steps), atol=1e-9)
    assert np.all((times > 0.0) & (times <= 1.0))


def test_validation():
    spec = drift_spec([-1.0], -0.5)
    with pytest.raises(ValueError):
        CmcConfig(dt=0.0, n_runs=10)
    with pytest.raises(ValueError):
        run_cmc(spec, CmcConfig(dt=0.1, n_runs=0))
    with pytest.raises(ValueError):
        run_cmc(spec, CmcConfig(dt=2.0, n_runs=10))  # dt beyond horizon
    jumpy = ModelSpec(
        m=1,
        x0=[0.0],
        mu=[0.0],
        sigma=[[1.0]],
        jump_rate=8.0,
        jump_mean=[0.0],
        jump_sd=[0.1],
        barrier_intercept=[-1.0],
        barrier_slope=[0.0],
        horizon=1.0,
    )
    with pytest.raises(ValueError, match="must be < 1"):
        run_cmc(jumpy, CmcConfig(dt=0.2, n_runs=10))


def test_sigma_zero_allowed_in_baseline(rng):
    # unlike the bridge engine, the discretised baseline never divides by a
    # per-component volatility
    spec = drift_spec([-1.0], -0.5)
    times, _ = single_run(spec, 0.25, rng)
    assert times[0] == pytest.approx(0.5)


def test_uneven_final_step(rng):
    # horizon not divisible by dt: the last step is shortened to land on T
    spec = drift_spec([-1.0], -0.95)
    times, _ = single_run(spec, 0.3, rng)
    assert times[0] == pytest.approx(1.0)


def test_terminal_law_of_a_non_symmetric_sigma():
    # the baseline reports crossings only, so its terminal law is read off
    # one Euler step against barriers that rise from -1 at t = 0 to the
    # levels c at T = 1: component i crosses exactly when X_i(1) <= c_i.
    # X(1) is normal with covariance sigma sigma^T; with this sigma,
    # sigma^T sigma (0.0625, 0.015, 0.01) moves every probability by > 10 SE
    sigma = np.array([[0.2, 0.0], [0.15, 0.1]])
    c = np.array([-0.1, -0.1])
    spec = ModelSpec(
        m=2,
        x0=[0.0, 0.0],
        mu=[0.0, 0.0],
        sigma=sigma,
        jump_rate=0.0,
        jump_mean=[0.0, 0.0],
        jump_sd=[0.0, 0.0],
        barrier_intercept=[-1.0, -1.0],
        barrier_slope=1.0 + c,
        horizon=1.0,
    )
    n = 100_000
    result = run_cmc(spec, CmcConfig(dt=1.0, n_runs=n, seed=18))
    cov = sigma @ sigma.T
    expected = list(stats.norm.cdf(c / np.sqrt(np.diag(cov))))
    expected.append(stats.multivariate_normal(mean=np.zeros(2), cov=cov).cdf(c))
    observed = [len(ws) / n for ws in result.marginals] + [len(result.joint) / n]
    for p, q in zip(observed, expected):
        assert p == pytest.approx(q, abs=3.0 * math.sqrt(q * (1.0 - q) / n))
