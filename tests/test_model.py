import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from fptmc import ModelSpec, bridge, parse_config
from fptmc.results import Crossings
from fptmc.unif import simulate_block
from conftest import make_example_spec

# a diffusion row this small moves no value of order 1e-3 or more by one ulp,
# so the engine's paths are exactly the drift-and-jump polyline
NO_DIFFUSION = 1e-100


VALID_SPEC = dict(
    m=2,
    x0=[0.0, 0.0],
    mu=[0.0, 0.0],
    sigma=np.eye(2),
    jump_rate=1.0,
    jump_mean=[0.0, 0.0],
    jump_sd=[0.1, 0.1],
    barrier_intercept=[-1.0, -1.0],
    barrier_slope=[0.0, 0.0],
    horizon=1.0,
)


def test_effective_sigma_diagonal():
    spec = ModelSpec(**{**VALID_SPEC, "sigma": [[0.2, 0.0], [0.0, 0.2]]})
    assert spec.effective_sigmas() == pytest.approx([0.2, 0.2])


def test_effective_sigma_row_norm():
    spec = ModelSpec(**{**VALID_SPEC, "sigma": [[3.0, 4.0], [0.0, -2.0]]})
    assert spec.effective_sigmas() == pytest.approx([5.0, 2.0])


def test_effective_sigma_zero_row_rejected():
    # the spec itself accepts the row: the baseline runs on it
    spec = ModelSpec(**{**VALID_SPEC, "sigma": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ValueError, match="^sigma has a degenerate diffusion row 1"):
        spec.effective_sigmas()


def test_barrier_requires_finite_fields():
    with pytest.raises(ValueError, match="^barrier_intercept entries must be finite"):
        ModelSpec(**{**VALID_SPEC, "barrier_intercept": [math.inf, -1.0]})


def test_model_spec_validation():
    good = VALID_SPEC
    ModelSpec(**good)
    with pytest.raises(ValueError, match="above its barrier"):
        ModelSpec(**{**good, "x0": [0.0, -1.0]})
    with pytest.raises(ValueError, match="^mu has 3 entries, expected m = 2"):
        ModelSpec(**{**good, "mu": [0.0, 0.0, 0.0]})
    with pytest.raises(ValueError, match="^barrier_slope .*dimension mismatch"):
        ModelSpec(**{**good, "barrier_slope": [0.0]})
    with pytest.raises(ValueError, match="jump_sd"):
        ModelSpec(**{**good, "jump_sd": [0.1, -0.1]})
    with pytest.raises(ValueError, match="horizon"):
        ModelSpec(**{**good, "horizon": 0.0})
    with pytest.raises(ValueError, match="jump_rate"):
        ModelSpec(**{**good, "jump_rate": -1.0})


@pytest.mark.parametrize(
    "key, value",
    [
        ("horizon", math.inf),
        ("jump_rate", math.inf),
        ("jump_rate", math.nan),
        ("x0", [0.0, math.nan]),
        ("mu", [-math.inf, 0.0]),
        ("sigma", [[1.0, 0.0], [0.0, math.inf]]),
        ("jump_mean", [0.0, -math.inf]),
        ("jump_sd", [math.inf, 0.1]),
        # an int beyond the float range
        ("horizon", 10**400),
        ("barrier_slope", [0.0, -(10**400)]),
        ("sigma", [[10**400, 0.0], [0.0, 1.0]]),
    ],
)
def test_model_spec_rejects_non_finite_inputs(key, value):
    # only the rejection is checked: an engine never runs on such a spec
    with pytest.raises(ValueError, match=f"^{key} .*finite"):
        ModelSpec(**{**VALID_SPEC, key: value})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("x0", [True, 0.0], "x0 must be a list of numbers"),
        ("x0", ["0.5", 0.0], "x0 must be a list of numbers"),
        ("barrier_slope", np.array([False, False]), "barrier_slope must be a list of numbers"),
        ("jump_sd", 0.1, "jump_sd must be a list of numbers"),
        ("sigma", [[1.0, "0"], [0.0, 1.0]], "sigma entries must be finite numbers"),
        ("sigma", [1.0, 1.0], r"sigma must be an 2 x 2 matrix \(dimension mismatch\)"),
        ("m", 2.7, "m must be an integer >= 1"),
        ("m", True, "m must be an integer >= 1"),
        ("m", 0, "m must be an integer >= 1"),
        ("horizon", "abc", "horizon must be a finite number"),
        ("jump_rate", True, "jump_rate must be a finite number"),
    ],
)
def test_model_spec_rejects_non_numeric_inputs(key, value, message):
    # a bool or a string is not read as a number, and m is not truncated
    with pytest.raises(ValueError, match="^" + message):
        ModelSpec(**{**VALID_SPEC, key: value})


def test_model_spec_stores_read_only_float_arrays():
    spec = ModelSpec(**{**VALID_SPEC, "m": np.int64(2), "x0": np.array([1, 2])})
    assert spec.m == 2 and type(spec.m) is int
    assert spec.x0.dtype == float and spec.x0.tolist() == [1.0, 2.0]
    for name in ("x0", "mu", "sigma", "jump_mean", "jump_sd", "barrier_intercept",
                 "barrier_slope"):
        assert not getattr(spec, name).flags.writeable


def test_model_specs_compare_by_identity_and_hash():
    # array fields have no single truth value: a spec is equal only to itself,
    # and the config it came from is the form that compares by value
    cfg = parse_config("configs/example1.cfg")
    a, b = cfg.to_model_spec(), cfg.to_model_spec()
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1
    assert cfg == parse_config("configs/example1.cfg")


def engine_passes(monkeypatch, spec, n, seed=0):
    """Run one engine block of n runs and read its path skeletons off the
    interval step.

    ``unif.simulate_block`` calls ``bridge.crossing_cells`` once per pass
    with every live run's interval (t0, t1) and each component's distance
    above its barrier just after the jump at t0 and just before t1, one
    (m, n) column per run.  The spec's barriers must be flat, so that a
    distance is the value less the intercept, and out of reach, so that a
    run leaves the live set exactly when its clock passes the horizon.
    Returns one (runs, t1, start, end) tuple per pass, with ``runs`` the
    block index of each live column and ``start`` and ``end`` distances.
    """
    assert np.all(spec.barrier_slope == 0.0)
    recorded = []
    step = bridge.crossing_cells

    def recording(d0, d1, t0, t1, *rest):
        recorded.append((t1.copy(), d0.copy(), d1.copy()))
        return step(d0, d1, t0, t1, *rest)

    with monkeypatch.context() as patched:
        patched.setattr(bridge, "crossing_cells", recording)
        out = Crossings.never_crossed(spec.m, n)
        hit_t, _, _, _ = simulate_block(spec, np.random.default_rng(seed), n, out=out)
    assert np.isnan(hit_t).all(), "a barrier was reached"
    runs = np.arange(n)
    passes = []
    for t1, start, end in recorded:
        passes.append((runs, t1, start, end))
        runs = runs[t1 < spec.horizon]
    assert runs.size == 0
    return passes


def jump_counts(passes, n):
    """Jumps per run: a run steps one interval more than it jumps."""
    return np.bincount(np.concatenate([p[0] for p in passes]), minlength=n) - 1


def skeleton(passes, r):
    """Run r's instants 0 = T_0 < T_1 < ... < T_M < T_{M+1} = T, its values
    just before every jump and at the horizon, shape (m, M+1), and just after
    every jump, shape (m, M)."""
    rows = [
        (t1[k], start[:, k], end[:, k])
        for runs, t1, start, end in passes
        for k in np.flatnonzero(runs == r)
    ]
    instants = np.array([0.0] + [t for t, _, _ in rows])
    pre = np.array([end for _, _, end in rows]).T
    post = np.array([start for _, start, _ in rows[1:]]).reshape(-1, len(pre)).T
    return instants, pre, post


def far_barriers(spec, **changes):
    """The spec with every barrier out of the paths' reach."""
    return dataclasses.replace(
        spec,
        barrier_intercept=np.full(spec.m, -50.0),
        barrier_slope=np.zeros(spec.m),
        **changes,
    )


def _clock_spec(rate, horizon=1.0):
    return ModelSpec(
        m=1,
        x0=[0.0],
        mu=[0.0],
        sigma=[[1.0]],
        jump_rate=rate,
        jump_mean=[0.0],
        jump_sd=[0.0],
        barrier_intercept=[-1e3],
        barrier_slope=[0.0],
        horizon=horizon,
    )


def _drift_only_spec(mu, x0=1.0, m=1):
    return ModelSpec(
        m=m,
        x0=np.full(m, x0),
        mu=np.full(m, mu),
        sigma=np.eye(m) * NO_DIFFUSION,
        jump_rate=0.0,
        jump_mean=np.zeros(m),
        jump_sd=np.zeros(m),
        barrier_intercept=np.full(m, -10.0),
        barrier_slope=np.zeros(m),
        horizon=1.0,
    )


def test_jump_instants_zero_rate(monkeypatch):
    passes = engine_passes(monkeypatch, _clock_spec(0.0), 1000)
    assert len(passes) == 1
    assert np.all(passes[0][1] == 1.0)


def test_jump_instants_mean_count(monkeypatch):
    n = 100_000
    counts = jump_counts(engine_passes(monkeypatch, _clock_spec(8.0), n, seed=1), n)
    assert np.mean(counts) == pytest.approx(8.0, abs=0.1)


def test_jump_instants_zero_count_probability(monkeypatch):
    n = 100_000
    counts = jump_counts(engine_passes(monkeypatch, _clock_spec(1.0), n, seed=2), n)
    assert np.sum(counts == 0) / n == pytest.approx(math.exp(-1.0), abs=0.01)


def test_jump_instants_sorted_and_inside_horizon(monkeypatch, rng):
    for seed in range(200):
        rate = rng.uniform(0.1, 20.0)
        horizon = rng.uniform(0.1, 5.0)
        passes = engine_passes(monkeypatch, _clock_spec(rate, horizon), 5, seed=seed)
        for r in range(5):
            t = skeleton(passes, r)[0][1:-1]
            if len(t):
                assert np.all(np.diff(t) > 0)
                assert t[0] > 0.0
                assert t[-1] < horizon


def test_propagate_drift_only(monkeypatch):
    spec = _drift_only_spec(-0.002, x0=0.0)
    (_, _, _, end), = engine_passes(monkeypatch, spec, 100)
    assert np.all(end == 10.0 + -0.002)  # distance above the barrier at -10


def test_propagate_covariance(example1_spec, monkeypatch):
    n = 100_000
    spec = far_barriers(example1_spec, jump_rate=0.0)
    (_, _, _, end), = engine_passes(monkeypatch, spec, n, seed=3)
    cov = np.cov(end)
    se_var = 0.04 * math.sqrt(2.0 / n)
    se_cov = 0.04 / math.sqrt(n)
    assert cov[0, 0] == pytest.approx(0.04, abs=3 * se_var)
    assert cov[1, 1] == pytest.approx(0.04, abs=3 * se_var)
    assert cov[0, 1] == pytest.approx(0.0, abs=3 * se_cov)


def test_propagate_covariance_of_a_non_symmetric_sigma(example1_spec, monkeypatch):
    # the endpoint covariance is sigma sigma^T tau; with this sigma,
    # sigma^T sigma differs in every entry (0.0625, 0.015, 0.01)
    n = 100_000
    sigma = np.array([[0.2, 0.0], [0.15, 0.1]])
    spec = far_barriers(example1_spec, jump_rate=0.0, sigma=sigma, horizon=0.5)
    (_, _, _, end), = engine_passes(monkeypatch, spec, n, seed=8)
    expected = sigma @ sigma.T * 0.5
    var = np.diag(expected)
    se = np.sqrt((np.outer(var, var) + np.square(expected)) / n)
    assert np.all(np.abs(np.cov(end) - expected) <= 3 * se)


def test_propagate_mean(example1_spec, monkeypatch):
    n = 100_000
    spec = far_barriers(example1_spec, x0=[5.0, 5.0], jump_rate=0.0, horizon=0.5)
    (_, _, _, end), = engine_passes(monkeypatch, spec, n, seed=4)
    se = 0.2 * math.sqrt(0.5) / math.sqrt(n)
    # distances above the barriers at -50
    assert end[0].mean() == pytest.approx(55.0 - 0.001, abs=3 * se)
    assert end[1].mean() == pytest.approx(55.0 - 0.006, abs=3 * se)


def test_build_timeline_no_jumps(monkeypatch):
    spec = far_barriers(make_example_spec(0.0))
    passes = engine_passes(monkeypatch, spec, 50)
    for r in range(50):
        instants, pre, post = skeleton(passes, r)
        assert np.array_equal(instants, [0.0, 1.0])
        assert pre.shape == (2, 1)
        assert post.shape == (2, 0)


def test_build_timeline_deterministic_polyline(monkeypatch):
    spec = _drift_only_spec(-1.0, x0=1.5)
    passes = engine_passes(monkeypatch, spec, 1)
    _, pre, _ = skeleton(passes, 0)
    assert pre[0, -1] == pytest.approx(10.5, abs=0.0)  # x0 - 1 + 10 exactly


def test_build_timeline_brackets_horizon(example1_spec, monkeypatch):
    passes = engine_passes(monkeypatch, far_barriers(example1_spec), 50, seed=5)
    for r in range(50):
        instants, pre, post = skeleton(passes, r)
        n_jumps = len(instants) - 2
        assert instants[0] == 0.0
        assert instants[-1] == 1.0
        assert np.all(np.diff(instants) > 0)
        assert (post - pre[:, :n_jumps]).shape == (2, n_jumps)


def test_build_timeline_jump_count_poisson(example1_spec, monkeypatch):
    n = 10_000
    passes = engine_passes(monkeypatch, far_barriers(example1_spec), n, seed=6)
    counts = jump_counts(passes, n)
    edges = np.arange(6)
    observed = np.array(
        [np.sum(counts == k) for k in range(5)] + [np.sum(counts >= 5)]
    )
    pmf = stats.poisson.pmf(edges[:5], 1.0)
    expected = np.append(pmf, 1.0 - pmf.sum()) * len(counts)
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.01


def test_deterministic_path_with_jumps(monkeypatch):
    # randomness off (up to a diffusion below one ulp): drift plus mean
    # jumps, exactly reconstructable
    spec = ModelSpec(
        m=1,
        x0=[0.0],
        mu=[-1.0],
        sigma=[[NO_DIFFUSION]],
        jump_rate=2.0,
        jump_mean=[0.25],
        jump_sd=[0.0],
        barrier_intercept=[-10.0],
        barrier_slope=[0.0],
        horizon=1.0,
    )
    passes = engine_passes(monkeypatch, spec, 20, seed=7)
    assert jump_counts(passes, 20).max() >= 2
    for r in range(20):
        t, pre, post = skeleton(passes, r)
        n_jumps = len(t) - 2
        expected_pre = 10.0 - t[1:] + 0.25 * np.arange(n_jumps + 1)  # barrier at -10
        assert np.allclose(pre[0], expected_pre, atol=1e-12)
        assert np.allclose(post[0] - pre[0, :n_jumps], 0.25, atol=0.0)
