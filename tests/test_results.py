from concurrent.futures import ThreadPoolExecutor

import numpy as np

from fptmc import CmcConfig, results, run_cmc


def draw_block(rng, size):
    return (rng.standard_normal(size),)


def test_thread_pool_capped_at_block_count(monkeypatch):
    requested = []

    def recording_pool(max_workers):
        requested.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(results, "ThreadPoolExecutor", recording_pool)
    serial, _ = results.run_blocks(1000, seed=5, workers=1, simulate=draw_block)
    pooled, _ = results.run_blocks(1000, seed=5, workers=8, simulate=draw_block)
    assert requested == [1]
    assert len(pooled) == len(serial) == 1
    assert np.array_equal(pooled[0][0], serial[0][0])


def test_weight_health_counts_zero_weight_drops():
    nan = np.nan
    # one row per component, one column per run
    hit_t = np.array([[0.2, 0.4, 0.5, nan], [0.3, nan, 0.6, nan]])
    hit_w = np.array([[1.0, 3.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]])
    hit_k = np.array([[1, 2, 1, 0], [1, 0, 1, 0]], dtype=np.int8)
    result = results.collect_result("unif", 0, [(hit_t, hit_w, hit_k)], elapsed=1.0)
    diag = result.diagnostics
    assert diag["zero_weight_dropped"] == [1, 1]
    assert [len(ws) for ws in result.marginals] == [2, 1]
    assert diag["ess_frac"] == [16.0 / 10.0 / 2, 1.0]
    assert diag["max_weight_share"] == [0.75, 1.0]


def test_weight_health_without_samples_is_nan():
    hit_t = np.full((1, 3), np.nan)
    result = results.collect_result(
        "unif", 0, [(hit_t, np.zeros((1, 3)), np.zeros((1, 3), dtype=np.int8))], 1.0
    )
    assert result.diagnostics["zero_weight_dropped"] == [0]
    assert np.isnan(result.diagnostics["ess_frac"][0])
    assert np.isnan(result.diagnostics["max_weight_share"][0])


def test_cmc_unit_weights_have_full_ess(single_bm_spec):
    result = run_cmc(single_bm_spec, CmcConfig(dt=0.01, n_runs=2000, seed=3))
    n_hits = len(result.marginals[0])
    assert n_hits > 0
    assert result.diagnostics["ess_frac"] == [1.0]
    assert result.diagnostics["max_weight_share"] == [1.0 / n_hits]
    assert result.diagnostics["zero_weight_dropped"] == [0]
