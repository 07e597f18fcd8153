import dataclasses
import gc
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fptmc import CmcConfig, cmc, results, run_cmc, run_engine, unif
from helpers import merge_by_block


def draw_block(rng, size, out):
    out.times[0] = rng.standard_normal(size)
    return (size,)


def test_thread_pool_capped_at_block_count(monkeypatch):
    requested = []

    def recording_pool(max_workers):
        requested.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(results, "ThreadPoolExecutor", recording_pool)
    serial, outputs, _ = results.run_blocks(1, 1000, seed=5, workers=1, simulate=draw_block)
    pooled, pooled_outputs, _ = results.run_blocks(
        1, 1000, seed=5, workers=8, simulate=draw_block
    )
    assert requested == [1]
    assert outputs == pooled_outputs == [(1000,)]
    assert np.array_equal(pooled.times, serial.times)


def assert_same_result(a, b):
    for i in range(a.m):
        assert np.array_equal(a.marginals[i].times, b.marginals[i].times)
        assert np.array_equal(a.marginals[i].weights, b.marginals[i].weights)
        assert np.array_equal(a.marginal_run_indices[i], b.marginal_run_indices[i])
    assert np.array_equal(a.joint.times, b.joint.times)
    assert np.array_equal(a.joint.weights, b.joint.weights)
    assert np.array_equal(a.joint_run_indices, b.joint_run_indices)


def test_unif_in_place_result_matches_per_block_merge(example1_spec):
    n = results.BLOCK_SIZE * 5 // 2
    assert len(results.block_sizes(n)) == 3
    merged = merge_by_block(
        "unif",
        lambda rng, size: unif.simulate_block(
            example1_spec, rng, size, out=results.Crossings.never_crossed(2, size)
        ),
        n,
        seed=21,
    )
    assert_same_result(run_engine(example1_spec, n, seed=21, workers=2), merged)


def test_cmc_in_place_result_matches_per_block_merge(monkeypatch, example1_spec):
    monkeypatch.setattr(results, "BLOCK_SIZE", 1024)
    cfg = CmcConfig(dt=0.01, n_runs=2560, seed=22, workers=2)
    merged = merge_by_block(
        "cmc",
        lambda rng, size: cmc.simulate_block_cmc(
            example1_spec, cfg, rng, size, out=results.Crossings.never_crossed(2, size)
        ),
        cfg.n_runs,
        cfg.seed,
    )
    assert len(results.block_sizes(cfg.n_runs)) == 3
    assert_same_result(run_cmc(example1_spec, cfg), merged)


@pytest.mark.parametrize("engine", ["unif", "cmc"])
def test_shared_result_under_many_threads(monkeypatch, example1_spec, engine):
    # dozens of small blocks write into the shared result from more workers
    # than cores, with the interpreter switching threads as often as it can
    monkeypatch.setattr(results, "BLOCK_SIZE", 512)
    n = 40 * 512 - 100
    module = unif if engine == "unif" else cmc
    recorded = []

    def recording_collect(engine, seed, hits, *args, **kwargs):
        recorded.append(tuple(a.copy() for a in hits[0]))
        return results.collect_result(engine, seed, hits, *args, **kwargs)

    monkeypatch.setattr(module, "collect_result", recording_collect)

    def run(workers):
        if engine == "unif":
            return run_engine(example1_spec, n, seed=23, workers=workers)
        return run_cmc(example1_spec, CmcConfig(dt=0.02, n_runs=n, seed=23, workers=workers))

    serial = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = run(8)
    finally:
        sys.setswitchinterval(interval)
    assert_same_result(serial, pooled)
    (t1, w1, k1), (t8, w8, k8) = recorded
    assert np.array_equal(t1, t8, equal_nan=True)
    assert np.array_equal(w1, w8)
    assert np.array_equal(k1, k8)
    # every cell was written: a known kind, and NaN time exactly where no
    # crossing was recorded
    assert np.isin(k8, [0, 1, 2]).all()
    assert np.array_equal(np.isnan(t8), k8 == 0)
    assert (k8 != 0).any() and (k8 == 0).any()


@pytest.mark.parametrize("engine", ["unif", "cmc"])
def test_every_crossing_is_one_unit_weight_sample(example1_spec, engine):
    # no crossing is dropped without a count: each one is a marginal sample
    # of weight 1, so a crossing probability is a count over the runs
    n = 20_000
    if engine == "unif":
        result = run_engine(example1_spec, n, seed=31)
    else:
        result = run_cmc(example1_spec, CmcConfig(dt=0.01, n_runs=n, seed=31))
    counts = np.array([len(ws) for ws in result.marginals])
    assert np.array_equal(result.crossing_probabilities(), counts / n)
    for i in range(result.m):
        assert np.array_equal(result.marginal_run_indices[i], np.flatnonzero(result.kinds[i]))
        assert result.crossing_probabilities()[i] == len(result.marginals[i]) / result.n_runs
    diag = result.diagnostics
    assert counts.sum() == diag["interior_crossings"] + diag["at_jump_crossings"]
    crossed = np.bincount(np.concatenate(result.marginal_run_indices), minlength=n)
    assert np.array_equal(result.joint_run_indices, np.flatnonzero(crossed == result.m))
    assert len(result.joint) == np.count_nonzero(crossed == result.m) > 0
    for ws in result.marginals + [result.joint]:
        assert np.all(ws.weights == 1.0)


DERIVED = ("marginal_run_indices", "marginals", "joint_run_indices", "joint")


def test_a_held_result_costs_its_record(example1_spec):
    # the sample sets are derived on each read: reading them leaves nothing
    # on the result, so a held result costs its times and kinds only; a
    # first read on another result pays any one-time allocation of the code
    warm = run_engine(example1_spec, 1000, seed=40)
    for name in DERIVED:
        getattr(warm, name)
    result = run_engine(example1_spec, 20_000, seed=41)
    gc.collect()
    # leave tracing as found: under -X tracemalloc it is already on
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for name in DERIVED:
            getattr(result, name)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert after - before < 4096
    assert set(vars(result)) == {f.name for f in dataclasses.fields(result)}


def test_derived_sets_are_the_same_on_every_read(example1_spec):
    result = run_engine(example1_spec, 20_000, seed=42)
    first, second = ({name: getattr(result, name) for name in DERIVED} for _ in range(2))
    for a, b in zip(first["marginal_run_indices"], second["marginal_run_indices"]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for a, b in zip(first["marginals"], second["marginals"]):
        assert a.n_runs == b.n_runs and a.times.tobytes() == b.times.tobytes()
    a, b = first["joint_run_indices"], second["joint_run_indices"]
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    a, b = first["joint"].times, second["joint"].times
    assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # the joint tuples are rows of the record's crossed columns, C-contiguous
    assert a.flags.c_contiguous and len(a) > 0
    gathered = result.times.take(first["joint_run_indices"], axis=1).T
    assert a.shape == gathered.shape and a.tobytes() == gathered.tobytes()
