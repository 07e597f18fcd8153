import dataclasses
import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fptmc import CmcConfig, cmc, results, run_cmc, run_engine, unif
from helpers import merge_by_block, traced_peak


def draw_block(rng, size, out):
    out.times[0] = rng.standard_normal(size)
    return (size,)


def caller_first(caller: int, ran: list):
    """A block kernel that records the thread running each block in ``ran``
    and holds any other thread's block until the calling thread ``caller``
    has run one, so that the calling thread is sure to get a block."""
    caller_ran = threading.Event()

    def block(rng, size, out):
        ran.append(threading.get_ident())
        if ran[-1] == caller:
            caller_ran.set()
        else:
            assert caller_ran.wait(timeout=30)
        return draw_block(rng, size, out)

    return block


@pytest.mark.parametrize("size", [results.BLOCK_SIZE, 1000])
def test_block_sizes_fill_each_block_but_the_last(monkeypatch, size):
    # the block size is read when the job is cut, and a multiple of it gets
    # no empty last block
    monkeypatch.setattr(results, "BLOCK_SIZE", size)
    assert results.block_sizes(1) == [1]
    assert results.block_sizes(size - 1) == [size - 1]
    assert results.block_sizes(size) == [size]
    assert results.block_sizes(size + 1) == [size, 1]
    assert results.block_sizes(3 * size) == [size] * 3


def test_threads_capped_at_block_count():
    # a job runs on at most min(workers, blocks) threads, the calling
    # thread among them, and the record and outputs do not depend on which
    # thread ran a block
    caller = threading.get_ident()
    n = 2 * results.BLOCK_SIZE + 1000
    serial, outputs, _ = results.run_blocks(1, n, seed=5, workers=1, simulate=draw_block)
    assert outputs == [(results.BLOCK_SIZE,)] * 2 + [(1000,)]
    for workers in (8, 2):
        ran = []
        record, threaded_outputs, _ = results.run_blocks(
            1, n, seed=5, workers=workers, simulate=caller_first(caller, ran)
        )
        assert len(ran) == 3
        assert caller in ran
        assert len(set(ran)) <= min(workers, 3)
        assert threaded_outputs == outputs
        assert np.array_equal(record.times, serial.times)
        assert np.array_equal(record.kinds, serial.kinds)

    # a one-block job starts no thread, whatever workers asks for
    before = threading.active_count()
    during = []

    def count_threads(rng, size, out):
        during.append((threading.get_ident(), threading.active_count()))
        return draw_block(rng, size, out)

    _, single_outputs, _ = results.run_blocks(1, 1000, seed=5, workers=8, simulate=count_threads)
    assert during == [(caller, before)]
    assert single_outputs == [(1000,)]


@pytest.mark.parametrize("fails_on", ["caller", "helper"])
def test_a_failing_block_stops_the_job(fails_on):
    # the block that raises is the calling thread's first or a helper's
    # first; the other thread's blocks wait until it is reached, so it is
    # reached whichever thread takes a block first.  run_blocks raises that
    # same exception, the thread that raised starts no other block, and no
    # thread is left running
    caller = threading.get_ident()
    error = RuntimeError(f"block on the {fails_on} failed")
    failing_reached = threading.Event()
    ran = []

    def failing_block(rng, size, out):
        on_caller = threading.get_ident() == caller
        ran.append(on_caller)
        if on_caller == (fails_on == "caller"):
            failing_reached.set()
            raise error
        assert failing_reached.wait(timeout=30)
        return draw_block(rng, size, out)

    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        results.run_blocks(1, 4 * results.BLOCK_SIZE, seed=5, workers=2, simulate=failing_block)
    assert raised.value is error
    assert threading.active_count() == before
    assert ran.count(fails_on == "caller") == 1


def assert_same_result(a, b):
    for i in range(a.m):
        assert np.array_equal(a.marginals[i].times, b.marginals[i].times)
        assert np.array_equal(a.marginal_run_indices[i], b.marginal_run_indices[i])
    assert np.array_equal(a.joint.times, b.joint.times)
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
    (t1, _, k1), (t8, _, k8) = recorded
    assert np.array_equal(t1, t8, equal_nan=True)
    assert np.array_equal(k1, k8)
    # every cell was written: a known kind, and NaN time exactly where no
    # crossing was recorded
    assert np.isin(k8, [0, 1, 2]).all()
    assert np.array_equal(np.isnan(t8), k8 == 0)
    assert (k8 != 0).any() and (k8 == 0).any()


@pytest.mark.parametrize("engine", ["unif", "cmc"])
def test_every_crossing_is_one_unit_weight_sample(monkeypatch, example1_spec, engine):
    # no crossing is dropped without a count: each one is a marginal sample
    # of weight 1, so a crossing probability is a count over the runs
    n = 20_000
    module = unif if engine == "unif" else cmc
    records = []

    def recording_collect(engine, seed, hits, *args, **kwargs):
        records.extend(hits)
        return results.collect_result(engine, seed, hits, *args, **kwargs)

    monkeypatch.setattr(module, "collect_result", recording_collect)
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
    # weight 1 is a constant, not stored: the record's weights and each
    # sample set's are read-only all-ones views with zero strides
    [record] = records
    weights = [record.weights] + [ws.weights for ws in [*result.marginals, result.joint]]
    assert record.weights.shape == record.times.shape
    for w in weights:
        assert np.all(w == 1.0)
        assert not w.flags.writeable and set(w.strides) == {0}


DERIVED = ("marginal_run_indices", "marginals", "joint_run_indices", "joint")


def read_every_set(result, name):
    """The set ``name`` of ``result``, with every component's set derived
    when it is a per-component sequence."""
    value = getattr(result, name)
    return list(value) if isinstance(value, results.ComponentSets) else value


def test_a_held_result_costs_its_record(example1_spec):
    # the sample sets are derived on each read: reading them leaves nothing
    # on the result, so a held result costs its times and kinds only; a
    # first read on another result pays any one-time allocation of the code
    warm = run_engine(example1_spec, 1000, seed=40)
    for name in DERIVED:
        read_every_set(warm, name)
    result = run_engine(example1_spec, 20_000, seed=41)
    gc.collect()
    # leave tracing as found: under -X tracemalloc it is already on
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for name in DERIVED:
            read_every_set(result, name)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert after - before < 4096
    assert set(vars(result)) == {f.name for f in dataclasses.fields(result)}


def synthetic_result(m, n_runs, seed):
    """A result of m components over n_runs runs, each cell crossed with
    probability 1/2 at a uniform time, without a simulation."""
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, 2, size=(m, n_runs), dtype=np.int8)
    times = np.where(kinds != 0, rng.random((m, n_runs)), np.nan)
    return results.EngineResult("unif", seed, times, kinds, 0.0)


@pytest.mark.parametrize("name", ["marginals", "marginal_run_indices"])
def test_one_component_read_costs_one_components_cells(name):
    # reading component 3 derives its set alone: about 5 bytes per run here
    # (the crossed mask and half a row of float64 times or int64 indices),
    # where deriving all 16 components' sets costs about 16 times that
    n = 65_536
    result = synthetic_result(16, n, seed=43)
    getattr(result, name)[3]
    peak, derived = traced_peak(lambda: getattr(result, name)[3])
    assert len(derived) == np.count_nonzero(result.kinds[3]) > 0
    assert peak < 12 * n


def test_component_sets_read_as_lists():
    # every read the repository makes of a per-component sequence, against
    # sets built run by run
    result = synthetic_result(3, 500, seed=44)
    runs = [np.array([j for j in range(result.n_runs) if result.kinds[i, j]]) for i in range(3)]
    times = [np.array([result.times[i, j] for j in runs[i]]) for i in range(3)]
    indices, marginals = result.marginal_run_indices, result.marginals
    assert len(indices) == len(marginals) == result.m
    for i in range(-3, 3):
        assert indices[i].dtype == np.intp and np.array_equal(indices[i], runs[i])
        assert marginals[i].n_runs == result.n_runs
        assert marginals[i].times.tobytes() == times[i].tobytes()
    for seq in (indices, marginals):
        for bad in (3, -4):
            with pytest.raises(IndexError):
                seq[bad]
    assert [a.tobytes() for a in indices[1:]] == [a.tobytes() for a in runs[1:]]
    assert [ws.times.tobytes() for ws in marginals[::-2]] == [
        a.tobytes() for a in times[::-2]
    ]
    first, second, third = marginals
    assert third.times.tobytes() == times[2].tobytes()
    assert np.array_equal(np.concatenate(indices), np.concatenate(runs))
    for i, (ws, rows) in enumerate(zip(marginals, indices)):
        assert ws.times.tobytes() == marginals[i].times.tobytes()
        assert rows.tobytes() == indices[i].tobytes()


def test_crossing_probabilities_count_without_a_record_sized_temporary():
    # each row is counted in place: no (m, n_runs) bool temporary, 1 MiB here
    n = 65_536
    result = synthetic_result(16, n, seed=45)
    result.crossing_probabilities()
    peak, probs = traced_peak(result.crossing_probabilities)
    expected = np.count_nonzero(result.kinds, axis=1) / n
    assert probs.tobytes() == expected.tobytes()
    assert peak < n


def test_a_record_costs_its_times_and_kinds():
    # float64 times and int8 kinds, 9 bytes per cell: the unit weights take
    # no memory
    n = 100_000
    peak, record = traced_peak(lambda: results.Crossings.never_crossed(2, n))
    assert 8.9 * 2 * n < peak < 9.5 * 2 * n
    assert record.weights.shape == (2, n) and np.all(record.weights == 1.0)


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
