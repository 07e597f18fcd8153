from concurrent.futures import ThreadPoolExecutor

import numpy as np

from fptmc import results


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
