"""Tests for parallel suite collection and cache keying.

The ``workers`` fan-out must be an implementation detail: any worker
count yields the exact matrix a serial collection yields, in the same
row order.  The cache key must distinguish *which* workloads were
collected, not just how many.
"""

import os

import numpy as np
import pytest

from repro.cluster import collection
from repro.cluster.collection import (
    CollectionConfig,
    _workloads_digest,
    characterize_suite,
)
from repro.cluster.testbed import MeasurementConfig
from repro.obs.stats import Stopwatch
from repro.workloads import workload_by_name
from repro.workloads.suite import SUITE

TINY = MeasurementConfig(slaves_measured=1, active_cores=2, ops_per_core=1200)

#: Floor on the 2-worker pool's speedup over serial collection, on a
#: host with at least 2 usable CPUs.
PARALLEL_SPEEDUP_FLOOR = 1.2


@pytest.fixture(autouse=True)
def clear_memo(monkeypatch):
    """Each test sees a cold in-process memo and no persistent store —
    otherwise a REPRO_CACHE_DIR hydration would masquerade as the
    parallel collection these tests mean to exercise."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    collection._MEMO.clear()
    yield
    collection._MEMO.clear()


def test_parallel_matrix_is_bit_identical_to_serial():
    """workers=4 must reproduce the serial matrix exactly (values and
    row order) — the determinism guarantee the parallel path is built on."""
    config = CollectionConfig(scale=0.2, seed=7, measurement=TINY)
    workloads = SUITE[:3]
    serial = characterize_suite(workloads, config, workers=1)
    collection._MEMO.clear()
    parallel = characterize_suite(workloads, config, workers=4)
    assert parallel.matrix.workloads == serial.matrix.workloads
    assert parallel.matrix.metric_names == serial.matrix.metric_names
    assert np.array_equal(parallel.matrix.values, serial.matrix.values)
    assert [c.name for c in parallel.characterizations] == [
        c.name for c in serial.characterizations
    ]


def test_workers_config_field_drives_parallel_path():
    config = CollectionConfig(scale=0.2, seed=7, measurement=TINY, workers=2)
    workloads = (workload_by_name("H-Grep"), workload_by_name("S-Grep"))
    via_config = characterize_suite(workloads, config)
    collection._MEMO.clear()
    serial = characterize_suite(workloads, CollectionConfig(scale=0.2, seed=7, measurement=TINY))
    assert np.array_equal(via_config.matrix.values, serial.matrix.values)


def test_workers_does_not_change_cache_key():
    """Worker count affects wall time only, so equal-parameter configs
    share one cache entry regardless of workers."""
    serial_cfg = CollectionConfig(scale=0.2, seed=7, measurement=TINY, workers=1)
    parallel_cfg = CollectionConfig(scale=0.2, seed=7, measurement=TINY, workers=4)
    assert serial_cfg.cache_key() == parallel_cfg.cache_key()


def test_different_subsets_of_same_size_get_distinct_results():
    """Regression: the key once used only len(workloads), so same-size
    subsets collided in the memo and returned the wrong matrix."""
    config = CollectionConfig(scale=0.2, seed=7, measurement=TINY)
    first = characterize_suite(SUITE[:2], config)
    second = characterize_suite(SUITE[2:4], config)
    assert first.matrix.workloads == tuple(w.name for w in SUITE[:2])
    assert second.matrix.workloads == tuple(w.name for w in SUITE[2:4])


def test_workloads_digest_distinguishes_subsets():
    assert _workloads_digest(SUITE[:4]) != _workloads_digest(SUITE[4:8])
    assert _workloads_digest(SUITE[:4]) == _workloads_digest(SUITE[:4])
    # Order matters: the matrix rows follow suite order.
    assert _workloads_digest(tuple(reversed(SUITE[:4]))) != _workloads_digest(
        SUITE[:4]
    )


@pytest.mark.slow
@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="a pool speedup needs at least 2 usable CPUs",
)
def test_pool_speedup_floor_at_two_workers():
    """Two pool workers on two cores must beat serial collection, with
    both legs timed cold in the same run."""
    config = CollectionConfig(
        scale=0.5,
        seed=42,
        measurement=MeasurementConfig(
            slaves_measured=1, active_cores=3, ops_per_core=4000
        ),
    )
    seconds = {}
    matrices = {}
    for workers in (1, 2):
        collection._MEMO.clear()
        with Stopwatch() as sw:
            suite = characterize_suite(SUITE[:2], config, workers=workers)
        seconds[workers] = sw.seconds
        matrices[workers] = suite.matrix
    assert matrices[2].workloads == matrices[1].workloads
    assert np.array_equal(matrices[2].values, matrices[1].values)
    speedup = seconds[1] / seconds[2]
    assert speedup >= PARALLEL_SPEEDUP_FLOOR, (
        f"serial {seconds[1]:.2f}s, 2 workers {seconds[2]:.2f}s: "
        f"{speedup:.2f}x"
    )
