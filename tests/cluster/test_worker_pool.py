"""Lifecycle tests for the persistent collection worker pool.

Three guarantees beyond bit-identity (which
``test_collection_parallel.py`` and ``test_batch_equivalence.py`` pin):

* a worker that *dies* (not: fails) surfaces as
  :class:`~repro.errors.WorkerPoolError` promptly — never a hang;
* cooperative cancellation drains in-flight work and leaves the pool
  healthy and reusable;
* results travel whole: a pool result equals the serial
  characterization field by field, a store-backed collection writes
  each workload object once, and a cache-less one writes no spill
  directory.
"""

import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import collection, pool as pool_mod
from repro.cluster.collection import (
    CollectionConfig,
    characterize_suite,
    workload_store_key,
)
from repro.cluster.pool import shutdown_pools
from repro.cluster.testbed import MeasurementConfig
from repro.errors import CollectionCancelled, StoreError, WorkerPoolError
from repro.faults import FaultPlan
from repro.service.store import ResultStore
from repro.workloads.suite import SUITE

TINY = MeasurementConfig(slaves_measured=1, active_cores=2, ops_per_core=1200)


def tiny_config() -> CollectionConfig:
    return CollectionConfig(scale=0.2, seed=7, measurement=TINY)


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    """Cold memo, no ambient store, and no pool leaked across tests.

    Pools must be shut down on *entry* too: workers snapshot the
    environment at fork, so a healthy pool inherited from another test
    file would never see this test's CRASH_ENV monkeypatch."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv(pool_mod.CRASH_ENV, raising=False)
    collection._MEMO.clear()
    shutdown_pools()
    yield
    collection._MEMO.clear()
    shutdown_pools()


class TestCrash:
    def test_worker_death_raises_promptly_not_hangs(self, monkeypatch):
        """An os._exit'd worker must produce a WorkerPoolError naming the
        outstanding work — detected by liveness polling, not a timeout
        on the full result."""
        monkeypatch.setenv(pool_mod.CRASH_ENV, SUITE[1].name)
        with pytest.raises(WorkerPoolError, match="died"):
            characterize_suite(SUITE[:3], tiny_config(), workers=2)

    def test_broken_pool_is_not_reused(self, monkeypatch):
        monkeypatch.setenv(pool_mod.CRASH_ENV, SUITE[1].name)
        with pytest.raises(WorkerPoolError):
            characterize_suite(SUITE[:3], tiny_config(), workers=2)
        assert not pool_mod._POOLS  # torn down, not lingering

        # A clean retry builds a fresh pool and succeeds.
        monkeypatch.delenv(pool_mod.CRASH_ENV)
        collection._MEMO.clear()
        result = characterize_suite(SUITE[:3], tiny_config(), workers=2)
        assert len(result.characterizations) == 3


class TestCancel:
    def test_cancel_drains_and_pool_stays_reusable(self):
        cancel = threading.Event()

        def cancel_after_first(done: int, total: int) -> None:
            cancel.set()

        with pytest.raises(CollectionCancelled):
            characterize_suite(
                SUITE[:4], tiny_config(), workers=2,
                progress=cancel_after_first, cancel=cancel,
            )

        # The same pool (workers alive, same object) serves the retry.
        pools_after_cancel = dict(pool_mod._POOLS)
        assert len(pools_after_cancel) == 1
        collection._MEMO.clear()
        result = characterize_suite(SUITE[:4], tiny_config(), workers=2)
        assert len(result.characterizations) == 4
        assert dict(pool_mod._POOLS) == pools_after_cancel

    def test_cancel_before_start_runs_nothing(self):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(CollectionCancelled):
            characterize_suite(SUITE[:3], tiny_config(), workers=2, cancel=cancel)


class TestPoolResults:
    def test_pool_results_equal_serial_field_by_field(self):
        config = replace(
            tiny_config(),
            faults=FaultPlan(seed=5, crash=0.15, straggler=0.1, hdfs_read=0.1),
        )
        serial = characterize_suite(SUITE[:2], config, workers=1)
        collection._MEMO.clear()
        parallel = characterize_suite(SUITE[:2], config, workers=2)

        for eager, whole in zip(
            serial.characterizations, parallel.characterizations
        ):
            assert type(whole) is type(eager)
            assert whole.name == eager.name
            assert whole.metrics == eager.metrics
            assert whole.per_slave == eager.per_slave
            assert whole.attempts == eager.attempts
            assert whole.faults == eager.faults
            assert whole.faults is not None  # the plan was in force
            assert whole.run.checks == eager.run.checks
            assert whole.run.output_records == eager.run.output_records
            assert whole.run.trace.records == eager.run.trace.records

    def test_store_backed_collection_writes_each_object_once(
        self, tmp_path, monkeypatch
    ):
        """Workers write the workload objects; the parent writes only
        the suite entry.  Forked workers inherit the patched class, and
        every call appends one line to a shared log."""
        log = tmp_path / "calls.log"

        def logged(name):
            method = getattr(ResultStore, name)

            def wrapper(self, key, *args):
                with open(log, "a") as handle:
                    handle.write(f"{name} {key}\n")
                return method(self, key, *args)

            return wrapper

        for name in ("put", "put_object"):
            monkeypatch.setattr(ResultStore, name, logged(name))
        config = tiny_config()
        characterize_suite(
            SUITE[:3], config, cache_dir=tmp_path / "store", workers=2
        )

        calls = sorted(log.read_text().splitlines())
        objects = sorted(
            f"put_object {workload_store_key(config, w.name)}"
            for w in SUITE[:3]
        )
        suite = f"put {collection.suite_store_key(config, SUITE[:3])}"
        assert calls == sorted(objects + [suite])

    def test_cache_less_collection_makes_no_spill_directory(self, tmp_path):
        """Run in a fresh interpreter so no earlier collection in this
        process can have made the directory already, and list TMPDIR
        before that interpreter exits."""
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        script = (
            "import os\n"
            "from repro.cluster.collection import CollectionConfig, characterize_suite\n"
            "from repro.cluster.testbed import MeasurementConfig\n"
            "from repro.workloads.suite import SUITE\n"
            "config = CollectionConfig(scale=0.2, seed=7,\n"
            "    measurement=MeasurementConfig(slaves_measured=1, active_cores=2,\n"
            "                                  ops_per_core=1200))\n"
            "characterize_suite(SUITE[:2], config, workers=2)\n"
            f"print(sorted(os.listdir({str(tmpdir)!r})))\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
            "TMPDIR": str(tmpdir),
        }
        env.pop("REPRO_CACHE_DIR", None)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_parallel_payloads_land_in_cache_dir(self, tmp_path):
        """With a persistent store configured, the workers' object files
        double as persistence: a cold process-level cache hit must
        hydrate the exact parallel matrix."""
        config = tiny_config()
        parallel = characterize_suite(
            SUITE[:2], config, cache_dir=tmp_path, workers=2
        )
        store = ResultStore(tmp_path)
        for workload in SUITE[:2]:
            assert store.get(workload_store_key(config, workload.name))

        collection._MEMO.clear()
        hydrated = characterize_suite(
            SUITE[:2], config, cache_dir=tmp_path, workers=1
        )
        assert np.array_equal(
            hydrated.matrix.values, parallel.matrix.values
        )


class TestPoolIdentity:
    def test_same_config_reuses_pool(self):
        characterize_suite(SUITE[:2], tiny_config(), workers=2)
        first = dict(pool_mod._POOLS)
        collection._MEMO.clear()
        characterize_suite(SUITE[2:4], tiny_config(), workers=2)
        assert dict(pool_mod._POOLS) == first

    def test_config_change_replaces_pool(self):
        characterize_suite(SUITE[:2], tiny_config(), workers=2)
        (old_key,) = pool_mod._POOLS
        old_pool = pool_mod._POOLS[old_key]
        other = CollectionConfig(scale=0.25, seed=7, measurement=TINY)
        characterize_suite(SUITE[:2], other, workers=2)
        assert old_pool.closed
        (new_key,) = pool_mod._POOLS
        assert new_key != old_key


class TestTwoPhasePut:
    def test_adopt_requires_matching_object(self, tmp_path):
        store = ResultStore(tmp_path)
        digest, nbytes = store.put_object("two-phase", {"kind": "x", "v": 1})
        assert store.get("two-phase") is None  # written but not indexed
        store.adopt("two-phase", digest, nbytes)
        assert store.get("two-phase")["v"] == 1

    def test_adopt_rejects_bad_digest(self, tmp_path):
        store = ResultStore(tmp_path)
        digest, nbytes = store.put_object("two-phase", {"kind": "x"})
        with pytest.raises(StoreError, match="hash mismatch"):
            store.adopt("two-phase", "0" * 64, nbytes)

    def test_adopt_missing_object_fails_loudly(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(StoreError, match="no object file"):
            store.adopt("never-written", "0" * 64, 1)
