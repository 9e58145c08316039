"""Tests for the single-flight job manager."""

import threading

import pytest

from repro.cluster.collection import CollectionConfig, collection_runs
from repro.cluster.testbed import MeasurementConfig
from repro.errors import CollectionCancelled, ServiceError
from repro.service import jobs as jobs_module
from repro.service.jobs import JobManager, JobState
from repro.service.store import ResultStore

#: Tiny-but-real protocol so job tests run in seconds.
FAST = CollectionConfig(
    scale=0.2,
    seed=11,
    measurement=MeasurementConfig(
        slaves_measured=1, active_cores=2, ops_per_core=1000, perf_repeats=2
    ),
)


@pytest.fixture()
def manager(tmp_path):
    manager = JobManager(ResultStore(tmp_path), config=FAST)
    yield manager
    manager.shutdown()


def test_job_completes_with_progress_and_etag(manager):
    job = manager.collect(("H-Grep", "S-Grep"), timeout=120)
    assert job.state is JobState.DONE
    assert job.done_workloads == job.total_workloads == 2
    assert job.etag == manager.store.etag(job.key)
    assert job.etag is not None
    assert job.finished_s is not None
    snapshot = job.snapshot()
    assert snapshot["state"] == "done"
    assert snapshot["progress"] == {"done": 2, "total": 2}


def test_single_flight_concurrent_submits_share_one_job(manager):
    """N concurrent identical requests -> one job, one collection run."""
    runs_before = collection_runs()
    results: list = [None] * 8
    barrier = threading.Barrier(8)

    def submit(i: int) -> None:
        barrier.wait()
        job = manager.submit(("H-Sort", "S-Sort"))
        job.wait(120)
        results[i] = job

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert all(job is results[0] for job in results)
    assert results[0].state is JobState.DONE
    assert collection_runs() - runs_before == 1


def test_completed_job_is_not_reused_but_store_is(manager):
    first = manager.collect(("H-Grep",), timeout=120)
    second = manager.collect(("H-Grep",), timeout=120)
    assert second.id != first.id  # single-flight window closed
    assert second.etag == first.etag  # but the store served the result
    assert second.state is JobState.DONE


def test_unknown_workload_rejected(manager):
    with pytest.raises(ServiceError, match="unknown workload"):
        manager.submit(("H-DoesNotExist",))
    with pytest.raises(ServiceError, match="at least one"):
        manager.submit(())


def test_failed_job_reports_error(manager, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("engines on fire")

    monkeypatch.setattr(jobs_module, "characterize_suite", explode)
    job = manager.collect(("H-Grep", "S-Grep"), timeout=30)
    assert job.state is JobState.FAILED
    assert "engines on fire" in job.error
    assert job.etag is None


def test_cancellation_is_cooperative(manager, monkeypatch):
    started = threading.Event()

    def slow_collection(workloads, config, cancel=None, **kwargs):
        started.set()
        assert cancel.wait(30), "cancel event never arrived"
        raise CollectionCancelled("suite collection cancelled")

    monkeypatch.setattr(jobs_module, "characterize_suite", slow_collection)
    job = manager.submit(("H-Grep", "S-Grep"))
    assert started.wait(30)
    assert manager.cancel(job.id) is True
    assert job.wait(30)
    assert job.state is JobState.CANCELLED
    # A terminal job cannot be cancelled again.
    assert manager.cancel(job.id) is False


def test_cancel_unknown_job(manager):
    assert manager.cancel("job-999999") is False
    assert manager.get("job-999999") is None


def test_snapshot_reports_attempts_and_faults(manager):
    job = manager.collect(("H-Grep",), timeout=120)
    snapshot = job.snapshot()
    assert snapshot["attempts"] == 1
    assert snapshot["faults"] is None  # fault-free configuration


def test_transient_failure_is_retried_with_backoff(tmp_path, monkeypatch):
    from repro.cluster.collection import characterize_suite as real_suite

    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] < 3:
            raise RuntimeError("transient engine failure")
        return real_suite(*args, **kwargs)

    monkeypatch.setattr(jobs_module, "characterize_suite", flaky)
    monkeypatch.setattr(jobs_module, "MAX_ATTEMPTS", 3)
    monkeypatch.setattr(jobs_module, "RETRY_BACKOFF_S", 0.01)
    manager = JobManager(ResultStore(tmp_path), config=FAST)
    try:
        job = manager.collect(("H-Grep",), timeout=120)
        assert job.state is JobState.DONE
        assert job.attempts == 3
        assert job.error is None
        assert job.snapshot()["attempts"] == 3
    finally:
        manager.shutdown()


def test_exhausted_retries_fail_the_job(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("permanent failure")

    monkeypatch.setattr(jobs_module, "characterize_suite", explode)
    monkeypatch.setattr(jobs_module, "MAX_ATTEMPTS", 2)
    monkeypatch.setattr(jobs_module, "RETRY_BACKOFF_S", 0.01)
    manager = JobManager(ResultStore(tmp_path), config=FAST)
    try:
        job = manager.collect(("H-Grep",), timeout=30)
        assert job.state is JobState.FAILED
        assert job.attempts == 2
        assert "permanent failure" in job.error
    finally:
        manager.shutdown()


def test_faulted_collection_surfaces_a_tally(tmp_path):
    from repro.faults import FaultPlan

    config = CollectionConfig(
        scale=0.2,
        seed=13,
        measurement=FAST.measurement,
        faults=FaultPlan(seed=11, crash=0.15, straggler=0.3, hdfs_read=0.1),
    )
    manager = JobManager(ResultStore(tmp_path), config=config)
    try:
        job = manager.collect(("H-WordCount", "S-Sort"), timeout=120)
        assert job.state is JobState.DONE
        assert job.faults is not None
        assert job.faults["total_injected"] > 0
        snapshot = job.snapshot()
        assert snapshot["faults"]["workload_attempts"] >= 2
    finally:
        manager.shutdown()


def test_real_collection_honors_cancel_event():
    """The collection layer itself stops between workloads when cancelled."""
    from repro.cluster.collection import characterize_suite
    from repro.workloads import workload_by_name

    cancel = threading.Event()
    cancel.set()
    config = CollectionConfig(
        scale=0.2,
        seed=987654,  # a key no other test memoises
        measurement=FAST.measurement,
    )
    with pytest.raises(CollectionCancelled):
        characterize_suite(
            (workload_by_name("H-Grep"),), config, cancel=cancel
        )
