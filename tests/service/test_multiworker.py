"""Two workers, one store: the cross-worker coordination contracts.

These tests run two :class:`JobManager`/service instances over a single
shared cache directory — the same topology as two pre-fork server
processes, but in-process so every interleaving can be forced
deterministically (claims held at exactly the right moment, cancel
markers dropped mid-run).  The true multi-*process* path is covered by
``test_supervisor.py``.
"""

import threading
import time
import urllib.request

import pytest

from repro.cluster.collection import (
    CollectionConfig,
    collection_runs,
    suite_store_key,
)
from repro.cluster.testbed import MeasurementConfig
from repro.service.claims import ClaimRegistry
from repro.service.jobs import JobManager, JobState
from repro.service.server import ServiceConfig, serve
from repro.service.store import ResultStore
from repro.workloads.suite import SUITE, workload_by_name

FAST = CollectionConfig(
    scale=0.2,
    seed=19,
    measurement=MeasurementConfig(
        slaves_measured=1, active_cores=2, ops_per_core=1000, perf_repeats=2
    ),
)

NAMES = ("H-Grep", "S-Grep")


def _key(names=NAMES) -> str:
    return suite_store_key(FAST, tuple(workload_by_name(n) for n in names))


@pytest.fixture()
def pair(tmp_path):
    """Two managers with distinct instance tokens sharing one store."""
    a = JobManager(ResultStore(tmp_path), config=FAST, instance="wa")
    b = JobManager(ResultStore(tmp_path), config=FAST, instance="wb")
    yield a, b
    a.shutdown()
    b.shutdown()


def _await_sibling(job) -> None:
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if any(e["event"] == "awaiting-sibling" for e in job.events):
            return
        time.sleep(0.02)
    pytest.fail("job never reported awaiting-sibling")


def test_sibling_claim_blocks_then_job_proceeds(pair, tmp_path):
    """A job whose key a sibling has claimed waits (visible as an
    ``awaiting-sibling`` event) and proceeds once the claim clears —
    with exactly one collection run journaled."""
    a, b = pair
    claim = ClaimRegistry(tmp_path).lock(_key())
    claim.acquire(timeout=0)

    job = a.submit(NAMES)
    _await_sibling(job)
    assert job.state in (JobState.QUEUED, JobState.RUNNING)

    claim.release()  # "sibling" finishes without a result
    assert job.wait(120.0)
    assert job.state is JobState.DONE
    registry = ClaimRegistry(tmp_path)
    # At most one journaled run (zero when the in-process suite memo
    # already had the key), and never a duplicate.
    assert len(registry.runs()) <= 1
    assert registry.duplicate_runs() == {}


def test_second_worker_hydrates_instead_of_rerunning(pair, tmp_path):
    """Worker B asking for a key worker A already collected must be a
    pure store hydration: no second engine run, same etag."""
    a, b = pair
    first = a.collect(NAMES, timeout=120.0)
    assert first.state is JobState.DONE
    runs_before = collection_runs()

    second = b.collect(NAMES, timeout=120.0)
    assert second.state is JobState.DONE
    assert second.etag == first.etag
    assert collection_runs() == runs_before  # hydrated, not re-run
    registry = ClaimRegistry(tmp_path)
    assert all(run["key"] == _key() for run in registry.runs())
    assert len(registry.runs()) <= 1
    assert registry.duplicate_runs() == {}


def test_shared_snapshots_and_merged_listing(pair):
    """Each worker sees the other's jobs through the snapshot dir."""
    a, b = pair
    job_a = a.collect(NAMES, timeout=120.0)
    job_b = b.collect(("H-Sort",), timeout=120.0)

    # Cross-worker lookup: B serves A's job from the shared snapshot.
    seen_by_b = b.load_shared(job_a.id)
    assert seen_by_b is not None
    assert seen_by_b["state"] == "done"
    assert seen_by_b["etag"] == job_a.etag
    assert b.get(job_a.id) is None  # and it is genuinely not local

    merged_a = {s["id"] for s in a.shared_jobs()}
    merged_b = {s["id"] for s in b.shared_jobs()}
    assert {job_a.id, job_b.id} <= merged_a
    assert merged_a == merged_b


def test_job_ids_never_collide_across_workers(pair):
    a, b = pair
    job_a = a.submit(NAMES)
    job_b = b.submit(NAMES)  # same key, different worker
    assert job_a.id != job_b.id
    assert job_a.id.startswith("job-wa-")
    assert job_b.id.startswith("job-wb-")
    job_a.wait(120.0)
    job_b.wait(120.0)


def test_cross_worker_cancel_via_marker(pair):
    """B cancels A's running job by dropping a cancel marker; A honours
    it at its next lifecycle event (the cooperative-cancel contract)."""
    a, b = pair
    job = a.submit(tuple(w.name for w in SUITE[:4]))
    assert b.get(job.id) is None
    assert b.request_shared_cancel(job.id) is True
    assert job.wait(120.0)
    assert job.state is JobState.CANCELLED
    # The terminal snapshot is visible to both sides.
    assert b.load_shared(job.id)["state"] == "cancelled"
    # Cancelling a terminal job reports not-live.
    assert b.request_shared_cancel(job.id) is False


def test_cross_worker_cancel_reaches_a_job_awaiting_a_claim(pair, tmp_path):
    """B's cancel marker reaches A's job while it waits on a sibling's
    claim: the job is cancelled within 2 s and never collects."""
    a, b = pair
    claim = ClaimRegistry(tmp_path).lock(_key())
    claim.acquire(timeout=0)
    try:
        job = a.submit(NAMES)
        _await_sibling(job)
        assert b.request_shared_cancel(job.id) is True
        assert job.wait(2.0)
        assert job.state is JobState.CANCELLED
    finally:
        claim.release()
    assert ClaimRegistry(tmp_path).runs() == []


def test_http_plane_serves_sibling_jobs(tmp_path):
    """Two HTTP servers over one store: jobs submitted through one are
    visible — snapshot, listing, and SSE replay — through the other."""
    shared = str(tmp_path / "store")
    configs = [
        ServiceConfig(
            collection=FAST, workloads=SUITE[:2], cache_dir=shared
        )
        for _ in range(2)
    ]
    servers = [serve(config, port=0) for config in configs]
    # Distinct instance tokens even within one pid.
    assert servers[0].service.jobs.instance != servers[1].service.jobs.instance
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    urls = [
        f"http://127.0.0.1:{server.server_address[1]}" for server in servers
    ]
    try:
        from repro.service.client import ServiceClient

        owner = ServiceClient(urls[0])
        snapshot = owner.characterize(SUITE[0].name, wait=False)
        job_id = snapshot["id"]
        final = owner.wait_for_job(job_id, timeout=120.0)
        assert final["state"] == "done"

        sibling = ServiceClient(urls[1])
        # Snapshot through the sibling worker.
        assert sibling.job(job_id)["state"] == "done"
        # Merged listing through the sibling worker.
        assert job_id in {j["id"] for j in sibling.jobs()}
        # SSE replay through the sibling worker: full event history and
        # a clean end-of-stream, served from the snapshot file.
        with urllib.request.urlopen(
            f"{urls[1]}/jobs/{job_id}/events", timeout=30.0
        ) as stream:
            body = stream.read().decode("utf-8")
        assert "event: end-of-stream" in body
        assert "event: done" in body  # terminal lifecycle event replayed
    finally:
        for server in servers:
            server.shutdown()
            server.service.close()
