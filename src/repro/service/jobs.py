"""Thread-based collection jobs with single-flight deduplication.

The job manager is the only component that *computes* on behalf of the
HTTP service: every endpoint that may need a collection submits a job
and waits (or polls).  Concurrent identical requests — same
:meth:`CollectionConfig.cache_key` and workload-set digest — share one
job, which runs one collection fanned over the existing ``workers``
process pool and lands one set of store entries; every waiter then
serves the same bytes.  This is what keeps a stampede of cold
``/characterize`` requests from launching N engine runs.

Job lifecycle::

    queued ──▶ running ──▶ done
       │          │  └────▶ failed
       └──────────┴───────▶ cancelled

Cancellation is cooperative: the collection checks the job's cancel
event between workloads, so an in-flight workload finishes but no new
one starts.

Cross-process behaviour (the pre-fork service plane): job ids embed a
per-manager instance token so ids never collide across workers; every
lifecycle event persists the job's snapshot to ``<store root>/jobs/``
(atomic writes), so any sibling worker can serve ``/jobs/<id>`` and
replay ``/jobs/<id>/events`` for a job it does not own; and a job
*collects* only while it holds the key's cross-process claim, a
:class:`~repro.service.locking.FileLock` (:mod:`repro.service.claims`).
Losers poll the lock, still honouring local cancels and siblings'
cancel markers, and once they hold it hydrate the winner's stored
result, so two workers never run the same characterization.
"""

from __future__ import annotations

import enum
import os
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.collection import (
    CollectionConfig,
    characterize_suite,
    collection_runs,
    suite_store_key,
)
from repro.durable import read_json, state_files, write_json
from repro.errors import CollectionCancelled, ServiceError, StoreError
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer, span as obs_span, tracing
from repro.service.claims import ClaimRegistry
from repro.service.locking import FileLock
from repro.service.store import ResultStore
from repro.workloads.base import Workload
from repro.workloads.suite import workload_by_name

__all__ = ["JobState", "Job", "JobManager"]

_log = get_logger("repro.service.jobs")

_JOBS_SUBMITTED = REGISTRY.counter(
    "repro_jobs_submitted_total", "Collection jobs created by the manager"
)
_JOBS_DEDUPED = REGISTRY.counter(
    "repro_jobs_deduplicated_total",
    "Submissions that attached to a live identical job (single-flight)",
)
_JOBS_COMPLETED = REGISTRY.counter(
    "repro_jobs_completed_total",
    "Jobs reaching a terminal state, by final state",
    ("state",),
)
# Each worker owns its live jobs outright, so the fleet-wide value is
# the sum of the per-process values (see repro.obs.fleet).
_JOBS_LIVE = REGISTRY.gauge(
    "repro_jobs_live", "Jobs currently queued or running", aggregation="sum"
)
_JOB_SECONDS = REGISTRY.histogram(
    "repro_job_duration_seconds",
    "Wall time from job creation to its terminal state",
)
_CLAIMS_ACQUIRED = REGISTRY.counter(
    "repro_claims_acquired_total",
    "Cross-process collection claims successfully acquired",
)
_CLAIMS_WAITED = REGISTRY.counter(
    "repro_claims_waited_total",
    "Claim acquisitions that found a sibling's claim and waited",
)

#: Distinct jobs allowed to collect at once; further jobs queue.
MAX_CONCURRENT_JOBS = 2
#: Collection attempts per job before it is declared failed.
MAX_ATTEMPTS = 3
#: Backoff before a job's first retry; doubles per further attempt.
#: Cancellation interrupts it.
RETRY_BACKOFF_S = 0.05
#: Poll cadence of a job waiting on a sibling's claim.
_CLAIM_POLL_S = 0.05


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

#: States from which a job can still make progress (single-flight window).
_LIVE = (JobState.QUEUED, JobState.RUNNING)


def _fault_tally(characterizations) -> dict | None:
    """Aggregate the per-workload fault/recovery stats of one collection.

    Returns ``None`` when no workload ran under a fault plan (the
    fault-free service configuration), so the job snapshot stays clean.
    """
    tallies = [c.faults for c in characterizations if c.faults is not None]
    if not tallies:
        return None
    injected: dict[str, int] = {}
    for tally in tallies:
        for kind, count in tally.get("injected", {}).items():
            injected[kind] = injected.get(kind, 0) + count
    return {
        "injected": injected,
        "total_injected": sum(injected.values()),
        "task_retries": sum(t.get("task_retries", 0) for t in tallies),
        "speculative_tasks": sum(t.get("speculative_tasks", 0) for t in tallies),
        "rescheduled_tasks": sum(t.get("rescheduled_tasks", 0) for t in tallies),
        "lost_nodes": sorted(
            {node for t in tallies for node in t.get("lost_nodes", ())}
        ),
        "backoff_s": float(sum(t.get("backoff_s", 0.0) for t in tallies)),
        "workload_attempts": int(
            sum(c.attempts for c in characterizations)
        ),
    }


@dataclass
class Job:
    """One collection request and its observable state.

    All mutation happens under the manager's lock; readers get
    consistent snapshots through :meth:`snapshot`.
    """

    id: str
    key: str
    workloads: tuple[str, ...]
    state: JobState = JobState.QUEUED
    done_workloads: int = 0
    total_workloads: int = 0
    #: Collection attempts this job has made (1 on a clean first pass;
    #: climbs when the manager retries a failed collection with backoff).
    attempts: int = 0
    #: Aggregate fault/recovery tally across the collected workloads when
    #: the collection ran under a fault plan, else ``None``.
    faults: dict | None = None
    error: str | None = None
    etag: str | None = None
    created_s: float = field(default_factory=time.time)
    finished_s: float | None = None
    #: Lifecycle flight log: state transitions and retries, in order,
    #: each ``{"t_s": <unix time>, "event": ..., **detail}``.
    events: list = field(default_factory=list)
    #: Client correlation ids attached to this job (the submitter's plus
    #: any that joined through single-flight deduplication) — propagated
    #: into the job's trace span for client→server→job correlation.
    correlations: list = field(default_factory=list)
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    _cancel: threading.Event = field(default_factory=threading.Event, repr=False)
    #: Set by the manager: persists the snapshot for sibling workers
    #: (and polls their cancel markers) after every lifecycle event.
    _on_note: object = field(default=None, repr=False)

    def note(self, event: str, **detail) -> None:
        """Append one lifecycle event (caller holds the manager lock or
        is the single worker thread driving this job)."""
        self.events.append({"t_s": round(time.time(), 3), "event": event, **detail})
        if self._on_note is not None:
            self._on_note(self)

    def snapshot(self) -> dict:
        """A JSON-safe view of the job (what ``/jobs/<id>`` serves)."""
        return {
            "id": self.id,
            "key": self.key,
            "workloads": list(self.workloads),
            "state": self.state.value,
            "progress": {
                "done": self.done_workloads,
                "total": self.total_workloads,
            },
            "attempts": self.attempts,
            "faults": self.faults,
            "error": self.error,
            "etag": self.etag,
            "created_s": self.created_s,
            "finished_s": self.finished_s,
            "correlations": list(self.correlations),
            "events": [dict(event) for event in self.events],
        }

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)


class JobManager:
    """Runs collections on worker threads, deduplicating identical requests.

    Args:
        store: The persistent result store jobs write into.
        config: Collection parameters every job uses (the service's
            measurement protocol).
        workers: Process fan-out *within* one collection (passed through
            to :func:`characterize_suite`).
        tracer: Optional service tracer; each job's run is recorded as a
            ``job:<id>`` span carrying the attached correlation ids.
            Explicitly activated on the worker thread — ContextVars do
            not cross thread boundaries on their own.
        instance: Short token embedded in every job id so ids from
            sibling worker processes never collide (default: pid plus
            random suffix).
    """

    def __init__(
        self,
        store: ResultStore,
        config: CollectionConfig | None = None,
        workers: int = 1,
        tracer: Tracer | None = None,
        instance: str | None = None,
    ) -> None:
        self.store = store
        self.config = config or CollectionConfig()
        self.workers = workers
        self.tracer = tracer
        self.instance = instance or f"{os.getpid():x}-{uuid.uuid4().hex[:4]}"
        self.claims = ClaimRegistry(store.root)
        #: Shared snapshot directory: any sibling worker sharing the
        #: store can serve (and follow) this manager's jobs from here.
        self.shared_dir = Path(store.root) / "jobs"
        self.shared_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, Job] = {}
        self._counter = 0
        self._executor = ThreadPoolExecutor(
            max_workers=MAX_CONCURRENT_JOBS, thread_name_prefix="repro-job"
        )

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        workload_names: tuple[str, ...],
        correlation_id: str | None = None,
    ) -> Job:
        """Request a collection of ``workload_names`` (single-flight).

        If a live job for the same key exists, it is returned instead of
        creating a second one — the caller shares its result (a
        ``correlation_id`` still attaches, so the joining client's id is
        visible on the shared job and its span).

        Raises:
            ServiceError: If ``workload_names`` is empty or contains an
                unknown label.
        """
        if not workload_names:
            raise ServiceError("a job needs at least one workload")
        try:
            workloads: tuple[Workload, ...] = tuple(
                workload_by_name(name) for name in workload_names
            )
        except Exception as exc:
            raise ServiceError(str(exc)) from exc
        key = suite_store_key(self.config, workloads)
        with self._lock:
            live = self._by_key.get(key)
            if live is not None and live.state in _LIVE:
                _JOBS_DEDUPED.inc()
                if correlation_id and correlation_id not in live.correlations:
                    live.correlations.append(correlation_id)
                    live.note("correlation-attached", correlation=correlation_id)
                _log.debug(
                    "submission joined live job",
                    extra={"job": live.id, "key": key},
                )
                return live
            self._counter += 1
            job = Job(
                id=f"job-{self.instance}-{self._counter:06d}",
                key=key,
                workloads=tuple(w.name for w in workloads),
                total_workloads=len(workloads),
            )
            job._on_note = self._persist_snapshot
            if correlation_id:
                job.correlations.append(correlation_id)
                job.note("queued", correlation=correlation_id)
            else:
                job.note("queued")
            self._jobs[job.id] = job
            self._by_key[key] = job
        _JOBS_SUBMITTED.inc()
        _JOBS_LIVE.inc()
        _log.info(
            "job submitted",
            extra={"job": job.id, "workloads": len(workloads), "key": key},
        )
        self._executor.submit(self._run, job, workloads)
        return job

    def collect(
        self,
        workload_names: tuple[str, ...],
        timeout: float | None = None,
        correlation_id: str | None = None,
    ) -> Job:
        """Submit and block until the job is terminal.

        Raises:
            ServiceError: If the job does not finish within ``timeout``.
        """
        job = self.submit(workload_names, correlation_id=correlation_id)
        if not job.wait(timeout):
            raise ServiceError(f"{job.id}: timed out after {timeout}s")
        return job

    # -- queries --------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> tuple[Job, ...]:
        with self._lock:
            return tuple(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; returns whether the job was still live."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state not in _LIVE:
                return False
            job._cancel.set()
        return True

    # -- shared snapshots (cross-worker job visibility) ------------------------

    def _snapshot_path(self, job_id: str) -> Path:
        return self.shared_dir / f"{job_id}.json"

    def _cancel_marker(self, job_id: str) -> Path:
        return self.shared_dir / f"{job_id}.cancel"

    def _persist_snapshot(self, job: Job) -> None:
        """Write the job's snapshot for sibling workers (atomic), and
        honor any cancel marker a sibling left for it."""
        try:
            write_json(self._snapshot_path(job.id), job.snapshot())
        except OSError:  # pragma: no cover - snapshot loss is non-fatal
            _log.warning("failed to persist job snapshot", extra={"job": job.id})
        if job.state in _LIVE and self._cancel_marker(job.id).exists():
            job._cancel.set()

    def load_shared(self, job_id: str) -> dict | None:
        """A job snapshot persisted by this or a *sibling* worker.

        Local jobs answer from memory (authoritative); everything else
        reads the shared snapshot directory.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None:
            return job.snapshot()
        return read_json(self._snapshot_path(job_id))

    def shared_jobs(self) -> list[dict]:
        """Every snapshot in the shared directory (all workers' jobs),
        with this manager's in-memory state overriding its own files."""
        snapshots: dict[str, dict] = {}
        for path in state_files(self.shared_dir, "job-*.json"):
            snapshot = read_json(path)
            if snapshot is not None and "id" in snapshot:
                snapshots[snapshot["id"]] = snapshot
        with self._lock:
            for job in self._jobs.values():
                snapshots[job.id] = job.snapshot()
        ordered = sorted(
            snapshots.values(), key=lambda s: (s.get("created_s", 0.0), s["id"])
        )
        return ordered

    def request_shared_cancel(self, job_id: str) -> bool:
        """Ask the (possibly sibling) owner of ``job_id`` to cancel.

        Local live jobs cancel immediately; for a sibling's job a cancel
        marker is left next to its snapshot — the owner polls it on its
        next lifecycle event (i.e. between workloads, matching the
        cooperative-cancel contract) and on each poll of a sibling's
        claim.  Returns whether the job was still live when asked.
        """
        if self.cancel(job_id):
            return True
        snapshot = self.load_shared(job_id)
        if snapshot is None or snapshot.get("state") not in (
            JobState.QUEUED.value,
            JobState.RUNNING.value,
        ):
            return False
        try:
            self._cancel_marker(job_id).touch()
        except OSError:  # pragma: no cover - defensive
            return False
        return True

    def shutdown(self) -> None:
        """Cancel live jobs and stop the worker threads."""
        with self._lock:
            for job in self._jobs.values():
                if job.state in _LIVE:
                    job._cancel.set()
        self._executor.shutdown(wait=True, cancel_futures=True)

    # -- worker ---------------------------------------------------------------

    def _run(self, job: Job, workloads: tuple[Workload, ...]) -> None:
        # ContextVars do not propagate into executor threads: the
        # service tracer must be explicitly activated here so the job's
        # span (and everything the collection records) lands in it.
        try:
            with tracing(self.tracer), obs_span(
                f"job:{job.id}", "job",
                workloads=len(workloads),
                correlations=list(job.correlations),
            ):
                self._run_traced(job, workloads)
        finally:
            # Release waiters only once the job span above has closed:
            # a blocked characterize response must never beat the job's
            # own trace event into the flight recorder.
            job._done.set()

    def _claim_or_wait(self, job: Job) -> FileLock | None:
        """Hold ``job.key``'s cross-process claim, waiting a sibling out.

        Returns the held lock (the caller releases it), or ``None`` when
        the job is cancelled while waiting, here or through a sibling's
        cancel marker.  A sibling that finished the key meanwhile left
        its result in the store, so the collection run under the lock
        hydrates it instead of running engines.
        """
        lock = self.claims.lock(job.key)
        waited = False
        while True:
            try:
                lock.acquire(timeout=0)
            except StoreError:
                pass
            else:
                _CLAIMS_ACQUIRED.inc()
                return lock
            if not waited:
                _CLAIMS_WAITED.inc()
                job.note("awaiting-sibling")
                _log.info(
                    "waiting on sibling's claim",
                    extra={"job": job.id, "key": job.key},
                )
                waited = True
            if self._cancel_marker(job.id).exists():
                job._cancel.set()
            if job._cancel.wait(_CLAIM_POLL_S):
                return None

    def _run_traced(self, job: Job, workloads: tuple[Workload, ...]) -> None:
        with self._lock:
            if job._cancel.is_set():
                self._finish(job, JobState.CANCELLED)
                return
            job.state = JobState.RUNNING
            job.note("running")

        claim = self._claim_or_wait(job)
        if claim is None:
            with self._lock:
                self._finish(job, JobState.CANCELLED)
            return

        def progress(done: int, total: int) -> None:
            job.done_workloads = done
            job.total_workloads = total
            job.note("progress", done=done, total=total)

        def on_workload(characterization) -> None:
            detail: dict = {"workload": characterization.name}
            if characterization.timeline is not None:
                timeline = characterization.timeline
                detail["timeline"] = {
                    "samples": len(timeline),
                    "duration_ms": timeline.duration_ms,
                    "ramp_up_ms": round(timeline.ramp_up_ms, 3),
                    "rates": timeline.steady_state_rates(),
                }
            job.note("workload-done", **detail)

        try:
            while True:
                job.attempts += 1
                runs_before = collection_runs()
                try:
                    result = characterize_suite(
                        workloads,
                        self.config,
                        cache_dir=self.store.root,
                        workers=self.workers,
                        progress=progress,
                        cancel=job._cancel,
                        on_workload=on_workload,
                        # First correlation wins the pool-worker spans:
                        # it joins client -> job -> pool lanes end-to-end
                        # in the merged fleet trace.
                        correlation_id=(
                            job.correlations[0] if job.correlations else None
                        ),
                    )
                except CollectionCancelled:
                    with self._lock:
                        self._finish(job, JobState.CANCELLED)
                    return
                except Exception as exc:  # a failed job must never kill its thread
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.note("attempt-failed", attempt=job.attempts, error=job.error)
                    if job.attempts >= MAX_ATTEMPTS:
                        _log.error(
                            "job failed",
                            extra={"job": job.id, "attempts": job.attempts,
                                   "error": job.error},
                        )
                        with self._lock:
                            self._finish(job, JobState.FAILED)
                        return
                    # Exponential backoff, interruptible by cancellation.
                    backoff = RETRY_BACKOFF_S * 2 ** (job.attempts - 1)
                    _log.warning(
                        "job attempt failed, retrying",
                        extra={"job": job.id, "attempt": job.attempts,
                               "backoff_s": backoff, "error": job.error},
                    )
                    job.note("retrying", attempt=job.attempts, backoff_s=backoff)
                    if job._cancel.wait(backoff):
                        with self._lock:
                            self._finish(job, JobState.CANCELLED)
                        return
                else:
                    if collection_runs() > runs_before:
                        # This process actually ran engines (not a memo or
                        # store hydration): journal it so duplicate
                        # characterizations across the fleet are visible.
                        self.claims.record_run(job.key)
                    with self._lock:
                        job.done_workloads = job.total_workloads
                        if not any(e["event"] == "progress" for e in job.events):
                            # Memo/store hit: the collection skipped the
                            # per-workload callbacks, but every job stream
                            # still delivers submit → progress → done.
                            job.note(
                                "progress",
                                done=job.total_workloads,
                                total=job.total_workloads,
                            )
                        job.error = None
                        job.etag = self.store.etag(job.key)
                        job.faults = _fault_tally(result.characterizations)
                        self._finish(job, JobState.DONE)
                    return
        finally:
            claim.release()

    def _finish(self, job: Job, state: JobState) -> None:
        """Terminal transition (caller holds the lock)."""
        job.state = state
        job.finished_s = time.time()
        job.note(state.value)
        _JOBS_COMPLETED.inc(state=state.value)
        _JOBS_LIVE.dec()
        _JOB_SECONDS.observe(job.finished_s - job.created_s)
        _log.info(
            "job finished",
            extra={"job": job.id, "state": state.value,
                   "duration_s": round(job.finished_s - job.created_s, 3)},
        )
        if self._by_key.get(job.key) is job:
            # Drop the single-flight registration: the next identical
            # request hits the memo/store fast path (or retries a
            # failure) instead of attaching to a dead job.
            del self._by_key[job.key]
        # NB: job._done is deliberately NOT set here — _run() signals it
        # after the job's tracer span exits, so waiters observe the span.
