"""Stdlib-only HTTP API over the characterization store and job manager.

``repro serve`` (or :func:`serve` programmatically) exposes the whole
reproduction as a JSON service::

    GET  /                      service info + endpoint table
    GET  /workloads             the suite's Table I metadata
    GET  /metrics               fleet-wide metrics (Prometheus text format)
    GET  /metrics/catalog       the 45 Table II metric specs
    GET  /stats                 runtime metrics + store/job state as JSON
    GET  /fleet                 per-worker liveness + merged fleet totals
    GET  /trace                 merged multi-process Chrome trace
    GET  /characterize/<name>   one workload's full characterization
    GET  /suite/matrix          the workload × metric matrix
    GET  /subset?k=K            K-means representative subset (Table V)
    GET  /subset?budget=S       budget-aware subset (S seconds of simulation)
    GET  /observations          the paper's Observations 1-9, scored
    GET  /jobs, /jobs/<id>      collection-job states and progress
    DELETE /jobs/<id>           cooperative cancellation

Serving model: endpoints that need data a cold store cannot provide
submit a job to the :class:`~repro.service.jobs.JobManager` and block
until it lands — single-flight deduplication means a stampede of
identical cold requests runs exactly one collection, and every waiter
then streams the *same stored bytes*.  Store-backed responses carry the
store's content hash as a strong ETag; conditional requests
(``If-None-Match``) short-circuit to 304 with no body.  Pass
``?wait=0`` to ``/characterize`` to get 202 + a job snapshot instead of
blocking.

Everything here is standard library (``http.server`` with
``ThreadingHTTPServer``); the service owns a thread pool only through
its job manager.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.cluster.collection import (
    CollectionConfig,
    characterize_suite,
    suite_store_key,
    workload_store_key,
)
from repro.core.subsetting import subset_workloads
from repro.errors import ReproError, ServiceError, WorkloadError
from repro.metrics.catalog import METRICS
from repro.obs.fleet import (
    DEFAULT_WINDOW_S,
    INTERVAL_S,
    MAX_WINDOW_S,
    TelemetryAgent,
    collect_fleet_profile,
    fleet_status,
    merge_store_traces,
    read_live,
    render_merged,
    request_profile,
)
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.prof import DEFAULT_INTERVAL_MS, collapsed_stacks
from repro.obs.trace import Tracer, span as obs_span, tracing
from repro.service.jobs import JobManager, JobState
from repro.service.store import ResultStore, resolve_cache_dir
from repro.workloads.base import Workload
from repro.workloads.suite import SUITE, closest_workloads, workload_by_name

__all__ = [
    "ServiceConfig",
    "CharacterizationService",
    "serve",
    "CORRELATION_HEADER",
]

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"
_HTML = "text/html; charset=utf-8"
_EVENT_STREAM = "text/event-stream"

#: Request header carrying the client's correlation id; propagated into
#: the server's request span and onto the job it submits/joins.
CORRELATION_HEADER = "X-Repro-Correlation-Id"

#: Ring bound of the service's tracer, which records request and job
#: spans (correlation ids land in span args); the newest spans win, so a
#: long-lived service cannot grow without bound.
_TRACE_CAPACITY = 8192

#: Seed of the K-means restarts behind ``/subset``, ``/observations`` and
#: ``/dashboard``.
_SUBSETTING_SEED = 0

#: Derived responses (matrix, subsets, observations, dashboard) kept for
#: the current suite etag; the least recently used goes first.
_DERIVED_CAPACITY = 64

_log = get_logger("repro.service.server")

_HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by endpoint (first path segment) and status",
    ("endpoint", "status"),
)
_HTTP_SECONDS = REGISTRY.histogram(
    "repro_http_request_seconds",
    "Wall time spent handling one HTTP request",
)


@dataclass(frozen=True)
class ServiceConfig:
    """What one service instance serves and how it collects it.

    Attributes:
        collection: Measurement protocol for every collection the
            service runs (scale, seed, slaves, cores, ops).
        workloads: The suite this instance serves (tests shrink it).
        cache_dir: Store root; ``None`` falls back to ``REPRO_CACHE_DIR``
            or a private temporary directory.
        workers: Process fan-out within one collection.
        request_timeout_s: How long a blocking endpoint waits for its
            job before giving up with 504; also the longest a job's
            event stream stays open.
    """

    collection: CollectionConfig = CollectionConfig()
    workloads: tuple[Workload, ...] = SUITE
    cache_dir: str | None = None
    workers: int = 1
    request_timeout_s: float = 600.0


class _HttpError(Exception):
    """Internal: mapped to an HTTP error response."""

    def __init__(self, status: int, message: str, extra: dict | None = None):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **(extra or {})}


@dataclass
class _Response:
    status: int
    body: bytes
    etag: str | None = None
    content_type: str = _JSON
    #: When set, ``body`` is ignored and the handler streams these byte
    #: chunks with ``Connection: close`` (the SSE path).
    stream: object | None = None


def _dumps(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _computed(payload, status: int = 200) -> _Response:
    """A deterministic JSON response with a body-derived ETag."""
    body = _dumps(payload)
    return _Response(status, body, etag=hashlib.sha256(body).hexdigest()[:32])


class CharacterizationService:
    """Endpoint logic, independent of the HTTP plumbing (unit-testable)."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        cache_dir = resolve_cache_dir(self.config.cache_dir)
        if cache_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-service-")
            cache_dir = self._tmp.name
        self.store = ResultStore(cache_dir)
        self.tracer = Tracer(max_events=_TRACE_CAPACITY)
        self.jobs = JobManager(
            self.store,
            config=self.config.collection,
            workers=self.config.workers,
            tracer=self.tracer,
        )
        self._lock = threading.Lock()
        self._derived: dict[tuple, _Response] = {}
        # Warm-path caches, all validated against the store's etag (one
        # stat() per request): the parsed suite entry and per-workload
        # characterization responses.  A sibling worker rewriting the
        # store invalidates them on the next request automatically.
        self._suite_cache: tuple[str, dict] | None = None
        self._char_cache: dict[str, tuple[str, _Response]] = {}
        # Fleet telemetry: this process's metric shard (and trace spill)
        # in the shared store, merged with the siblings' at scrape time,
        # and its answers to fleet-wide profile windows.  Started here,
        # while we may still be on the main thread, so the sampling
        # signals can be armed (else the profiler uses its thread clock).
        self.telemetry = TelemetryAgent(
            self.store.root,
            instance=f"server-{self.jobs.instance}",
            role="server",
            tracer=self.tracer,
        ).start()

    def close(self) -> None:
        self.jobs.shutdown()
        # Final shard write *after* the jobs wind down so the last
        # counters of this worker's life are scrapeable until staleness
        # retires the shard.
        self.telemetry.close()

    def _derived_get(self, key: tuple) -> _Response | None:
        with self._lock:
            response = self._derived.pop(key, None)
            if response is not None:
                self._derived[key] = response  # now the most recently used
        return response

    def _derived_put(self, key: tuple, response: _Response) -> None:
        """Cache ``response`` under ``key`` (``(kind, suite etag, ...)``),
        dropping every entry of another etag and the least recently used
        beyond :data:`_DERIVED_CAPACITY`."""
        with self._lock:
            for old in [k for k in self._derived if k[1] != key[1]]:
                del self._derived[old]
            self._derived[key] = response
            while len(self._derived) > _DERIVED_CAPACITY:
                del self._derived[next(iter(self._derived))]

    # -- routing --------------------------------------------------------------

    def handle_get(
        self,
        path: str,
        query: dict[str, list[str]],
        correlation_id: str | None = None,
    ) -> _Response:
        parts = [p for p in path.split("/") if p]
        if not parts:
            return self._info()
        if parts == ["workloads"]:
            return self._workloads()
        if parts == ["metrics"]:
            return self._runtime_metrics()
        if parts == ["metrics", "catalog"]:
            return self._metric_catalog()
        if parts == ["stats"]:
            return self._stats()
        if parts == ["fleet"]:
            return self._fleet()
        if parts == ["healthz"]:
            return self._healthz()
        if parts == ["readyz"]:
            return self._readyz()
        if parts == ["trace"]:
            return self._merged_trace()
        if parts == ["profile"]:
            return self._profile(query)
        if len(parts) == 2 and parts[0] == "characterize":
            wait = query.get("wait", ["1"])[0] not in ("0", "false", "no")
            return self._characterize(
                parts[1], wait=wait, correlation_id=correlation_id
            )
        if parts == ["suite", "matrix"]:
            return self._matrix(correlation_id)
        if parts == ["subset"]:
            return self._subset(query, correlation_id)
        if parts == ["observations"]:
            return self._observations(correlation_id)
        if parts == ["dashboard"]:
            return self._dashboard(correlation_id)
        if parts == ["jobs"]:
            # Merged across the worker fleet: local jobs plus every
            # sibling's persisted snapshots from the shared store.
            return _computed(self.jobs.shared_jobs())
        if len(parts) == 2 and parts[0] == "jobs":
            snapshot = self.jobs.load_shared(parts[1])
            if snapshot is None:
                raise _HttpError(404, f"no such job {parts[1]!r}")
            return _computed(snapshot)
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            return self._job_events(parts[1], query)
        raise _HttpError(404, f"no such endpoint {path!r}")

    def handle_delete(self, path: str) -> _Response:
        parts = [p for p in path.split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            snapshot = self.jobs.load_shared(parts[1])
            if snapshot is None:
                raise _HttpError(404, f"no such job {parts[1]!r}")
            cancelled = self.jobs.request_shared_cancel(parts[1])
            return _computed({"id": snapshot["id"], "cancelled": cancelled})
        raise _HttpError(404, f"no such endpoint {path!r}")

    # -- endpoints ------------------------------------------------------------

    def _info(self) -> _Response:
        return _computed(
            {
                "service": "repro-characterization",
                "instance": self.jobs.instance,
                "suite_size": len(self.config.workloads),
                "store_entries": len(self.store),
                "collection_key": self.config.collection.cache_key(),
                "endpoints": [
                    "/workloads",
                    "/metrics",
                    "/metrics/catalog",
                    "/stats",
                    "/fleet",
                    "/healthz",
                    "/readyz",
                    "/trace",
                    "/profile?seconds=N",
                    "/characterize/<name>",
                    "/suite/matrix",
                    "/subset?k=K",
                    "/subset?budget=SECONDS",
                    "/observations",
                    "/dashboard",
                    "/jobs",
                    "/jobs/<id>/events",
                ],
            }
        )

    def _workloads(self) -> _Response:
        return _computed(
            [
                {
                    "name": w.name,
                    "algorithm": w.algorithm,
                    "family": w.family.value,
                    "category": w.category.value,
                    "data_type": w.data_type.value,
                    "declared_size": w.declared_size,
                }
                for w in self.config.workloads
            ]
        )

    def _metric_catalog(self) -> _Response:
        return _computed(
            [
                {
                    "number": spec.number,
                    "name": spec.name,
                    "category": spec.category.value,
                    "kind": spec.kind.value,
                    "description": spec.description,
                }
                for spec in METRICS
            ]
        )

    def _runtime_metrics(self) -> _Response:
        """The *fleet's* runtime metrics in Prometheus text format.

        The serving worker snapshots its own registry to its shard
        first, then merges every live shard — so one scrape against any
        worker behind the shared socket reports the whole fleet
        (sibling workers, the supervisor, the collection pool), and the
        reported totals exactly equal the sum of the on-disk shards.

        No ETag: the body changes with every observation, and scrapers
        poll unconditionally anyway.
        """
        self.telemetry.write_now()
        text = render_merged(read_live(self.store.root, "metrics"))
        return _Response(200, text.encode("utf-8"), content_type=_PROMETHEUS)

    def _fleet(self) -> _Response:
        """``/fleet``: per-process liveness and merged fleet totals."""
        self.telemetry.write_now()
        status = fleet_status(read_live(self.store.root, "metrics"))
        ready, problems = self._readiness()
        status["health"] = {
            "instance": self.jobs.instance,
            "healthy": True,  # we are answering, by definition
            "ready": ready,
            "problems": problems,
        }
        return _Response(200, _dumps(status))

    # -- health probes ----------------------------------------------------

    def _healthz(self) -> _Response:
        """``/healthz``: pure liveness — this worker is answering."""
        return _Response(
            200,
            _dumps(
                {
                    "ok": True,
                    "instance": self.jobs.instance,
                    "pid": os.getpid(),
                }
            ),
        )

    def _readiness(self) -> tuple[bool, list[str]]:
        """Store reachable + our shard heartbeat fresh (the /readyz body)."""
        problems: list[str] = []
        try:
            if not self.store.root.is_dir():
                problems.append(f"store root {self.store.root} is missing")
        except OSError as exc:  # pragma: no cover - defensive
            problems.append(f"store root unreachable: {exc}")
        freshness = max(3.0 * INTERVAL_S, 5.0)
        try:
            age = time.time() - self.telemetry.path.stat().st_mtime
            if age > freshness:
                problems.append(
                    f"own metric shard heartbeat is {age:.1f}s old "
                    f"(budget {freshness:.1f}s)"
                )
        except OSError:
            problems.append("own metric shard has not been written")
        return (not problems, problems)

    def _readyz(self) -> _Response:
        """``/readyz``: 200 when this worker can serve store-backed
        traffic, 503 (with the reasons) when it cannot."""
        ready, problems = self._readiness()
        payload = {
            "ready": ready,
            "instance": self.jobs.instance,
            "pid": os.getpid(),
            "problems": problems,
        }
        return _Response(200 if ready else 503, _dumps(payload))

    def _profile(self, query: dict[str, list[str]]) -> _Response:
        """``/profile?seconds=N``: an on-demand merged fleet CPU profile.

        Publishes a sampling window through the store (concurrent
        requests join the same window), lets every process's
        :class:`~repro.obs.fleet.TelemetryAgent` sample and spill, then
        merges the spills.  ``format=json`` (default) returns the merged
        profile document, ``format=collapsed`` flamegraph-ready text,
        ``format=flame`` the self-contained HTML flamegraph panel.
        """
        try:
            seconds = float(query.get("seconds", [str(DEFAULT_WINDOW_S)])[0])
            interval = float(
                query.get("interval", [str(DEFAULT_INTERVAL_MS)])[0]
            )
        except ValueError:
            raise _HttpError(
                400, "seconds and interval must be numbers"
            ) from None
        if not 0.2 <= seconds <= MAX_WINDOW_S:
            raise _HttpError(
                400, f"seconds must be in [0.2, {MAX_WINDOW_S:g}]"
            )
        mode = query.get("mode", ["wall"])[0]
        if mode not in ("wall", "cpu"):
            raise _HttpError(400, f"unknown profile mode {mode!r}")
        fmt = query.get("format", ["json"])[0]
        if fmt not in ("json", "collapsed", "flame"):
            raise _HttpError(400, f"unknown profile format {fmt!r}")
        request = request_profile(
            self.store.root, seconds=seconds, interval_ms=interval, mode=mode
        )
        self.telemetry.poke()
        merged = collect_fleet_profile(self.store.root, request)
        if fmt == "collapsed":
            text = collapsed_stacks(merged) + "\n"
            return _Response(
                200,
                text.encode("utf-8"),
                content_type="text/plain; charset=utf-8",
            )
        if fmt == "flame":
            from repro.analysis.dashboard import render_profile_page

            html = render_profile_page(merged)
            return _Response(
                200, html.encode("utf-8"), content_type=_HTML
            )
        return _Response(200, _dumps(merged))

    def _merged_trace(self) -> _Response:
        """``/trace``: every process's trace spill stitched into one
        Chrome Trace Event document (distinct pid lanes, rebased onto a
        common timeline — see :func:`repro.obs.fleet.merge_traces`)."""
        # Flush this worker's newest spans so the merge includes the
        # requests that led up to this one.
        self.telemetry.spill_trace()
        merged = merge_store_traces(self.store.root)
        return _Response(200, _dumps(merged))

    def _stats(self) -> _Response:
        """Runtime metrics plus store/job state as one JSON document."""
        jobs = [job.snapshot() for job in self.jobs.jobs()]
        return _Response(
            200,
            _dumps(
                {
                    "metrics": REGISTRY.snapshot(),
                    "store": {
                        "entries": len(self.store),
                        "bytes": self.store.total_bytes(),
                        "root": str(self.store.root),
                    },
                    "jobs": {
                        "total": len(jobs),
                        "live": sum(
                            1 for j in jobs
                            if j["state"] in ("queued", "running")
                        ),
                        "recent_events": [
                            event
                            for job in jobs[-5:]
                            for event in job["events"]
                        ][-50:],
                    },
                }
            ),
        )

    def _resolve(self, name: str) -> Workload:
        try:
            return workload_by_name(name)
        except WorkloadError:
            raise _HttpError(
                404,
                f"unknown workload {name!r}",
                {"suggestions": list(closest_workloads(name))},
            ) from None

    def _characterize(
        self, name: str, wait: bool, correlation_id: str | None = None
    ) -> _Response:
        workload = self._resolve(name)
        key = workload_store_key(self.config.collection, workload.name)
        etag = self.store.etag(key)
        if etag is not None:
            with self._lock:
                cached = self._char_cache.get(key)
            if cached is not None and cached[0] == etag:
                return cached[1]
        raw = self.store.get_raw(key, touch=False)
        if raw is None:
            if not wait:
                job = self.jobs.submit(
                    (workload.name,), correlation_id=correlation_id
                )
                return _computed(job.snapshot(), status=202)
            job = self._await_job((workload.name,), correlation_id)
            raw = self.store.get_raw(key, touch=False)
            if raw is None:
                raise _HttpError(
                    500, f"{job.id} finished but {key!r} is not in the store"
                )
        body, etag = raw
        response = _Response(200, body, etag=etag)
        with self._lock:
            self._char_cache[key] = (etag, response)
        return response

    def _ensure_suite(
        self, correlation_id: str | None = None
    ) -> tuple[dict, str]:
        """The suite entry + its ETag, collecting (single-flight) if cold."""
        key = suite_store_key(self.config.collection, self.config.workloads)
        etag = self.store.etag(key)
        if etag is not None:
            with self._lock:
                cached = self._suite_cache
            if cached is not None and cached[0] == etag:
                return cached[1], etag
        entry = self.store.get(key, touch=False)
        if entry is None:
            self._await_job(
                tuple(w.name for w in self.config.workloads), correlation_id
            )
            entry = self.store.get(key, touch=False)
            if entry is None:
                raise _HttpError(500, f"suite entry {key!r} missing after collection")
        etag = self.store.etag(key) or ""
        if etag:
            with self._lock:
                self._suite_cache = (etag, entry)
        return entry, etag

    def _await_job(
        self, names: tuple[str, ...], correlation_id: str | None = None
    ):
        try:
            job = self.jobs.collect(
                names,
                timeout=self.config.request_timeout_s,
                correlation_id=correlation_id,
            )
        except ServiceError as exc:
            raise _HttpError(504, str(exc)) from exc
        if job.state is JobState.FAILED:
            raise _HttpError(500, f"{job.id} failed: {job.error}")
        if job.state is JobState.CANCELLED:
            raise _HttpError(503, f"{job.id} was cancelled")
        return job

    def _job_events(
        self, job_id: str, query: dict[str, list[str]]
    ) -> _Response:
        """``/jobs/<id>/events``: the job's lifecycle as an SSE stream.

        Replays every recorded event from the start (so a stream opened
        after a fast job finished still sees submit → progress → done),
        then follows the live job until it reaches a terminal state or
        the ``timeout`` query parameter (seconds, at most
        ``request_timeout_s``) elapses.

        Jobs owned by a *sibling* worker process stream too: their
        persisted snapshots are replayed and then tailed from the shared
        store, so any worker behind the shared socket can serve any
        job's event stream.
        """
        job = self.jobs.get(job_id)
        if job is None and self.jobs.load_shared(job_id) is None:
            raise _HttpError(404, f"no such job {job_id!r}")
        try:
            timeout = float(
                query.get("timeout", [str(self.config.request_timeout_s)])[0]
            )
        except ValueError:
            raise _HttpError(400, "timeout must be a number") from None
        if not math.isfinite(timeout):
            raise _HttpError(400, "timeout must be a finite number")
        # A stream writes nothing while it waits, so it cannot notice a
        # departed client: only its deadline frees the thread.
        timeout = min(timeout, self.config.request_timeout_s)

        def format_event(index: int, event: dict) -> bytes:
            payload = _dumps(event).decode("utf-8")
            return (
                f"id: {index}\n"
                f"event: {event['event']}\n"
                f"data: {payload}\n\n"
            ).encode("utf-8")

        def stream_local():
            deadline = time.monotonic() + timeout
            index = 0

            def drain():
                nonlocal index
                # Snapshot the list: note() only appends, so a slice is
                # always a consistent prefix.
                events = list(job.events)
                while index < len(events):
                    event = events[index]
                    index += 1
                    yield format_event(index, event)

            while True:
                yield from drain()
                if job._done.is_set():
                    yield from drain()  # the terminal note, if it raced
                    yield b"event: end-of-stream\ndata: {}\n\n"
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    yield b"event: stream-timeout\ndata: {}\n\n"
                    return
                job._done.wait(min(0.05, remaining))

        def stream_shared():
            # Sibling-owned job: tail its persisted snapshot.  The owner
            # rewrites the file atomically on every lifecycle event, so
            # each poll sees a consistent, append-only event prefix.
            deadline = time.monotonic() + timeout
            index = 0
            while True:
                snapshot = self.jobs.load_shared(job_id) or {}
                events = snapshot.get("events", [])
                while index < len(events):
                    event = events[index]
                    index += 1
                    yield format_event(index, event)
                if snapshot.get("state") in ("done", "failed", "cancelled"):
                    yield b"event: end-of-stream\ndata: {}\n\n"
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    yield b"event: stream-timeout\ndata: {}\n\n"
                    return
                time.sleep(min(0.05, remaining))

        stream = stream_local() if job is not None else stream_shared()
        return _Response(200, b"", content_type=_EVENT_STREAM, stream=stream)

    def _matrix(self, correlation_id: str | None = None) -> _Response:
        entry, etag = self._ensure_suite(correlation_id)
        cached = self._derived_get(("matrix", etag))
        if cached is None:
            cached = _Response(200, _dumps(entry["matrix"]), etag=etag)
            self._derived_put(("matrix", etag), cached)
        return cached

    def _subset(
        self,
        query: dict[str, list[str]],
        correlation_id: str | None = None,
    ) -> _Response:
        if "budget" in query and "k" in query:
            raise _HttpError(
                400, "provide either k (cluster count) or budget (seconds), not both"
            )
        if "budget" in query:
            return self._subset_budgeted(query["budget"][0], correlation_id)
        k: int | None = None
        if "k" in query:
            try:
                k = int(query["k"][0])
            except ValueError:
                raise _HttpError(400, f"k must be an integer, got {query['k'][0]!r}")
        n = len(self.config.workloads)
        if k is not None and not 2 <= k <= n - 1:
            raise _HttpError(400, f"k must be in [2, {n - 1}] for {n} workloads")
        entry, etag = self._ensure_suite(correlation_id)
        cache_key = ("subset", etag, k)
        cached = self._derived_get(cache_key)
        if cached is not None:
            return cached

        import numpy as np

        from repro.core.dataset import WorkloadMetricMatrix

        matrix = WorkloadMetricMatrix(
            workloads=tuple(entry["matrix"]["workloads"]),
            values=np.array(entry["matrix"]["values"], dtype=float),
        )
        try:
            if k is None:
                result = subset_workloads(matrix, seed=_SUBSETTING_SEED)
            else:
                result = subset_workloads(
                    matrix, seed=_SUBSETTING_SEED, k_min=k, k_max=k
                )
        except ReproError as exc:
            raise _HttpError(400, f"subsetting failed: {exc}") from exc

        def reps(representatives) -> list[dict]:
            return [
                {
                    "workload": rep.workload,
                    "cluster_size": rep.cluster_size,
                    "members": list(rep.members),
                    "distance_to_center": rep.distance_to_center,
                }
                for rep in representatives
            ]

        response = _computed(
            {
                "k": result.clustering.k,
                "requested_k": k,
                "pca_kept": result.pca.n_kept,
                "retained_variance": result.pca.retained_variance,
                "representative_subset": list(result.representative_subset),
                "farthest": reps(result.farthest),
                "nearest": reps(result.nearest),
            }
        )
        self._derived_put(cache_key, response)
        return response

    def _workload_costs(self, entry: dict):
        """Per-workload simulated-runtime costs for the collected suite.

        Served from the persisted cost table when present; otherwise the
        stored characterizations are hydrated, costed and the table is
        persisted for the next request.  A workload whose per-workload
        store entry was evicted gets the median cost of its peers
        (source ``"median"``) — the selection pool must still span the
        whole matrix.
        """
        from repro.service.store import characterization_from_payload
        from repro.subset.cost import (
            WorkloadCost,
            estimate_costs,
            load_costs,
            persist_costs,
        )

        suite_key = suite_store_key(self.config.collection, self.config.workloads)
        names = list(entry["workloads"])
        cached = load_costs(self.store, suite_key)
        if cached is not None and sorted(c.workload for c in cached) == sorted(
            names
        ):
            return cached

        characterizations = []
        for name in names:
            payload = self.store.get(
                workload_store_key(self.config.collection, name), touch=False
            )
            if payload is not None:
                characterizations.append(characterization_from_payload(payload))
        if not characterizations:
            raise _HttpError(
                500, "no stored characterizations to derive subset costs from"
            )
        costs = list(estimate_costs(characterizations))
        known = {cost.workload for cost in costs}
        missing = [name for name in names if name not in known]
        if missing:
            seconds = sorted(cost.seconds for cost in costs)
            mid = len(seconds) // 2
            median = (
                seconds[mid]
                if len(seconds) % 2
                else 0.5 * (seconds[mid - 1] + seconds[mid])
            )
            costs.extend(
                WorkloadCost(
                    workload=name, seconds=median, source="median",
                    raw_units=median,
                )
                for name in missing
            )
        costs = tuple(costs)
        persist_costs(self.store, suite_key, costs)
        return costs

    def _subset_budgeted(
        self, raw_budget: str, correlation_id: str | None = None
    ) -> _Response:
        try:
            budget_s = float(raw_budget)
        except ValueError:
            raise _HttpError(
                400, f"budget must be a number of seconds, got {raw_budget!r}"
            ) from None
        if not math.isfinite(budget_s) or budget_s <= 0:
            raise _HttpError(
                400, f"budget must be a positive number of seconds, got {raw_budget!r}"
            )
        entry, etag = self._ensure_suite(correlation_id)
        cache_key = ("subset-budget", etag, budget_s)
        cached = self._derived_get(cache_key)
        if cached is not None:
            return cached

        import numpy as np

        from repro.core.pca import fit_pca
        from repro.errors import SubsetError
        from repro.subset.select import select_budgeted

        labels = tuple(entry["matrix"]["workloads"])
        values = np.array(entry["matrix"]["values"], dtype=float)
        costs = self._workload_costs(entry)
        try:
            points = fit_pca(values).scores
            selection = select_budgeted(points, labels, costs, budget_s)
        except SubsetError as exc:
            raise _HttpError(400, str(exc)) from exc
        except ReproError as exc:
            raise _HttpError(400, f"budgeted subsetting failed: {exc}") from exc

        by_name = {cost.workload: cost for cost in costs}
        body = selection.to_dict()
        body["cost_sources"] = {
            pick.workload: by_name[pick.workload].source
            for pick in selection.picks
        }
        response = _computed(body)
        self._derived_put(cache_key, response)
        return response

    def _observations(self, correlation_id: str | None = None) -> _Response:
        if tuple(w.name for w in self.config.workloads) != tuple(
            w.name for w in SUITE
        ):
            raise _HttpError(
                409, "observations need the full 32-workload suite configured"
            )
        _, etag = self._ensure_suite(correlation_id)
        cache_key = ("observations", etag)
        cached = self._derived_get(cache_key)
        if cached is not None:
            return cached

        from repro.analysis.experiment import ExperimentConfig, run_experiment
        from repro.analysis.observations import evaluate_observations

        # The suite is already in the memo/store; this only reruns the
        # statistics, not the engines.
        experiment = run_experiment(
            ExperimentConfig(
                collection=self.config.collection,
                subsetting_seed=_SUBSETTING_SEED,
                cache_dir=str(self.store.root),
            )
        )
        observations = evaluate_observations(experiment)
        response = _computed(
            {
                "observations": [
                    {
                        "number": o.number,
                        "paper_claim": o.paper_claim,
                        "measured": o.measured,
                        "holds": o.holds,
                    }
                    for o in observations
                ],
                "holding": sum(1 for o in observations if o.holds),
            }
        )
        self._derived_put(cache_key, response)
        return response

    def _dashboard(self, correlation_id: str | None = None) -> _Response:
        """``/dashboard``: the suite as one self-contained HTML page."""
        import numpy as np

        from repro.analysis.dashboard import render_dashboard
        from repro.core.dataset import WorkloadMetricMatrix
        from repro.core.subsetting import subset_workloads
        from repro.service.store import characterization_from_payload

        entry, etag = self._ensure_suite(correlation_id)
        cache_key = ("dashboard", etag)
        cached = self._derived_get(cache_key)
        if cached is not None:
            return cached

        characterizations = []
        for name in entry["workloads"]:
            payload = self.store.get(
                workload_store_key(self.config.collection, name), touch=False
            )
            if payload is not None:
                characterizations.append(characterization_from_payload(payload))
        matrix = WorkloadMetricMatrix(
            workloads=tuple(entry["matrix"]["workloads"]),
            values=np.array(entry["matrix"]["values"], dtype=float),
        )
        subsetting = None
        try:
            subsetting = subset_workloads(
                matrix, seed=_SUBSETTING_SEED
            )
        except ReproError:
            pass  # tiny suites can't cluster; the dashboard degrades
        budgeted = None
        try:
            from repro.core.pca import fit_pca
            from repro.subset.select import select_budgeted

            costs = self._workload_costs(entry)
            budgeted = select_budgeted(
                fit_pca(matrix.values).scores,
                matrix.workloads,
                costs,
                # Default operating point: half the pool's simulation cost.
                0.5 * sum(cost.seconds for cost in costs),
            )
        except (ReproError, _HttpError):
            pass  # cost-less stores degrade to the placeholder text
        html = render_dashboard(
            matrix,
            characterizations,
            subsetting=subsetting,
            title="repro characterization dashboard",
            budgeted=budgeted,
        )
        response = _Response(
            200,
            html.encode("utf-8"),
            etag=hashlib.sha256(html.encode("utf-8")).hexdigest()[:32],
            content_type=_HTML,
        )
        self._derived_put(cache_key, response)
        return response


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP plumbing: routing, ETag/304, error mapping."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a keep-alive client's next request must not wait out
    # Nagle + delayed-ACK (~40ms) because headers and body left in
    # separate segments.
    disable_nagle_algorithm = True

    @property
    def service(self) -> CharacterizationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, response: _Response) -> None:
        if response.stream is not None:
            # SSE path: no Content-Length, so HTTP/1.1 framing requires
            # Connection: close — the stream ends when the job does.
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Cache-Control", "no-store")
            self.send_header("Connection", "close")
            self.close_connection = True
            self.end_headers()
            for chunk in response.stream:
                self.wfile.write(chunk)
                self.wfile.flush()
            return
        etag_header = f'"{response.etag}"' if response.etag else None
        if etag_header and response.status == 200:
            conditional = self.headers.get("If-None-Match", "")
            candidates = {tag.strip() for tag in conditional.split(",")}
            if etag_header in candidates or response.etag in candidates:
                self.send_response(304)
                self.send_header("ETag", etag_header)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        if etag_header:
            self.send_header("ETag", etag_header)
        self.end_headers()
        self.wfile.write(response.body)

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        started = time.perf_counter()
        correlation_id = self.headers.get(CORRELATION_HEADER)
        segments = [p for p in split.path.split("/") if p]
        endpoint = f"/{segments[0]}" if segments else "/"
        span_args = {"method": method, "path": split.path}
        if correlation_id:
            span_args["correlation_id"] = correlation_id
        # Handler threads are spawned per connection: the service tracer
        # must be explicitly activated (ContextVars don't cross threads).
        with tracing(self.service.tracer), obs_span(
            f"http:{endpoint}", "http", **span_args
        ):
            try:
                if method == "GET":
                    response = self.service.handle_get(
                        split.path,
                        parse_qs(split.query),
                        correlation_id=correlation_id,
                    )
                else:
                    response = self.service.handle_delete(split.path)
            except _HttpError as exc:
                response = _Response(exc.status, _dumps(exc.payload))
            except ReproError as exc:
                response = _Response(400, _dumps({"error": str(exc)}))
            except Exception as exc:  # pragma: no cover - defensive
                _log.error(
                    "unhandled error serving request",
                    extra={"method": method, "path": split.path,
                           "error": f"{type(exc).__name__}: {exc}"},
                )
                response = _Response(
                    500, _dumps({"error": f"{type(exc).__name__}: {exc}"})
                )
        elapsed = time.perf_counter() - started
        _HTTP_REQUESTS.inc(endpoint=endpoint, status=str(response.status))
        _HTTP_SECONDS.observe(elapsed)
        _log.debug(
            "request served",
            extra={"method": method, "path": split.path,
                   "status": response.status,
                   "duration_ms": round(elapsed * 1e3, 3)},
        )
        try:
            self._send(response)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch("GET")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


def serve(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Build a ready-to-run threading server (``port=0`` picks a free one).

    The caller owns the lifecycle: ``server.serve_forever()`` to run,
    ``server.shutdown()`` + ``server.service.close()`` to stop.
    """
    service = CharacterizationService(config)
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server
