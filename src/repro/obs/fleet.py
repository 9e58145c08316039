"""Fleet-wide telemetry: one agent per process, and every per-pid file.

A pre-fork fleet (supervisor, N server workers, the collection pool
workers behind them) shares no memory: each process has its own
:data:`~repro.obs.metrics.REGISTRY`, tracer and sampling
:class:`~repro.obs.prof.Profiler`.  This module joins them through plain
files in the shared store directory, and owns that layout and every
file's lifecycle::

    telemetry/metrics/<instance>-<pid>.json    one metric shard per process
    telemetry/traces/<instance>-<pid>.json     one Chrome-trace spill per process
    telemetry/profiles/<instance>-<pid>.json   one profile spill per process
    telemetry/profiles/request.json            the fleet's open sampling window
    telemetry/telemetry.lock                   FileLock guarding requests and GC

**One agent per process.**  A :class:`TelemetryAgent`'s daemon thread
rewrites the process's metric shard (a registry snapshot plus a
heartbeat) and trace spill every :data:`INTERVAL_S`, and checks the
profile request file every :data:`POLL_S`.  A new request opens a
sampling window that the loop closes and spills at the deadline without
ever blocking on it, so the heartbeat ``/readyz`` checks keeps
advancing.  ``close()`` spills an open window's partial capture, then
writes the final shard.

**One reader.**  :func:`read_live` loads the files of one kind, excludes
the stale ones and collects them exactly once under the telemetry lock
(:func:`repro.durable.gc_once`); a torn file reads as absent.  A shard
is stale once its pid is dead on this host or its heartbeat outlives
its TTL; trace and profile spills outlive their writer, so only the TTL
retires them.

**Merging.**  :func:`merge_shards` sums counters and histogram buckets;
gauges declare ``"sum"`` (disjoint per-process values) or
``"per_worker"`` (one sample per process under a ``worker`` label), so
the fleet exposition never double-counts.  :func:`merge_traces` rebases
each process's trace onto one timeline via its ``epoch_unix_s`` anchor
and labels each pid lane.  :func:`collect_fleet_profile` merges the
spills of one sampling window.

Everything here is observational: nothing consumes randomness or
changes scheduling, so a run's 45-metric matrix stays bit-identical.
"""

from __future__ import annotations

import atexit
import os
import socket
import threading
import time
import uuid
from pathlib import Path

from repro.durable import gc_once, is_stale, read_json, state_files, write_json
from repro.obs.log import get_logger
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.prof import (
    DEFAULT_INTERVAL_MS,
    PROFILE_SCHEMA,
    Profiler,
    ProfilerError,
    arm,
    merge_profile_docs,
)
from repro.obs.trace import Tracer

__all__ = [
    "SHARD_SCHEMA",
    "INTERVAL_S",
    "POLL_S",
    "TTL_S",
    "TelemetryAgent",
    "Shard",
    "telemetry_dir",
    "load_shard",
    "load_profile_doc",
    "read_live",
    "gc_stale",
    "merge_shards",
    "render_merged",
    "fleet_status",
    "merge_traces",
    "merge_store_traces",
    "profile_request_path",
    "current_request",
    "request_profile",
    "spill_profile",
    "collect_fleet_profile",
]

_log = get_logger("repro.obs.fleet")

#: Version stamp of the shard file format; readers skip other schemas.
SHARD_SCHEMA = 1

#: Seconds between an agent's shard heartbeats.
INTERVAL_S = 2.0

#: Seconds between an agent's checks of the profile request file.
POLL_S = 0.25

#: Default TTL of every per-pid file: one whose ``written_s`` stamp is
#: older is stale (a record's own ``ttl_s`` takes precedence).
TTL_S = 120.0

#: Default / maximum fleet sampling window (seconds).
DEFAULT_WINDOW_S = 3.0
MAX_WINDOW_S = 30.0


def telemetry_dir(root: str | Path, kind: str) -> Path:
    """The directory of one kind (``metrics``, ``traces`` or
    ``profiles``) under a store root."""
    return Path(root) / "telemetry" / kind


def profile_request_path(root: str | Path) -> Path:
    return telemetry_dir(root, "profiles") / "request.json"


def _telemetry_lock(root: str | Path):
    from repro.service.locking import FileLock

    return FileLock(Path(root) / "telemetry" / "telemetry.lock")


def _file_name(instance: str, pid: object) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in instance)
    return f"{safe}-{pid}.json"


# -- the per-process agent ----------------------------------------------------


class TelemetryAgent:
    """One process's telemetry loop: shard, trace spill, profile windows.

    Args:
        root: The shared store directory the fleet coordinates through.
        instance: Stable fleet-unique name of this process (becomes the
            ``worker`` label on per-worker gauges and the trace lane
            name).
        role: Coarse process role — ``"server"``, ``"supervisor"`` or
            ``"pool"`` — recorded in the shard and the fleet status.
        registry: The registry to snapshot (the process-wide
            :data:`REGISTRY` by default).
        tracer: When set, the tracer's span buffer is spilled to a
            per-pid Chrome trace file alongside each metric snapshot so
            :func:`merge_traces` can stitch the fleet's lanes together.
    """

    def __init__(
        self,
        root: str | Path,
        instance: str,
        role: str,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.root = Path(root)
        self.instance = instance
        self.role = role
        self.registry = REGISTRY if registry is None else registry
        self.tracer = tracer
        self._pid = os.getpid()
        self._host = socket.gethostname()
        self._started_s = time.time()
        name = _file_name(instance, self._pid)
        self.path = telemetry_dir(self.root, "metrics") / name
        self.trace_path = telemetry_dir(self.root, "traces") / name
        self._stop = threading.Event()
        # Cuts the loop's current wait short (stop, or :meth:`poke`).
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        # Serialises file writes and the hand-off of the open window.
        self._lock = threading.Lock()
        self._request_sig: tuple | None = None
        # The request last refused by a busy profiler (logged once).
        self._busy_request: str | None = None
        # The open sampling window: (profiler, request id, deadline).
        self._window: tuple[Profiler, str, float] | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "TelemetryAgent":
        """Arm profiling, write the first shard and start the loop.

        Call it from the process's main thread: :func:`repro.obs.prof.arm`
        can only install the sampling signal handlers there (elsewhere
        the profiler falls back to its thread clock).
        """
        arm()
        self.write_now()
        self._thread = threading.Thread(
            target=self._run, name=f"telemetry-{self.instance}", daemon=True
        )
        self._thread.start()
        atexit.register(self._at_exit)
        return self

    def _run(self) -> None:
        next_write = time.time() + INTERVAL_S
        while True:
            window = self._window
            wake = min(time.time() + POLL_S, next_write)
            if window is not None:
                wake = min(wake, window[2])
            self._wake.wait(max(0.0, wake - time.time()))
            self._wake.clear()
            if self._stop.is_set():
                return
            now = time.time()
            try:
                if window is None:
                    self._open_window()
                elif now >= window[2]:
                    self._close_window()
            except Exception:  # noqa: BLE001 - keep the heartbeat going
                _log.exception("profile window failed; dropped")
                self._window = None
            if now >= next_write:
                self.write_now()
                next_write = now + INTERVAL_S

    def _at_exit(self) -> None:
        # Forked children inherit the registration; only the creating
        # process flushes (the thread is dead in children anyway).
        if os.getpid() == self._pid:
            self.close()

    def close(self) -> None:
        """Stop the loop, spill an open window's partial capture (with
        its request id), then write one final snapshot.

        The shard is deliberately *not* deleted: a cleanly exited
        worker's counters stay scrapeable until dead-pid/TTL staleness
        retires the shard, exactly like a Prometheus target going away.
        """
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0 * INTERVAL_S)
        self._close_window()
        self.write_now()

    def poke(self) -> None:
        """Look for a profile request now rather than at the next poll.

        A process that publishes a window calls this so its own agent
        joins at once.  Polling alone joins up to ``POLL_S`` late plus
        any stall of this thread, and back-to-back windows land just
        after a poll; a short window joined with under 0.05 s left is
        skipped and comes back empty.
        """
        self._wake.set()

    # -- snapshots --------------------------------------------------------

    def write_now(self) -> bool:
        """Write the shard (and trace spill) immediately.

        Returns ``False`` instead of raising when the telemetry
        directory is gone (service shutting down, temp store deleted) —
        snapshots are best-effort by design.
        """
        shard = {
            "schema": SHARD_SCHEMA,
            "kind": "metrics-shard",
            "instance": self.instance,
            "role": self.role,
            "pid": self._pid,
            "host": self._host,
            "started_s": round(self._started_s, 3),
            "written_s": round(time.time(), 3),
            "ttl_s": TTL_S,
            "interval_s": INTERVAL_S,
            "metrics": self.registry.to_shard(),
        }
        with self._lock:
            try:
                write_json(self.path, shard)
            except OSError:
                return False
        return self.tracer is None or self.spill_trace()

    def spill_trace(self) -> bool:
        """Spill the tracer's buffer to the per-pid trace file now."""
        if self.tracer is None:
            return False
        document = self.tracer.to_chrome(instance=self.instance)
        document["otherData"].update(
            role=self.role, written_s=round(time.time(), 3), ttl_s=TTL_S
        )
        with self._lock:
            try:
                write_json(self.trace_path, document)
            except OSError:
                return False
        return True

    # -- profile windows --------------------------------------------------

    def _open_window(self) -> None:
        """Start sampling for a new request; a cheap ``stat`` signature
        check skips re-parsing a request file already handled.

        A request is handled once its window opens, or once it is
        skipped for good: it has closed, or joining would leave under
        0.05 s.  A profiler that cannot start (a manual profiler owns
        this process) leaves the request unhandled, so the next poll
        tries again.
        """
        try:
            stat = profile_request_path(self.root).stat()
        except OSError:
            return
        signature = (stat.st_mtime_ns, stat.st_size)
        if signature == self._request_sig:
            return
        request = current_request(self.root)
        if request is None:
            self._request_sig = signature
            return
        request_id = str(request.get("id"))
        deadline = float(request["deadline_s"])
        if deadline - time.time() <= 0.05:
            self._request_sig = signature
            _log.info(
                "profile window %s skipped: under 0.05 s left to join",
                request_id,
            )
            return
        try:
            profiler = Profiler(
                mode=str(request.get("mode", "wall")),
                interval_ms=request.get("interval_ms", DEFAULT_INTERVAL_MS),
                instance=self.instance,
                role=self.role,
            ).start()
        except (ProfilerError, TypeError, ValueError) as exc:
            if request_id != self._busy_request:
                self._busy_request = request_id
                _log.info(
                    "profile window %s not joined yet (%s); retrying at the next poll",
                    request_id, exc,
                )
            return
        self._request_sig = signature
        self._window = (profiler, request_id, deadline)

    def _close_window(self) -> None:
        with self._lock:
            window, self._window = self._window, None
        if window is None:
            return
        profiler, request_id, _deadline = window
        doc = profiler.stop()
        doc["request_id"] = request_id
        spill_profile(self.root, doc)
        REGISTRY.counter(
            "repro_profile_samples_total",
            "Stack samples this process contributed to fleet profiles",
        ).inc(int(doc.get("samples", 0)))


# -- reading ------------------------------------------------------------------


class Shard:
    """One parsed, schema-valid metric shard."""

    __slots__ = (
        "path",
        "instance",
        "role",
        "pid",
        "host",
        "started_s",
        "written_s",
        "metrics",
        "record",
    )

    def __init__(self, path: Path, record: dict) -> None:
        self.path = path
        self.record = record
        self.instance = str(record["instance"])
        self.role = str(record.get("role", "worker"))
        self.pid = int(record["pid"])
        self.host = str(record.get("host", ""))
        self.started_s = float(record.get("started_s", 0.0))
        self.written_s = float(record.get("written_s", 0.0))
        self.metrics = dict(record.get("metrics", {}))

    def counter_total(self, name: str) -> float:
        """Sum of one counter/gauge's samples in this shard (0 if absent)."""
        metric = self.metrics.get(name)
        if not isinstance(metric, dict) or "values" not in metric:
            return 0.0
        return float(sum(value for _key, value in metric["values"]))


def load_shard(path: Path) -> Shard | None:
    """Parse one shard file; torn/invalid/foreign-schema -> ``None``."""
    record = read_json(path)
    if record is None or record.get("schema") != SHARD_SCHEMA:
        return None
    try:
        return Shard(path, record)
    except (KeyError, TypeError, ValueError):
        return None


def _load_trace_spill(path: Path) -> dict | None:
    doc = read_json(path)
    if doc is None or not isinstance(doc.get("traceEvents"), list):
        return None
    return doc


def load_profile_doc(path: Path) -> dict | None:
    """Parse one profile spill; torn/foreign/request files -> ``None``."""
    record = read_json(path)
    if (
        record is None
        or record.get("schema") != PROFILE_SCHEMA
        or record.get("kind") != "cpu-profile"
    ):
        return None
    return record


def _shard_stale(path: Path, shard: Shard | None, now: float) -> bool:
    record = shard.record if shard is not None else None
    return is_stale(record, now, stamp="written_s", ttl_s=TTL_S, path=path)


def _spill_stale(path: Path, record: dict | None, now: float) -> bool:
    # Spills outlive their writer, so only the TTL retires them.
    return is_stale(
        record, now, stamp="written_s", ttl_s=TTL_S, owner_pid=False, path=path
    )


def _trace_stale(path: Path, doc: dict | None, now: float) -> bool:
    # The stamp lives in otherData; an unstamped spill ages by its mtime.
    other = doc.get("otherData") if doc is not None else None
    stamped = isinstance(other, dict) and "written_s" in other
    return _spill_stale(path, other if stamped else None, now)


def _profile_stale(path: Path, doc: dict | None, now: float) -> bool:
    # The request file closes at its deadline and is rewritten in place.
    return path.name != "request.json" and _spill_stale(path, doc, now)


#: Per kind: (loader, staleness rule, sort key of the live items).
_KINDS = {
    "metrics": (
        load_shard, _shard_stale, lambda s: (s.role, s.instance, s.pid)
    ),
    "traces": (_load_trace_spill, _trace_stale, None),
    "profiles": (
        load_profile_doc,
        _profile_stale,
        lambda d: (str(d.get("role")), str(d.get("instance"))),
    ),
}


def read_live(root: str | Path, kind: str, gc: bool = True) -> list:
    """Every live file of ``kind`` under ``root``, parsed by the kind's
    loader (:class:`Shard` for ``metrics``, the document otherwise).

    Stale files are excluded and, with ``gc``, collected.  Shards and
    profile spills come back ordered by (role, instance), so merged
    output is stable regardless of directory enumeration order.
    """
    load, stale, order = _KINDS[kind]
    now = time.time()
    live: list = []
    dead: list[Path] = []
    for path in state_files(telemetry_dir(root, kind)):
        item = load(path)
        if stale(path, item, now):
            dead.append(path)
        elif item is not None:
            live.append(item)
    if gc and dead:
        gc_stale(root, kind, candidates=dead)
    if order is not None:
        live.sort(key=order)
    return live


def gc_stale(
    root: str | Path, kind: str, candidates: list[Path] | None = None
) -> list[Path]:
    """Remove stale/torn files of ``kind`` under the telemetry lock,
    exactly once (:func:`~repro.durable.gc_once`); returns the paths
    removed."""
    load, stale, _order = _KINDS[kind]
    if candidates is None:
        candidates = state_files(telemetry_dir(root, kind))
    now = time.time()
    removed = gc_once(
        _telemetry_lock(root),
        candidates,
        lambda path: stale(path, load(path), now),
    )
    if removed:
        _log.info(
            "collected stale telemetry",
            extra={"kind": kind, "count": len(removed)},
        )
    return removed


# -- merging ------------------------------------------------------------------


def merge_shards(shards: list[Shard]) -> MetricsRegistry:
    """Aggregate shards into one registry holding the fleet view.

    Counters and histograms (bucket-by-bucket, when bucket bounds agree)
    are summed across shards.  Gauges follow their shard-declared
    ``aggregation``: ``"sum"`` adds the per-process values;
    ``"per_worker"`` (the default) keeps one sample per process under an
    extra ``worker=<instance>`` label.  A shard entry whose kind (or
    histogram bucketing) disagrees with an earlier shard's is skipped —
    mixed-version fleets degrade to the first writer's schema instead of
    corrupting the merge.
    """
    merged = MetricsRegistry()
    for shard in shards:
        for name in sorted(shard.metrics):
            entry = shard.metrics[name]
            if not isinstance(entry, dict):
                continue
            kind = entry.get("kind")
            help_text = str(entry.get("help", ""))
            try:
                if kind == "histogram":
                    _merge_histogram(merged, name, help_text, entry)
                elif kind == "gauge":
                    _merge_gauge(merged, name, help_text, entry, shard.instance)
                elif kind == "counter":
                    _merge_counter(merged, name, help_text, entry)
            except Exception:  # noqa: BLE001 - one bad entry must not
                continue  # poison the whole exposition
    return merged


def _samples(entry: dict) -> list[tuple[tuple[str, ...], float]]:
    return [
        (tuple(str(part) for part in key), float(value))
        for key, value in entry.get("values", [])
    ]


def _merge_counter(merged: MetricsRegistry, name, help_text, entry) -> None:
    labels = tuple(entry.get("labels", ()))
    metric = merged.counter(name, help_text, labels)
    if metric.labelnames != labels:
        return  # kind/shape clash with an earlier shard: skip
    with metric._lock:
        for key, value in _samples(entry):
            metric._values[key] = metric._values.get(key, 0.0) + value


def _merge_gauge(merged, name, help_text, entry, instance: str) -> None:
    aggregation = entry.get("aggregation", "per_worker")
    labels = tuple(entry.get("labels", ()))
    if aggregation == "sum":
        metric = merged.gauge(name, help_text, labels, aggregation="sum")
        if metric.labelnames != labels:
            return
        with metric._lock:
            for key, value in _samples(entry):
                metric._values[key] = metric._values.get(key, 0.0) + value
        return
    worker_labels = labels + ("worker",)
    metric = merged.gauge(name, help_text, worker_labels)
    if metric.labelnames != worker_labels:
        return
    with metric._lock:
        for key, value in _samples(entry):
            metric._values[key + (instance,)] = value


def _merge_histogram(merged: MetricsRegistry, name, help_text, entry) -> None:
    buckets = tuple(float(b) for b in entry.get("buckets", ()))
    counts = [int(c) for c in entry.get("counts", ())]
    if len(counts) != len(buckets) + 1:
        return
    metric = merged.histogram(name, help_text, buckets)
    if metric.buckets != buckets:
        return  # bucket bounds disagree across shard versions: skip
    with metric._lock:
        for index, count in enumerate(counts):
            metric._counts[index] += count
        metric._sum += float(entry.get("sum", 0.0))
        metric._count += int(entry.get("count", 0))


def render_merged(shards: list[Shard]) -> str:
    """The fleet-wide Prometheus text exposition for ``shards``."""
    return merge_shards(shards).render_prometheus()


# -- fleet status -------------------------------------------------------------


def fleet_status(shards: list[Shard], now: float | None = None) -> dict:
    """Per-worker liveness plus fleet totals, for ``GET /fleet``.

    Everything is computed from the shards alone, so any process that
    can read the store directory gets the same answer the serving
    worker would give.
    """
    now = time.time() if now is None else now
    merged = merge_shards(shards)
    workers = []
    uptime_max = 0.0
    for shard in shards:
        uptime = max(0.0, now - shard.started_s)
        uptime_max = max(uptime_max, uptime)
        workers.append(
            {
                "instance": shard.instance,
                "role": shard.role,
                "pid": shard.pid,
                "host": shard.host,
                "alive": True,  # stale shards never reach this list
                "uptime_s": round(uptime, 3),
                "heartbeat_age_s": round(max(0.0, now - shard.written_s), 3),
                "jobs_live": shard.counter_total("repro_jobs_live"),
                "requests_total": shard.counter_total(
                    "repro_http_requests_total"
                ),
                "restarts_total": shard.counter_total(
                    "repro_worker_restarts_total"
                ),
            }
        )

    def _merged_total(name: str) -> float:
        metric = merged.get(name)
        if isinstance(metric, (Counter, Gauge)):
            with metric._lock:
                return float(sum(metric._values.values()))
        return 0.0

    requests_total = _merged_total("repro_http_requests_total")
    latency = merged.get("repro_http_request_seconds")
    quantiles = (
        {
            "p50": round(latency.quantile(0.50), 6),
            "p95": round(latency.quantile(0.95), 6),
            "p99": round(latency.quantile(0.99), 6),
        }
        if isinstance(latency, Histogram) and latency.count
        else {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    )
    return {
        "now_s": round(now, 3),
        "workers": workers,
        "totals": {
            "processes": len(shards),
            "servers": sum(1 for s in shards if s.role == "server"),
            "restarts_total": _merged_total("repro_worker_restarts_total"),
            "jobs_live": _merged_total("repro_jobs_live"),
            "requests_total": requests_total,
            "requests_per_s": round(requests_total / uptime_max, 3)
            if uptime_max > 0
            else 0.0,
            "request_seconds": quantiles,
        },
    }


# -- trace merging ------------------------------------------------------------


def merge_traces(documents: list[dict]) -> dict:
    """Stitch per-process Chrome trace documents into one fleet trace.

    Each document's timestamps are microseconds since *its* process's
    monotonic epoch; the ``epoch_unix_s`` anchor in ``otherData`` maps
    that epoch to wall time, so every document is shifted by
    ``(epoch - min(epochs)) * 1e6`` onto one shared timeline.  A
    ``process_name`` metadata event labels each pid lane with the fleet
    instance name (and role), and ``thread_name`` events label each
    (pid, tid) track, which is what makes the merged file legible in
    Perfetto.  Documents without an anchor are left unshifted.
    """
    epochs = [
        float(doc["otherData"]["epoch_unix_s"])
        for doc in documents
        if isinstance(doc.get("otherData"), dict)
        and "epoch_unix_s" in doc["otherData"]
    ]
    base = min(epochs) if epochs else 0.0
    events: list[dict] = []
    lanes: dict[int, str] = {}
    tids: dict[int, set[int]] = {}
    for doc in documents:
        other = doc.get("otherData") or {}
        epoch = float(other.get("epoch_unix_s", base))
        offset_us = (epoch - base) * 1e6
        for event in doc.get("traceEvents", []):
            if not isinstance(event, dict) or event.get("ph") == "M":
                continue
            shifted = dict(event)
            if isinstance(shifted.get("ts"), (int, float)):
                shifted["ts"] = round(shifted["ts"] + offset_us, 3)
            pid = shifted.get("pid")
            tid = shifted.get("tid")
            if isinstance(pid, int):
                if isinstance(other.get("instance"), str):
                    label = other["instance"]
                    role = other.get("role")
                    lanes[pid] = f"{label} ({role})" if role else label
                else:
                    lanes.setdefault(pid, f"pid-{pid}")
                if isinstance(tid, int):
                    tids.setdefault(pid, set()).add(tid)
            events.append(shifted)
    events.sort(key=lambda e: (e.get("ts", 0), e.get("pid", 0)))

    metadata: list[dict] = []
    for pid in sorted(lanes):
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": lanes[pid]},
            }
        )
        for index, tid in enumerate(sorted(tids.get(pid, ()))):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": "main" if index == 0 else f"t{index}"},
                }
            )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs.fleet",
            "merged_documents": len(documents),
            "pids": sorted(lanes),
        },
    }


def merge_store_traces(
    root: str | Path, extra: list[dict] | None = None
) -> dict:
    """Merge every live trace spill under ``root`` (plus ``extra``
    documents)."""
    documents = read_live(root, "traces")
    if extra:
        documents = documents + list(extra)
    return merge_traces(documents)


# -- fleet profile windows ----------------------------------------------------


def current_request(root: str | Path, now: float | None = None) -> dict | None:
    """The in-flight profile request, or ``None`` when the window closed."""
    record = read_json(profile_request_path(root))
    if record is None or record.get("kind") != "profile-request":
        return None
    try:
        deadline = float(record.get("deadline_s", 0.0))
    except (TypeError, ValueError):
        return None  # a foreign or damaged request: no window
    if deadline <= (time.time() if now is None else now):
        return None
    return record


def request_profile(
    root: str | Path,
    seconds: float = DEFAULT_WINDOW_S,
    interval_ms: float = DEFAULT_INTERVAL_MS,
    mode: str = "wall",
) -> dict:
    """Publish (or join) a fleet-wide sampling window through the store.

    Taken under the telemetry lock: if another worker already opened a
    window that is still mostly ahead of us, its request is returned
    unchanged so concurrent ``/profile`` calls share one window instead
    of fighting over the per-process profiler.  The window is stamped
    once the lock is held, so time spent waiting for the lock is not
    taken out of it.
    """
    seconds = min(MAX_WINDOW_S, max(0.2, float(seconds)))
    interval_ms = min(100.0, max(1.0, float(interval_ms)))
    with _telemetry_lock(root):
        now = time.time()
        existing = current_request(root, now=now)
        if existing is not None and (
            float(existing["deadline_s"]) - now >= 0.5 * seconds
        ):
            return existing
        request = {
            "schema": PROFILE_SCHEMA,
            "kind": "profile-request",
            "id": uuid.uuid4().hex[:12],
            "mode": mode if mode in ("wall", "cpu") else "wall",
            "seconds": seconds,
            "interval_ms": interval_ms,
            "issued_s": round(now, 3),
            "deadline_s": round(now + seconds, 3),
        }
        write_json(profile_request_path(root), request)
    return request


def spill_profile(root: str | Path, doc: dict) -> Path | None:
    """Atomically write one process's profile document under the store,
    stamped with ``written_s`` and the fleet's ``ttl_s``."""
    name = _file_name(str(doc.get("instance", "proc")), doc.get("pid", 0))
    path = telemetry_dir(root, "profiles") / name
    try:
        write_json(
            path, {**doc, "written_s": round(time.time(), 3), "ttl_s": TTL_S}
        )
    except OSError:
        return None
    REGISTRY.counter(
        "repro_profile_windows_total",
        "Profile sampling windows this process has served",
    ).inc()
    return path


def collect_fleet_profile(
    root: str | Path,
    request: dict,
    grace_s: float = 2.0,
    poll_s: float = 0.1,
    expected: int | None = None,
) -> dict:
    """Wait out a request's window and merge every matching spill.

    ``expected`` defaults to the number of live metric shards — the
    processes whose agents should answer.  Collection returns as soon as
    that many spills carry the request id, or once ``grace_s`` past the
    window deadline has elapsed with whatever arrived.
    """
    if expected is None:
        expected = max(1, len(read_live(root, "metrics", gc=False)))
    deadline = float(request.get("deadline_s", time.time()))
    request_id = request.get("id")
    while True:
        remaining = deadline + 0.2 - time.time()
        if remaining <= 0:
            break
        time.sleep(min(poll_s, remaining))
    stop_at = deadline + 0.2 + max(0.0, grace_s)
    while True:
        docs = [
            doc
            for doc in read_live(root, "profiles", gc=False)
            if doc.get("request_id") == request_id
        ]
        if len(docs) >= expected or time.time() >= stop_at:
            break
        time.sleep(poll_s)
    merged = merge_profile_docs(docs, request=request)
    merged["ttl_s"] = TTL_S
    return merged
