"""Persistent worker pool for parallel suite collection.

The original parallel path paid two per-workload taxes: it spawned a
fresh worker process (fork + full interpreter state) per workload batch,
and built a fresh five-node :class:`~repro.cluster.testbed.Cluster`
inside every task.  This module replaces that with long-lived workers:

* **Workers are persistent.**  A :class:`CollectionPool` forks its
  workers once; each builds one :class:`Cluster` (and resolves its
  collection config) in its initializer and then characterizes any
  number of workloads on it.  ``Processor.run_workload`` resets all
  microarchitectural state per workload, so reuse is bit-identical to a
  fresh cluster (the invariant the old fan-out already relied on).
* **Work items are compact.**  A task is ``(job, name, store_key,
  meta)`` — the workload name, the store key the result should land
  under, and an observational annotation dict (correlation ids for the
  worker's trace spans).  The config rode along at pool construction.
* **Results travel whole.**  A worker ships back the full
  :func:`~repro.service.store.characterization_to_payload` dict (the
  32 suite payloads pickle to ~120 KB in total), which the parent
  rebuilds with ``characterization_from_payload``.  With a store, the
  worker also writes the object file itself
  (:meth:`ResultStore.put_object`) and ships its ``(digest, nbytes)``
  receipt; the parent — the single index writer —
  :meth:`ResultStore.adopt`\\ s it, so concurrent workers never race
  on ``index.json``.  Without a store a worker writes nothing to disk
  and starts no telemetry agent.

Lifecycle guarantees (pinned by ``tests/cluster/test_worker_pool.py``):

* a worker that dies mid-task surfaces as :class:`WorkerPoolError` in
  the submitting thread — never a hang — and the broken pool is torn
  down rather than reused;
* cooperative cancellation stops dispatching, *drains* in-flight tasks
  (workers stay healthy and reusable), then raises
  :class:`CollectionCancelled`;
* pools are singletons per ``(workers, config, store root)`` and are
  shut down at interpreter exit; results from an abandoned run carry a
  stale generation stamp and are discarded, never misattributed.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue
import threading
from collections import deque
from collections.abc import Callable

from repro.errors import (
    AnalysisError,
    CollectionCancelled,
    StackExecutionError,
    StoreError,
    WorkerPoolError,
)
from repro.obs.log import get_logger

__all__ = [
    "CollectionPool",
    "get_pool",
    "shutdown_pools",
    "CRASH_ENV",
]

_log = get_logger("repro.cluster.pool")

#: Test hook: a worker assigned the named workload exits immediately and
#: uncleanly (``os._exit``), simulating an OOM-killed or segfaulted
#: worker.  Read per task, so tests can arm it around a single call.
CRASH_ENV = "REPRO_POOL_CRASH_WORKLOAD"

#: How long the parent waits between result polls before re-checking
#: worker liveness and the cancel event.
_POLL_S = 0.1

#: Exception types a worker may report that the parent re-raises as
#: themselves (message-only reconstruction) rather than wrapping.
_RERAISABLE = {
    cls.__name__: cls
    for cls in (StackExecutionError, AnalysisError, StoreError)
}


# -- worker side ---------------------------------------------------------------


#: Ring capacity of a pool worker's tracer: plenty for coarse per-task
#: spans (one per workload) without unbounded growth in long-lived pools.
_WORKER_TRACE_CAPACITY = 4096


def _worker_main(tasks, results, init: dict) -> None:
    """The persistent worker loop: build the cluster once, then serve.

    Protocol: each task is ``(generation, index, name, store_key,
    meta)``; ``None`` is the shutdown sentinel.  Each reply is
    ``(generation, index, "ok", (payload, receipt))`` — the full
    characterization payload, plus the ``(digest, nbytes)`` of its
    object file when the pool has a store (else ``None``) — or
    ``(generation, index, "error", {type, message})``.

    Fleet telemetry (store-backed pools only): the worker resets the
    registry values it inherited from the parent at fork (they would
    double-count in the merged view), then publishes its own metric
    shard and a coarse ``pool:characterize:<name>`` trace span per task
    — carrying the submitting client's correlation id from ``meta`` —
    into the store's telemetry directory.  Spans are recorded on a
    worker-local tracer, never activated as the ambient tracer, so the
    engines inside the characterization stay on their zero-cost
    disabled path.
    """
    # Imported here: the worker resolves its own instances post-fork,
    # and the service layer sits above this module.
    from repro.cluster.collection import _characterize_with_retries
    from repro.cluster.testbed import Cluster
    from repro.obs.fleet import TelemetryAgent
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import Tracer
    from repro.service.store import ResultStore, characterization_to_payload
    from repro.workloads.base import RunContext
    from repro.workloads.suite import workload_by_name

    REGISTRY.reset_values()
    tracer = Tracer(max_events=_WORKER_TRACE_CAPACITY)
    store = telemetry = None
    if init["store_root"] is not None:
        store = ResultStore(init["store_root"])
        # This loop *is* the worker process's main thread, so the agent
        # can arm the sampling signals here: fleet profile windows then
        # catch the characterization frames (attributed to the
        # pool:characterize:<name> span) mid-task.
        telemetry = TelemetryAgent(
            init["store_root"],
            instance=f"pool-{os.getpid():x}",
            role="pool",
            tracer=tracer,
        ).start()
    tasks_done = REGISTRY.counter(
        "repro_pool_tasks_total",
        "Workload characterizations finished by pool workers, by outcome",
        ("outcome",),
    )
    cluster = Cluster()
    context = RunContext(scale=init["scale"], seed=init["seed"])
    while True:
        task = tasks.get()
        if task is None:
            if telemetry is not None:
                telemetry.close()
            return
        generation, index, name, store_key, meta = task
        if os.environ.get(CRASH_ENV) == name:
            os._exit(13)
        span_args = {"workload": name}
        correlation = (meta or {}).get("correlation_id")
        if correlation:
            span_args["correlation_id"] = correlation
        try:
            with tracer.span(f"pool:characterize:{name}", "pool", **span_args):
                characterization = _characterize_with_retries(
                    cluster,
                    workload_by_name(name),
                    context,
                    init["measurement"],
                    init["faults"],
                    init["retries"],
                    init["timeline"],
                    init["flight_capacity"],
                )
            payload = characterization_to_payload(characterization)
            receipt = (
                store.put_object(store_key, payload) if store is not None
                else None
            )
            tasks_done.inc(outcome="ok")
            results.put((generation, index, "ok", (payload, receipt)))
        except BaseException as error:  # noqa: BLE001 — must reach the parent
            tasks_done.inc(outcome="error")
            results.put(
                (
                    generation,
                    index,
                    "error",
                    {"type": type(error).__name__, "message": str(error)},
                )
            )
            if not isinstance(error, Exception):
                if telemetry is not None:
                    telemetry.close()
                raise  # KeyboardInterrupt/SystemExit: report, then die
        # Publish the finished task's span and counters promptly — a
        # merge right after a job completes must see this worker's lane.
        if telemetry is not None:
            telemetry.write_now()


# -- parent side ---------------------------------------------------------------


class CollectionPool:
    """A fixed set of long-lived collection workers (see module docstring)."""

    def __init__(self, workers: int, init: dict) -> None:
        if workers < 1:
            raise WorkerPoolError("a pool needs at least one worker")
        ctx = multiprocessing.get_context()
        self.workers = workers
        self._tasks = ctx.Queue()
        self._results = ctx.Queue()
        self._generation = 0
        self._lock = threading.Lock()
        self._closed = False
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(self._tasks, self._results, init),
                daemon=True,
                name=f"repro-pool-{i}",
            )
            for i in range(workers)
        ]
        for proc in self._procs:
            proc.start()

    # -- submission -----------------------------------------------------------

    def run(
        self,
        items: list[tuple[str, str]],
        cancel: threading.Event | None = None,
        on_result: Callable[[int, tuple], None] | None = None,
        meta: dict | None = None,
    ) -> list[tuple]:
        """Characterize ``items`` (``(name, store_key)`` pairs), in order.

        Returns each item's ``(payload, receipt)`` reply (see
        :func:`_worker_main`).  Tasks are dispatched at most ``workers`` at a time, so a
        cooperative cancel only ever has to drain what is actually
        running.  ``on_result`` fires in *submission* order as results
        become emittable (later completions are buffered), exactly like
        the serial path's per-workload callback.

        ``meta`` is an optional JSON-safe annotation dict (correlation
        ids) that rides along on every task for the workers' telemetry;
        it never influences the characterizations.

        Raises:
            WorkerPoolError: A worker died mid-task; the pool is torn
                down and must not be reused.
            CollectionCancelled: ``cancel`` was set; in-flight tasks
                were drained and the pool remains healthy.
            StackExecutionError, AnalysisError, StoreError: Re-raised
                from the worker that hit them.
        """
        with self._lock:
            if self._closed:
                raise WorkerPoolError("pool is shut down")
            self._generation += 1
            generation = self._generation
            return self._run_locked(generation, items, cancel, on_result, meta)

    def _run_locked(self, generation, items, cancel, on_result, meta=None):
        pending = deque(enumerate(items))
        outstanding: dict[int, str] = {}
        buffered: dict[int, tuple] = {}
        ordered: list[tuple] = []
        next_emit = 0
        cancelled = False

        def emit_ready() -> None:
            nonlocal next_emit
            while next_emit in buffered:
                result = buffered.pop(next_emit)
                ordered.append(result)
                if on_result is not None:
                    on_result(next_emit, result)
                next_emit += 1

        while pending or outstanding:
            if cancel is not None and cancel.is_set():
                cancelled = True
                pending.clear()
                if not outstanding:
                    break
            while pending and len(outstanding) < self.workers:
                index, (name, store_key) = pending.popleft()
                self._tasks.put((generation, index, name, store_key, meta))
                outstanding[index] = name
            if not outstanding:
                continue
            try:
                gen, index, status, data = self._results.get(timeout=_POLL_S)
            except queue.Empty:
                self._check_alive(outstanding)
                continue
            if gen != generation:
                continue  # stale result from an abandoned run
            outstanding.pop(index, None)
            if status == "error":
                self._raise_worker_error(data)
            buffered[index] = data
            if not cancelled:
                emit_ready()
        if cancelled:
            raise CollectionCancelled(
                "suite collection cancelled; in-flight workloads drained"
            )
        emit_ready()
        return ordered

    def _raise_worker_error(self, data: dict) -> None:
        cls = _RERAISABLE.get(data["type"])
        if cls is not None:
            raise cls(data["message"])
        raise WorkerPoolError(
            f"collection worker failed: {data['type']}: {data['message']}"
        )

    def _check_alive(self, outstanding: dict[int, str]) -> None:
        dead = [p for p in self._procs if not p.is_alive()]
        if not dead:
            return
        names = ", ".join(sorted(outstanding.values())) or "none"
        codes = ", ".join(str(p.exitcode) for p in dead)
        self._teardown()
        raise WorkerPoolError(
            f"{len(dead)} collection worker(s) died (exit codes: {codes}) "
            f"with workloads outstanding: {names}"
        )

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop all workers: sentinel each, join, terminate stragglers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._procs:
                try:
                    self._tasks.put(None)
                except (OSError, ValueError):
                    break
            for proc in self._procs:
                proc.join(timeout=timeout)
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
            self._tasks.close()
            self._results.close()

    def _teardown(self) -> None:
        """Kill a broken pool (called with the run lock already held)."""
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=1.0)
        self._tasks.close()
        self._results.close()
        _forget(self)

    @property
    def closed(self) -> bool:
        return self._closed


# -- singleton management ------------------------------------------------------

_POOLS: dict[tuple, CollectionPool] = {}
_POOLS_LOCK = threading.Lock()

#: Forked workers inherit this module's atexit hook; it is guarded on
#: the registering process so a worker exiting never sentinels its own
#: siblings.
_OWNER_PID = os.getpid()


def get_pool(workers: int, init: dict, token: str) -> CollectionPool:
    """The process-wide pool for ``(workers, token, store_root)``.

    A healthy matching pool is reused; a differing configuration shuts
    the old pool down first (one pool's worth of processes at a time).
    """
    key = (workers, token, str(init["store_root"]))
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is not None and not pool.closed:
            return pool
        for old in list(_POOLS.values()):
            old.shutdown()
        _POOLS.clear()
        pool = CollectionPool(workers, init)
        _POOLS[key] = pool
        return pool


def _forget(pool: CollectionPool) -> None:
    with _POOLS_LOCK:
        for key, value in list(_POOLS.items()):
            if value is pool:
                del _POOLS[key]


def shutdown_pools() -> None:
    """Shut down every live pool (atexit hook; also used by tests)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


def _atexit_shutdown() -> None:
    if os.getpid() == _OWNER_PID:
        shutdown_pools()


atexit.register(_atexit_shutdown)
