"""Structured spans on a monotonic clock, exported as Chrome trace JSON.

A :class:`Tracer` collects complete ("ph": "X") and instant ("ph": "i")
events; :meth:`Tracer.to_chrome` renders the Trace Event Format that
``chrome://tracing`` and Perfetto load directly, and
:func:`validate_trace` checks an exported or merged document against
that format before ``repro trace`` writes it.  The active tracer is
ambient (a :mod:`contextvars` variable, like the fault injector) so the
engines deep inside a workload runner can reach it without threading a
parameter through every call site.

Zero-cost when disabled: the default tracer is ``None`` and the
module-level :func:`span` helper returns one shared
:class:`contextlib.nullcontext` instance — instrumented code pays a
``ContextVar.get`` and a dict build per span site, nothing more.
Tracing never perturbs execution: spans only *observe* wall time; no
randomness is consumed and no scheduling decision changes, so a traced
run's 45-metric matrix is bit-identical to an untraced run's.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

__all__ = [
    "SpanEvent",
    "Tracer",
    "current_tracer",
    "tracing",
    "span",
    "instant",
    "span_paths",
    "validate_trace",
]


#: Live span-name stack per thread (root-first), maintained by
#: :meth:`Tracer.span` on entry/exit.  This is what gives the sampling
#: profiler (:mod:`repro.obs.prof`) its span attribution: a sample of
#: thread ``tid`` is charged to ``tuple(_SPAN_STACKS[tid])`` — "which
#: phase of which workload", not just "which function".  Plain dict +
#: list mutations are GIL-atomic, so the sampler can snapshot it from a
#: signal handler without taking a lock; entries are removed when a
#: thread's outermost span exits so the map stays bounded by the number
#: of threads currently inside a span.
_SPAN_STACKS: dict[int, list[str]] = {}

# Thread idents are reused; a forked child inherits stacks for parent
# threads that no longer exist and would misattribute samples to them.
if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_SPAN_STACKS.clear)


def span_paths() -> dict[int, tuple[str, ...]]:
    """Snapshot of every thread's live span path (root-first).

    Safe to call from a signal handler: reads one dict and copies each
    list; a momentarily torn read during a concurrent push/pop only
    shifts a single sample's attribution by one span level.
    """
    snapshot: dict[int, tuple[str, ...]] = {}
    for tid, stack in list(_SPAN_STACKS.items()):
        path = tuple(stack)
        if path:
            snapshot[tid] = path
    return snapshot


@dataclass(frozen=True)
class SpanEvent:
    """One recorded event.

    Attributes:
        name: Span label ("task:map:wordcount", "simulate:slave-0", ...).
        cat: Comma-free category string ("task", "phase", "service", ...).
        ts_us: Start time in microseconds since the tracer's epoch.
        dur_us: Duration in microseconds; 0.0 for instant events.
        tid: Identifier of the thread that recorded the event.
        phase: Chrome trace phase — "X" (complete) or "i" (instant).
        args: JSON-safe extra fields shown in the trace viewer.
    """

    name: str
    cat: str
    ts_us: float
    dur_us: float
    tid: int
    phase: str = "X"
    args: dict = field(default_factory=dict)


class Tracer:
    """Collects span events for one traced execution (thread-safe).

    Args:
        max_events: When set, the tracer keeps only the newest
            ``max_events`` events (a bounded flight ring for span data)
            — what a long-running service uses so its tracer cannot
            grow without bound.  ``None`` (the default) keeps
            everything, the right choice for one traced run.
    """

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be at least 1")
        self._epoch_ns = time.perf_counter_ns()
        #: Wall-clock anchor of the monotonic epoch.  Each process's
        #: ``ts`` values are relative to its own ``perf_counter`` epoch;
        #: a multi-process merge rebases them onto a common timeline via
        #: this anchor (see ``repro.obs.fleet.merge_traces``).
        self.epoch_unix_s = time.time()
        self._lock = threading.Lock()
        self._max_events = max_events
        self.events: list[SpanEvent] = []

    def _append(self, event: SpanEvent) -> None:
        with self._lock:
            self.events.append(event)
            if (
                self._max_events is not None
                and len(self.events) > self._max_events
            ):
                del self.events[: len(self.events) - self._max_events]

    def _now_us(self) -> float:
        return (time.perf_counter_ns() - self._epoch_ns) / 1000.0

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "", **args) -> Iterator[None]:
        """Record a complete event spanning the enclosed block."""
        tid = threading.get_ident()
        stack = _SPAN_STACKS.get(tid)
        if stack is None:
            stack = _SPAN_STACKS[tid] = []
        stack.append(name)
        start_ns = time.perf_counter_ns()
        try:
            yield
        finally:
            end_ns = time.perf_counter_ns()
            stack.pop()
            if not stack:
                _SPAN_STACKS.pop(tid, None)
            self._append(
                SpanEvent(
                    name=name,
                    cat=cat,
                    ts_us=(start_ns - self._epoch_ns) / 1000.0,
                    dur_us=(end_ns - start_ns) / 1000.0,
                    tid=tid,
                    args=args,
                )
            )

    def instant(self, name: str, cat: str = "", **args) -> None:
        """Record a zero-duration marker (fault injected, retry, ...)."""
        self._append(
            SpanEvent(
                name=name,
                cat=cat,
                ts_us=self._now_us(),
                dur_us=0.0,
                tid=threading.get_ident(),
                phase="i",
                args=args,
            )
        )

    # -- export ---------------------------------------------------------------

    def to_chrome(self, instance: str | None = None) -> dict:
        """The Chrome Trace Event Format document for this tracer.

        Args:
            instance: Optional fleet instance name recorded in
                ``otherData`` so a multi-process merge can label this
                process's lane.
        """
        pid = os.getpid()
        trace_events = []
        with self._lock:
            events = list(self.events)
        for event in events:
            entry = {
                "name": event.name,
                "cat": event.cat or "repro",
                "ph": event.phase,
                "ts": round(event.ts_us, 3),
                "pid": pid,
                "tid": event.tid,
                "args": event.args,
            }
            if event.phase == "X":
                entry["dur"] = round(event.dur_us, 3)
            else:
                entry["s"] = "t"  # instant scope: thread
            trace_events.append(entry)
        other: dict = {
            "producer": "repro.obs.trace",
            "pid": pid,
            "epoch_unix_s": round(self.epoch_unix_s, 6),
        }
        if instance is not None:
            other["instance"] = instance
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": other,
        }

    def summary(self, top: int = 10) -> list[dict]:
        """Total wall time per span name, descending — a quick hot list."""
        totals: dict[str, list[float]] = {}
        with self._lock:
            events = list(self.events)
        for event in events:
            if event.phase != "X":
                continue
            bucket = totals.setdefault(event.name, [0.0, 0.0])
            bucket[0] += event.dur_us
            bucket[1] += 1
        ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])
        return [
            {"name": name, "total_us": round(total, 1), "count": int(count)}
            for name, (total, count) in ranked[:top]
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)


#: The ambient tracer instrumented code consults; ``None`` = tracing off.
_ACTIVE: contextvars.ContextVar[Tracer | None] = contextvars.ContextVar(
    "repro_tracer", default=None
)

#: Shared no-op context manager returned while tracing is disabled.
_NULL_SPAN = contextlib.nullcontext()


def current_tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE.get()


@contextlib.contextmanager
def tracing(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Activate ``tracer`` for the enclosed execution (``None`` = no-op)."""
    if tracer is None:
        yield None
        return
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def span(name: str, cat: str = "", **args):
    """A span context manager on the ambient tracer; no-op when disabled.

    The disabled path returns one shared ``nullcontext`` instance —
    reentrant, reusable, and allocation-free — which is what keeps the
    default (untraced) configuration within the <2% overhead budget.
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, cat, **args)


def instant(name: str, cat: str = "", **args) -> None:
    """An instant marker on the ambient tracer; no-op when disabled."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.instant(name, cat, **args)


# -- validation ---------------------------------------------------------------

#: Phases the exporters emit: complete, instant, begin/end, metadata.
_VALID_PHASES = {"X", "i", "B", "E", "M"}

#: Metadata event names whose ``args.name`` labels a viewer lane.
_LANE_METADATA = {"process_name", "thread_name"}


def _check_event(index: int, event: object) -> list[str]:
    """Problems with one trace event (empty list = valid)."""
    if not isinstance(event, dict):
        return [f"event {index}: not an object"]
    problems = []
    if not isinstance(event.get("name"), str) or not event["name"]:
        problems.append(f"event {index}: missing or empty 'name'")
    phase = event.get("ph")
    if phase not in _VALID_PHASES:
        problems.append(
            f"event {index}: 'ph' must be one of {sorted(_VALID_PHASES)}, "
            f"got {phase!r}"
        )
    ts = event.get("ts")
    if phase == "M" and ts is None:
        pass  # metadata events are timeless; 'ts' is optional on them
    elif not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
        problems.append(f"event {index}: 'ts' must be a number >= 0, got {ts!r}")
    for key in ("pid", "tid"):
        value = event.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(
                f"event {index}: {key!r} must be an integer, got {value!r}"
            )
    if phase == "X":
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
            problems.append(
                f"event {index}: complete event needs 'dur' >= 0, got {dur!r}"
            )
    if phase == "i" and not event.get("s"):
        problems.append(f"event {index}: instant event needs a scope 's'")
    if phase == "M" and event.get("name") in _LANE_METADATA:
        args = event.get("args")
        label = args.get("name") if isinstance(args, dict) else None
        if not isinstance(label, str) or not label:
            problems.append(
                f"event {index}: {event['name']!r} metadata needs a "
                f"non-empty string 'args.name', got {label!r}"
            )
    return problems


def _check_duration_nesting(events: list) -> list[str]:
    """Per-thread ``B``/``E`` stack discipline and monotone timestamps.

    Chrome's viewer silently mis-renders unbalanced duration events; this
    makes them a hard failure: an ``E`` with no open ``B``, an ``E``
    whose name contradicts the ``B`` it closes, a ``B`` never closed, a
    timestamp that runs backwards within a thread (which would imply a
    negative duration), all get a diagnostic.
    """
    problems = []
    stacks: dict[tuple, list[tuple[int, str, float]]] = {}
    last_ts: dict[tuple, float] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict) or event.get("ph") not in ("B", "E"):
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            continue  # _check_event already reported the bad timestamp
        thread = (event.get("pid"), event.get("tid"))
        if thread in last_ts and ts < last_ts[thread]:
            problems.append(
                f"event {index}: 'ts' {ts!r} runs backwards on tid "
                f"{thread[1]!r} (previous B/E at {last_ts[thread]!r})"
            )
        last_ts[thread] = ts
        stack = stacks.setdefault(thread, [])
        if event["ph"] == "B":
            stack.append((index, str(event.get("name", "")), float(ts)))
            continue
        if not stack:
            problems.append(
                f"event {index}: 'E' with no open 'B' on tid {thread[1]!r}"
            )
            continue
        begin_index, begin_name, begin_ts = stack.pop()
        end_name = event.get("name")
        if end_name and begin_name and end_name != begin_name:
            problems.append(
                f"event {index}: 'E' named {end_name!r} closes 'B' "
                f"{begin_name!r} (event {begin_index})"
            )
        if ts < begin_ts:
            problems.append(
                f"event {index}: negative duration — 'E' at {ts!r} before "
                f"its 'B' at {begin_ts!r} (event {begin_index})"
            )
    for thread, stack in sorted(stacks.items(), key=lambda kv: str(kv[0])):
        for begin_index, begin_name, _ in stack:
            problems.append(
                f"event {begin_index}: 'B' {begin_name!r} on tid "
                f"{thread[1]!r} never closed"
            )
    return problems


def _real_event_threads(events: list) -> dict[int, set]:
    """pid -> set of tids carrying real (non-metadata) events."""
    threads: dict[int, set] = {}
    for event in events:
        if not isinstance(event, dict) or event.get("ph") == "M":
            continue
        pid, tid = event.get("pid"), event.get("tid")
        if isinstance(pid, int) and not isinstance(pid, bool):
            threads.setdefault(pid, set())
            if isinstance(tid, int) and not isinstance(tid, bool):
                threads[pid].add(tid)
    return threads


def _check_fleet_metadata(events: list) -> list[str]:
    """Every pid with real events is labeled for the viewer.

    A merged multi-process trace is only readable if each pid lane has
    a ``process_name`` metadata event and each ``(pid, tid)`` row a
    ``thread_name`` one — otherwise Perfetto shows bare numbers and the
    fleet structure the merge worked to recover is invisible.
    """
    named_pids = set()
    named_threads = set()
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "M":
            continue
        if event.get("name") == "process_name":
            named_pids.add(event.get("pid"))
        elif event.get("name") == "thread_name":
            named_threads.add((event.get("pid"), event.get("tid")))
    problems = []
    for pid, tids in sorted(_real_event_threads(events).items()):
        if pid not in named_pids:
            problems.append(
                f"pid {pid}: has events but no 'process_name' metadata"
            )
        for tid in sorted(tids):
            if (pid, tid) not in named_threads:
                problems.append(
                    f"pid {pid} tid {tid}: has events but no "
                    f"'thread_name' metadata"
                )
    return problems


def validate_trace(
    document: object,
    min_events: int = 1,
    min_pids: int = 0,
    require_process_names: bool = False,
) -> list[str]:
    """All problems with one parsed Chrome trace document (empty = valid).

    The structural contract chrome://tracing and Perfetto rely on: a
    ``traceEvents`` list of at least ``min_events`` events, each with a
    non-empty ``name``, a known ``ph``, a numeric ``ts >= 0`` (optional
    on ``M``), integer ``pid``/``tid``, ``dur >= 0`` on ``X``, a scope
    on ``i`` and a non-empty ``args.name`` on lane metadata; ``B``/``E``
    pairs nest per thread with monotone timestamps.  For a merged
    multi-process trace, ``min_pids`` demands real events from that
    many pids and ``require_process_names`` demands a lane label for
    every pid and ``(pid, tid)`` carrying them.
    """
    if not isinstance(document, dict):
        return ["top level must be a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    problems = []
    if len(events) < min_events:
        problems.append(
            f"expected at least {min_events} events, found {len(events)}"
        )
    for index, event in enumerate(events):
        problems.extend(_check_event(index, event))
    problems.extend(_check_duration_nesting(events))
    if min_pids > 0:
        pids = _real_event_threads(events)
        if len(pids) < min_pids:
            problems.append(
                f"expected events from at least {min_pids} pids, "
                f"found {len(pids)} ({sorted(pids)})"
            )
    if require_process_names:
        problems.extend(_check_fleet_metadata(events))
    return problems
