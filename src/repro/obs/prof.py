"""Continuous statistical CPU profiling with span attribution.

The paper's method is profiling workloads; this module turns the same
lens on the reproduction's own fleet.  A :class:`Profiler` samples every
thread's Python stack at a fixed interval and charges each sample to the
thread's **live span path** (:func:`repro.obs.trace.span_paths`), so a
profile answers "which phase of which workload burned the time" —
``pool:characterize:H-Sort`` / ``simulate`` — and not just "which
function".  Everything is stdlib-only and purely observational: sampling
reads frames and span names, consumes no randomness, and changes no
scheduling decision, so a characterization with profiling enabled stays
bit-identical to one without.

**Sampler protocol.**  Two clocks drive the sampler:

- ``signal`` — ``signal.setitimer`` fires ``SIGALRM`` (wall mode) or
  ``SIGPROF`` (CPU mode, counts only when the process is on-CPU) every
  ``interval_ms``; the Python handler walks ``sys._current_frames()``.
  CPython only allows handler installation from the **main thread**, so
  installation is split out as the *arm protocol*: :func:`arm` installs
  the handlers (a no-op returning ``False`` off the main thread) and is
  called once at every process entry point — CLI main, supervisor,
  forked server worker, pool worker — after which ``setitimer`` itself
  may be called from *any* thread, making start/stop safe from HTTP
  handler threads and the telemetry agent.
- ``thread`` — a daemon thread samples on an ``Event.wait`` timer; the
  fallback when the process never armed (e.g. a server embedded in a
  test's background thread).  Wall mode only.

Samples whose leaf frame sits in a known blocking stdlib module
(``threading.py``, ``selectors.py``, ``queue.py``, ...) or is a
``ThreadPoolExecutor`` worker waiting on its work queue are classified
*idle*: parked worker loops and accept/poll waits.  Attribution quality
is judged on the busy remainder — see :func:`attribution`.

**Fleet integration** lives in :mod:`repro.obs.fleet`: each process's
:class:`~repro.obs.fleet.TelemetryAgent` arms the process, opens a
:class:`Profiler` for every fleet sampling window published in the
store, and spills the window's document for the requesting worker to
merge with :func:`merge_profile_docs`.  This module knows nothing about
the store: it samples, and it builds, merges and summarises documents.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time

from repro.obs.trace import span_paths

__all__ = [
    "PROFILE_SCHEMA",
    "Profiler",
    "ProfilerError",
    "arm",
    "armed",
    "UNATTRIBUTED_BUSY",
    "UNATTRIBUTED_IDLE",
    "merge_profile_docs",
    "collapsed_stacks",
    "span_totals",
    "attribution",
    "validate_profile",
]

#: Version stamp of profile documents; readers skip other schemas.
PROFILE_SCHEMA = 1

#: Default sampling interval; 5ms = 200Hz, cheap enough to leave the
#: fleet responsive while a window is open.
DEFAULT_INTERVAL_MS = 5.0

#: Deepest stack recorded per sample; frames below the cut are dropped
#: from the root end (the leaf is what a profile is about).
MAX_STACK_DEPTH = 64

#: A sample whose *leaf* frame lives in one of these stdlib files is a
#: parked thread (lock/queue/select wait), not CPU work.
_IDLE_BASENAMES = frozenset(
    {
        "threading.py",
        "selectors.py",
        "queue.py",
        "socket.py",
        "socketserver.py",
        "ssl.py",
        "connection.py",
        "synchronize.py",
        "process.py",
        "popen_fork.py",
        "subprocess.py",
    }
)

#: Leaf frames (as labelled in a profile) that block in C without a
#: Python frame of their own: a ``ThreadPoolExecutor`` worker parked in
#: ``SimpleQueue.get`` shows ``_worker`` as its leaf.
_IDLE_LEAVES = frozenset({"futures/thread.py:_worker"})

#: Roots used for samples with no live span path.
UNATTRIBUTED_BUSY = "(untracked)"
UNATTRIBUTED_IDLE = "(idle)"

_LABEL_CACHE: dict[object, str] = {}
_PROF_FILE = __file__


class ProfilerError(RuntimeError):
    """Profiler misuse: double-start, CPU mode without the arm, ..."""


# -- the arm protocol ---------------------------------------------------------

_STATE_LOCK = threading.Lock()
_ARMED = False
_ACTIVE: "Profiler | None" = None


def _reset_after_fork() -> None:
    # The forked child inherits installed handlers (kept: _ARMED stays
    # valid) but not the parent's itimer or its in-flight profiler.
    global _ACTIVE
    _ACTIVE = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_after_fork)


def _on_tick(signum, frame) -> None:
    profiler = _ACTIVE
    if profiler is not None:
        profiler._sample(signal_frame=frame)


def arm() -> bool:
    """Install the profiling signal handlers (main thread only).

    Idempotent and cheap; returns ``True`` once the handlers are in
    place.  Called from a non-main thread — or on a platform without
    ``setitimer`` — it returns ``False`` and the profiler falls back to
    its thread clock.
    """
    global _ARMED
    if _ARMED:
        return True
    if not hasattr(signal, "setitimer"):  # pragma: no cover - POSIX only
        return False
    if threading.current_thread() is not threading.main_thread():
        return False
    try:
        signal.signal(signal.SIGALRM, _on_tick)
        signal.signal(signal.SIGPROF, _on_tick)
    except (ValueError, OSError):  # pragma: no cover - defensive
        return False
    _ARMED = True
    return True


def armed() -> bool:
    """Whether this process's signal handlers are installed."""
    return _ARMED


# -- frame extraction ---------------------------------------------------------


def _frame_label(code) -> str:
    label = _LABEL_CACHE.get(code)
    if label is None:
        name = getattr(code, "co_qualname", code.co_name)
        parts = code.co_filename.replace("\\", "/").rsplit("/", 3)
        short = "/".join(parts[-2:])
        label = f"{short}:{name}"
        _LABEL_CACHE[code] = label
    return label


def _extract_stack(frame) -> tuple[tuple[str, ...], bool]:
    """(root-first frame labels, leaf-is-idle) for one thread's frame."""
    labels: list[str] = []
    idle = False
    depth = 0
    leaf_seen = False
    while frame is not None and depth < MAX_STACK_DEPTH:
        code = frame.f_code
        if code.co_filename != _PROF_FILE:
            label = _frame_label(code)
            if not leaf_seen:
                leaf_seen = True
                basename = code.co_filename.rpartition("/")[2]
                idle = basename in _IDLE_BASENAMES or label in _IDLE_LEAVES
            labels.append(label)
        frame = frame.f_back
        depth += 1
    labels.reverse()
    return tuple(labels), idle


# -- the profiler -------------------------------------------------------------


class Profiler:
    """One statistical sampling window over every thread in the process.

    Args:
        mode: ``"wall"`` samples on elapsed time (parked threads appear
            and are flagged idle); ``"cpu"`` samples on consumed CPU
            time via ``ITIMER_PROF`` and requires the signal clock.
        interval_ms: Sampling period.
        clock: ``"auto"`` uses the signal clock when this process is
            :func:`armed <arm>` (arming on the fly when running on the
            main thread) and the thread clock otherwise; ``"signal"`` /
            ``"thread"`` force one.
        instance: Fleet instance name stamped into the document.
        role: Fleet role stamped into the document.
    """

    def __init__(
        self,
        mode: str = "wall",
        interval_ms: float = DEFAULT_INTERVAL_MS,
        clock: str = "auto",
        instance: str | None = None,
        role: str | None = None,
    ) -> None:
        if mode not in ("wall", "cpu"):
            raise ValueError(f"unknown profiler mode {mode!r}")
        if clock not in ("auto", "signal", "thread"):
            raise ValueError(f"unknown profiler clock {clock!r}")
        self.mode = mode
        self.interval_ms = min(100.0, max(1.0, float(interval_ms)))
        self.instance = instance or f"pid-{os.getpid()}"
        self.role = role or "process"
        self._clock_requested = clock
        self.clock: str | None = None
        self._counts: dict[tuple[tuple[str, ...], tuple[str, ...], bool], int] = {}
        self._ticks = 0
        self._started_unix = 0.0
        self._started_mono = 0.0
        self.duration_s = 0.0
        self._running = False
        self._sampler_tid: int | None = None
        self._main_tid = threading.main_thread().ident
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.document: dict | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "Profiler":
        global _ACTIVE
        with _STATE_LOCK:
            if self._running:
                raise ProfilerError("profiler already started")
            if _ACTIVE is not None:
                raise ProfilerError(
                    "another profiler is already sampling this process"
                )
            use_signal = armed() or (
                self._clock_requested != "thread" and arm()
            )
            if self._clock_requested == "signal" and not use_signal:
                raise ProfilerError(
                    "signal clock requested but the process is not armed "
                    "(call repro.obs.prof.arm() from the main thread)"
                )
            if self.mode == "cpu" and not use_signal:
                raise ProfilerError(
                    "cpu mode needs the signal clock; arm() the process "
                    "from its main thread first"
                )
            self.clock = (
                "signal"
                if use_signal and self._clock_requested != "thread"
                else "thread"
            )
            self._running = True
            self._started_unix = time.time()
            self._started_mono = time.perf_counter()
            _ACTIVE = self
            interval_s = self.interval_ms / 1000.0
            if self.clock == "signal":
                timer = (
                    signal.ITIMER_PROF
                    if self.mode == "cpu"
                    else signal.ITIMER_REAL
                )
                self._timer = timer
                signal.setitimer(timer, interval_s, interval_s)
            else:
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._run_thread_clock,
                    name="prof-sampler",
                    daemon=True,
                )
                self._thread.start()
        return self

    def stop(self) -> dict:
        """Stop sampling and return this window's profile document."""
        global _ACTIVE
        with _STATE_LOCK:
            if not self._running:
                raise ProfilerError("profiler is not running")
            if self.clock == "signal":
                signal.setitimer(self._timer, 0.0, 0.0)
            else:
                self._stop.set()
            if _ACTIVE is self:
                _ACTIVE = None
            self._running = False
        if self._thread is not None:
            self._thread.join(timeout=1.0 + self.interval_ms / 1000.0)
            self._thread = None
        self.duration_s = time.perf_counter() - self._started_mono
        self.document = self._to_doc()
        return self.document

    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        if self._running:
            self.stop()

    # -- sampling ---------------------------------------------------------

    def _run_thread_clock(self) -> None:
        self._sampler_tid = threading.get_ident()
        interval_s = self.interval_ms / 1000.0
        while not self._stop.wait(interval_s):
            self._sample()

    def _sample(self, signal_frame=None) -> None:
        try:
            paths = span_paths()
            frames = sys._current_frames()
        except Exception:  # pragma: no cover - sampling is best-effort
            return
        self._ticks += 1
        counts = self._counts
        for tid, frame in frames.items():
            if tid == self._sampler_tid:
                continue
            if signal_frame is not None and tid == self._main_tid:
                # The handler runs on the main thread; its entry in
                # _current_frames() is the handler itself.  The frame
                # the signal interrupted is what we were executing.
                frame = signal_frame
            stack, idle = _extract_stack(frame)
            if not stack:
                continue
            key = (paths.get(tid, ()), stack, idle)
            counts[key] = counts.get(key, 0) + 1

    # -- export -----------------------------------------------------------

    def _to_doc(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "kind": "cpu-profile",
            "instance": self.instance,
            "role": self.role,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "mode": self.mode,
            "clock": self.clock,
            "interval_ms": self.interval_ms,
            "duration_s": round(self.duration_s, 6),
            "started_s": round(self._started_unix, 3),
            "written_s": round(time.time(), 3),
            "ticks": self._ticks,
            "samples": sum(self._counts.values()),
            "stacks": _stack_rows(self._counts),
        }


# -- profile documents --------------------------------------------------------


def _stack_rows(counts: dict) -> list[list]:
    """The document's ``stacks`` rows for (spans, frames, idle) counts,
    hottest first."""
    return [
        [list(spans), list(frames), count, int(idle)]
        for (spans, frames, idle), count in sorted(
            counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]


def _iter_stacks(doc: dict):
    for entry in doc.get("stacks", ()):
        spans, frames, count, idle = entry
        yield tuple(spans), tuple(frames), int(count), bool(idle)


def merge_profile_docs(docs: list[dict], request: dict | None = None) -> dict:
    """Sum per-process profile documents into one fleet profile.

    Counts are summed per (span path, frame stack, idle) key, so a merge
    of N spills holds exactly the sum of their samples.  Per-process
    provenance is kept under ``processes``.
    """
    counts: dict[tuple[tuple[str, ...], tuple[str, ...], bool], int] = {}
    processes = []
    ticks = 0
    duration = 0.0
    for doc in docs:
        if not isinstance(doc, dict) or doc.get("schema") != PROFILE_SCHEMA:
            continue
        for spans, frames, count, idle in _iter_stacks(doc):
            key = (spans, frames, idle)
            counts[key] = counts.get(key, 0) + count
        ticks += int(doc.get("ticks", 0))
        duration = max(duration, float(doc.get("duration_s", 0.0)))
        processes.append(
            {
                "instance": doc.get("instance"),
                "role": doc.get("role"),
                "pid": doc.get("pid"),
                "clock": doc.get("clock"),
                "samples": int(doc.get("samples", 0)),
            }
        )
    merged = {
        "schema": PROFILE_SCHEMA,
        "kind": "cpu-profile",
        "merged": True,
        "mode": (request or {}).get(
            "mode", docs[0].get("mode", "wall") if docs else "wall"
        ),
        "interval_ms": float(
            (request or {}).get(
                "interval_ms",
                docs[0].get("interval_ms", DEFAULT_INTERVAL_MS)
                if docs
                else DEFAULT_INTERVAL_MS,
            )
        ),
        "duration_s": round(duration, 6),
        "written_s": round(time.time(), 3),
        "ticks": ticks,
        "samples": sum(counts.values()),
        "processes": processes,
        "stacks": _stack_rows(counts),
    }
    if request is not None:
        merged["request_id"] = request.get("id")
    return merged


def _stack_root(spans: tuple[str, ...], idle: bool) -> tuple[str, ...]:
    if spans:
        return spans
    return (UNATTRIBUTED_IDLE,) if idle else (UNATTRIBUTED_BUSY,)


def collapsed_stacks(doc: dict, include_idle: bool = True) -> str:
    """Brendan-Gregg collapsed-stack text: ``root;..;leaf count`` lines.

    Span-path segments lead each line, so flamegraph tooling groups
    frames under the span that owned them.
    """
    lines = []
    for spans, frames, count, idle in _iter_stacks(doc):
        if idle and not spans and not include_idle:
            continue
        path = _stack_root(spans, idle) + frames
        lines.append((count, ";".join(path)))
    lines.sort(key=lambda item: (-item[0], item[1]))
    return "\n".join(f"{path} {count}" for count, path in lines)


def span_totals(doc: dict, top: int | None = None) -> list[dict]:
    """Samples per span path (descending) — the profile's hot list."""
    totals: dict[tuple[str, ...], int] = {}
    for spans, _frames, count, idle in _iter_stacks(doc):
        root = _stack_root(spans, idle)
        totals[root] = totals.get(root, 0) + count
    samples = max(1, int(doc.get("samples", 0)))
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    if top is not None:
        ranked = ranked[:top]
    return [
        {
            "path": ";".join(path),
            "samples": count,
            "fraction": round(count / samples, 4),
        }
        for path, count in ranked
    ]


def attribution(doc: dict) -> dict:
    """How much of the profile lands on a known span path.

    ``fraction`` is computed over the *busy* samples (idle parked-thread
    samples with no span are excluded): a wall profile of a quiescent
    fleet is dominated by accept/poll/queue waits, and attribution is a
    statement about where the work went.
    """
    attributed = idle = untracked = 0
    for spans, _frames, count, is_idle in _iter_stacks(doc):
        if spans:
            attributed += count
        elif is_idle:
            idle += count
        else:
            untracked += count
    busy = attributed + untracked
    return {
        "samples": attributed + idle + untracked,
        "attributed": attributed,
        "idle": idle,
        "untracked": untracked,
        "fraction": round(attributed / busy, 4) if busy else 0.0,
    }


def validate_profile(
    doc: dict,
    min_samples: int = 1,
    min_span_fraction: float | None = None,
) -> list[str]:
    """Structural + statistical checks; returns problems (empty = ok)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["profile is not a JSON object"]
    if doc.get("schema") != PROFILE_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, want {PROFILE_SCHEMA}")
        return problems
    if doc.get("kind") != "cpu-profile":
        problems.append(f"kind is {doc.get('kind')!r}, want 'cpu-profile'")
    if float(doc.get("interval_ms", 0.0)) <= 0:
        problems.append("interval_ms must be positive")
    if float(doc.get("duration_s", 0.0)) <= 0:
        problems.append("duration_s must be positive")
    total = 0
    try:
        for _spans, frames, count, _idle in _iter_stacks(doc):
            if count < 1:
                problems.append(f"non-positive stack count {count}")
            if not frames:
                problems.append("empty frame stack entry")
            total += count
    except (TypeError, ValueError, KeyError):
        problems.append("malformed stacks entry")
        return problems
    if total != int(doc.get("samples", -1)):
        problems.append(
            f"samples says {doc.get('samples')}, stacks sum to {total}"
        )
    if total < min_samples:
        problems.append(f"only {total} samples, want >= {min_samples}")
    if min_span_fraction is not None:
        stats = attribution(doc)
        if stats["fraction"] < min_span_fraction:
            problems.append(
                f"span attribution {stats['fraction']:.3f} below "
                f"{min_span_fraction:.3f} "
                f"(attributed {stats['attributed']}, "
                f"untracked {stats['untracked']}, idle {stats['idle']})"
            )
    if doc.get("merged") and not doc.get("processes"):
        problems.append("merged profile lists no source processes")
    return problems
