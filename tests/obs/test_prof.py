"""Tests for the statistical CPU profiler and its fleet shard lifecycle.

Covers the sampler itself (both clocks, span attribution, bit-identity
of a characterization running under it), the profile-document algebra
(collapsed stacks, exact merges, attribution math, validation), the
store-coordinated request/spill protocol, and — reusing the fork-based
race harness from ``test_fleet.py`` — two-process concurrent spills
merging to exact totals plus exactly-once GC of stale captures.
"""

import contextlib
import multiprocessing
import os
import signal as signal_module
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.cluster.testbed import Cluster, MeasurementConfig
from repro.durable import write_json
from repro.obs import fleet
from repro.obs.fleet import (
    MAX_WINDOW_S,
    TTL_S,
    TelemetryAgent,
    collect_fleet_profile,
    current_request,
    gc_stale,
    load_shard,
    profile_request_path,
    read_live,
    request_profile,
    spill_profile,
    telemetry_dir,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import (
    PROFILE_SCHEMA,
    Profiler,
    ProfilerError,
    attribution,
    collapsed_stacks,
    merge_profile_docs,
    span_totals,
    validate_profile,
)
from repro.obs.trace import Tracer, tracing
from repro.workloads import RunContext, workload_by_name

_MP = multiprocessing.get_context("fork") if hasattr(os, "fork") else None

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="race harness needs os.fork()"
)
needs_setitimer = pytest.mark.skipif(
    not hasattr(signal_module, "setitimer"),
    reason="signal clock needs signal.setitimer()",
)


def _burn(seconds: float) -> float:
    """Spin the CPU for ``seconds`` so the sampler has work to catch."""
    deadline = time.perf_counter() + seconds
    acc = 0.0
    while time.perf_counter() < deadline:
        for i in range(500):
            acc += i * 0.5
    return acc


# -- the sampler --------------------------------------------------------------


def test_thread_clock_attributes_samples_to_the_ambient_span():
    tracer = Tracer()
    profiler = Profiler(clock="thread", interval_ms=2.0).start()
    try:
        with tracing(tracer), tracer.span("test:burn"):
            _burn(0.25)
    finally:
        doc = profiler.stop()

    assert doc["schema"] == PROFILE_SCHEMA
    assert doc["kind"] == "cpu-profile"
    assert doc["clock"] == "thread"
    assert doc["samples"] > 0
    assert validate_profile(doc) == []
    stats = attribution(doc)
    assert stats["attributed"] > 0
    # The main thread spent the window inside the span; the only other
    # threads are parked waiters, which land in the idle bucket.
    assert stats["fraction"] >= 0.5
    assert any(
        row["path"] == "test:burn" for row in span_totals(doc)
    ), span_totals(doc)


@needs_setitimer
def test_signal_clock_starts_and_stops_off_the_main_thread():
    """The arm protocol: handlers are installed once on the main thread,
    after which any thread may run setitimer windows."""
    from repro.obs.prof import arm, armed

    assert arm() is True  # pytest runs tests on the main thread
    assert armed() is True

    tracer = Tracer()
    started = threading.Event()
    release = threading.Event()
    result: dict = {}

    def window() -> None:
        profiler = Profiler(clock="signal", interval_ms=2.0).start()
        started.set()
        release.wait(timeout=5.0)
        result["doc"] = profiler.stop()

    worker = threading.Thread(target=window)
    worker.start()
    assert started.wait(timeout=5.0)
    with tracing(tracer), tracer.span("test:signal-burn"):
        _burn(0.25)
    release.set()
    worker.join(timeout=5.0)

    doc = result["doc"]
    assert doc["clock"] == "signal"
    assert doc["samples"] > 0
    assert any(row["path"] == "test:signal-burn" for row in span_totals(doc))


def test_profiler_lifecycle_errors():
    with pytest.raises(ValueError):
        Profiler(mode="flame")
    with pytest.raises(ValueError):
        Profiler(clock="sundial")
    profiler = Profiler(clock="thread").start()
    try:
        with pytest.raises(ProfilerError, match="already started"):
            profiler.start()
        # Only one sampling window per process at a time.
        with pytest.raises(ProfilerError, match="already sampling"):
            Profiler(clock="thread").start()
    finally:
        profiler.stop()
    with pytest.raises(ProfilerError, match="not running"):
        profiler.stop()


def test_parked_executor_worker_samples_are_idle():
    """A ThreadPoolExecutor worker waiting for work blocks in C
    (``SimpleQueue.get``), so its leaf frame is the pool's ``_worker``
    loop itself: it must land in the idle bucket, not count as
    untracked busy time."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(lambda: None).result(timeout=5.0)
        profiler = Profiler(clock="thread", interval_ms=2.0).start()
        time.sleep(0.2)
        doc = profiler.stop()
    parked = [
        entry
        for entry in doc["stacks"]
        if entry[1][-1] == "futures/thread.py:_worker"
    ]
    assert parked, doc["stacks"]
    assert all(idle == 1 and not spans for spans, _f, _c, idle in parked)
    assert attribution(doc)["idle"] >= sum(entry[2] for entry in parked)


def test_characterization_is_bit_identical_under_the_profiler():
    """The acceptance invariant: sampling observes, never perturbs."""
    workload = workload_by_name("H-WordCount")
    context = RunContext(scale=0.2, seed=13)
    measurement = MeasurementConfig(
        slaves_measured=1, active_cores=2, ops_per_core=800, perf_repeats=2
    )
    baseline = Cluster().characterize_workload(workload, context, measurement)
    with Profiler(clock="thread", interval_ms=2.0):
        profiled = Cluster().characterize_workload(
            workload, context, measurement
        )
    assert baseline.metrics == profiled.metrics
    assert baseline.per_slave == profiled.per_slave


# -- document algebra ---------------------------------------------------------


def _doc(stacks, **extra) -> dict:
    base = {
        "schema": PROFILE_SCHEMA,
        "kind": "cpu-profile",
        "instance": extra.pop("instance", "unit"),
        "role": "test",
        "pid": extra.pop("pid", os.getpid()),
        "mode": "wall",
        "clock": "thread",
        "interval_ms": 5.0,
        "duration_s": 1.0,
        "written_s": extra.pop("written_s", time.time()),
        "ttl_s": extra.pop("ttl_s", TTL_S),
        "ticks": sum(entry[2] for entry in stacks),
        "samples": sum(entry[2] for entry in stacks),
        "stacks": stacks,
    }
    base.update(extra)
    return base


SAMPLE_STACKS = [
    [["svc", "job"], ["a.py:f", "b.py:g"], 5, 0],
    [[], ["c.py:h"], 3, 0],
    [[], ["threading.py:wait"], 2, 1],
]


def _write_stale_spill(root, instance: str, pid: int):
    """A spill written a minute ago with a 1 s TTL (``spill_profile``
    always stamps the present, so it is written directly)."""
    path = telemetry_dir(root, "profiles") / f"{instance}-{pid}.json"
    doc = _doc(
        SAMPLE_STACKS,
        instance=instance,
        pid=pid,
        written_s=time.time() - 60.0,
        ttl_s=1.0,
    )
    write_json(path, doc)
    return path


def test_collapsed_stacks_lead_with_the_span_path():
    doc = _doc(SAMPLE_STACKS)
    lines = collapsed_stacks(doc).splitlines()
    assert lines == [
        "svc;job;a.py:f;b.py:g 5",
        "(untracked);c.py:h 3",
        "(idle);threading.py:wait 2",
    ]
    assert "(idle)" not in collapsed_stacks(doc, include_idle=False)


def test_attribution_is_over_busy_samples_only():
    stats = attribution(_doc(SAMPLE_STACKS))
    assert stats == {
        "samples": 10,
        "attributed": 5,
        "idle": 2,
        "untracked": 3,
        "fraction": round(5 / 8, 4),
    }
    totals = span_totals(_doc(SAMPLE_STACKS), top=1)
    assert totals == [{"path": "svc;job", "samples": 5, "fraction": 0.5}]


def test_merge_sums_counts_exactly_per_stack_key():
    left = _doc(
        [[["svc"], ["a.py:f"], 4, 0], [[], ["b.py:g"], 1, 0]],
        instance="w1",
        pid=101,
    )
    right = _doc(
        [[["svc"], ["a.py:f"], 6, 0], [[], ["c.py:h"], 2, 1]],
        instance="w2",
        pid=102,
    )
    request = {"id": "abc123", "mode": "wall", "interval_ms": 5.0}
    merged = merge_profile_docs([left, right], request=request)
    assert merged["samples"] == left["samples"] + right["samples"]
    assert merged["request_id"] == "abc123"
    assert [p["pid"] for p in merged["processes"]] == [101, 102]
    by_key = {
        (tuple(spans), tuple(frames), idle): count
        for spans, frames, count, idle in merged["stacks"]
    }
    assert by_key[(("svc",), ("a.py:f",), 0)] == 10
    assert validate_profile(merged) == []


def test_validate_profile_catches_torn_documents():
    assert validate_profile({"schema": 99}) != []
    bad = _doc(SAMPLE_STACKS)
    bad["samples"] = 999
    assert any("stacks sum" in p for p in validate_profile(bad))
    empty = _doc([[["svc"], [], 3, 0]])
    assert any("empty frame stack" in p for p in validate_profile(empty))
    thin = _doc(SAMPLE_STACKS)
    problems = validate_profile(thin, min_samples=1000)
    assert any("want >= 1000" in p for p in problems)
    problems = validate_profile(thin, min_span_fraction=0.9)
    assert any("span attribution" in p for p in problems)


# -- the store-coordinated window ---------------------------------------------


def test_concurrent_profile_requests_join_one_window(tmp_path):
    first = request_profile(tmp_path, seconds=5.0)
    joined = request_profile(tmp_path, seconds=5.0)
    assert joined["id"] == first["id"]
    # A much longer window cannot ride an almost-spent short one.
    fresh = request_profile(tmp_path, seconds=30.0)
    assert fresh["id"] != first["id"]
    assert fresh["seconds"] <= MAX_WINDOW_S
    clamped = request_profile(tmp_path, seconds=9999.0)
    assert clamped["seconds"] == MAX_WINDOW_S


def test_current_request_expires_at_the_deadline(tmp_path):
    request = request_profile(tmp_path, seconds=1.0)
    assert current_request(tmp_path)["id"] == request["id"]
    assert current_request(tmp_path, now=time.time() + 10.0) is None


def test_spills_survive_their_writer_but_not_their_ttl(tmp_path):
    # A capture from a pid that no longer exists stays readable: unlike
    # metric shards, a profile is a point-in-time artifact.
    live = _doc(SAMPLE_STACKS, instance="gone", pid=2**22 + 17, ttl_s=5.0)
    path = spill_profile(tmp_path, live)
    assert path is not None and path.parent == telemetry_dir(tmp_path, "profiles")
    (spilled,) = read_live(tmp_path, "profiles")
    assert spilled["instance"] == "gone"
    assert spilled["ttl_s"] == TTL_S  # the fleet's one TTL, stamped on spill

    stale_path = _write_stale_spill(tmp_path, "old", os.getpid())
    docs = read_live(tmp_path, "profiles")  # default gc=True collects it
    assert [d["instance"] for d in docs] == ["gone"]
    assert not stale_path.exists()


def test_read_skips_the_request_file_and_filters_by_request_id(tmp_path):
    request = request_profile(tmp_path, seconds=5.0)
    assert profile_request_path(tmp_path).exists()
    tagged = _doc(SAMPLE_STACKS, instance="w1", request_id=request["id"])
    other = _doc(SAMPLE_STACKS, instance="w2", pid=1, request_id="deadbeef")
    spill_profile(tmp_path, tagged)
    spill_profile(tmp_path, other)
    assert len(read_live(tmp_path, "profiles")) == 2
    closed = {**request, "deadline_s": time.time() - 1.0}
    merged = collect_fleet_profile(tmp_path, closed, grace_s=0, expected=2)
    assert [p["instance"] for p in merged["processes"]] == ["w1"]
    assert merged["samples"] == tagged["samples"]
    assert merged["request_id"] == request["id"]


def test_profile_agent_serves_a_window_end_to_end(tmp_path, monkeypatch):
    monkeypatch.setattr(fleet, "POLL_S", 0.05)
    agent = TelemetryAgent(tmp_path, instance="agent1", role="test")
    agent.start()
    stop_burn = threading.Event()
    tracer = Tracer()

    def busy() -> None:
        with tracing(tracer), tracer.span("test:agent-burn"):
            while not stop_burn.is_set():
                _burn(0.02)

    worker = threading.Thread(target=busy, daemon=True)
    worker.start()
    try:
        request = request_profile(tmp_path, seconds=0.6, interval_ms=2.0)
        merged = collect_fleet_profile(
            tmp_path, request, grace_s=3.0, expected=1
        )
    finally:
        stop_burn.set()
        worker.join(timeout=5.0)
        agent.close()

    assert merged["request_id"] == request["id"]
    assert merged["samples"] > 0
    assert merged["processes"][0]["instance"] == "agent1"
    assert any(
        row["path"] == "test:agent-burn" for row in span_totals(merged)
    ), span_totals(merged)


def test_poke_joins_a_window_without_waiting_for_the_poll(
    tmp_path, monkeypatch
):
    """The publishing process's agent joins its own window at once: with
    polls 30 s apart, only the poke can open a 2 s window in time."""
    monkeypatch.setattr(fleet, "POLL_S", 30.0)
    agent = TelemetryAgent(
        tmp_path, instance="poked", role="test", registry=MetricsRegistry()
    ).start()
    try:
        time.sleep(0.1)  # the loop is now in its 30 s wait
        request = request_profile(tmp_path, seconds=2.0, interval_ms=2.0)
        agent.poke()
        deadline = time.monotonic() + 1.0
        while agent._window is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert agent._window is not None
        assert agent._window[1] == request["id"]
    finally:
        agent.close()


def test_a_slow_lock_does_not_shorten_the_window(tmp_path, monkeypatch):
    """The window is stamped once the telemetry lock is held, so the
    0.2 s spent getting it is not taken out of the window."""
    real_lock = fleet._telemetry_lock

    @contextlib.contextmanager
    def slow_lock(root):
        with real_lock(root):
            time.sleep(0.2)
            yield

    monkeypatch.setattr(fleet, "_telemetry_lock", slow_lock)
    request = request_profile(tmp_path, seconds=1.0)
    now = time.time()
    assert request["deadline_s"] - now == pytest.approx(1.0, abs=0.1)
    assert request["issued_s"] == pytest.approx(now, abs=0.1)


class _LogRecorder:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def info(self, message: str, *args) -> None:
        self.lines.append(message % args)


def test_a_busy_profiler_is_retried_at_the_next_poll(tmp_path, monkeypatch):
    """A window the profiler cannot join yet stays pending: the first
    poll finds a manual profiler sampling this process, the second,
    after it stops, opens the window.  The refusal is logged once."""
    log = _LogRecorder()
    monkeypatch.setattr(fleet, "_log", log)
    agent = TelemetryAgent(
        tmp_path, instance="busy", role="test", registry=MetricsRegistry()
    )
    request = request_profile(tmp_path, seconds=5.0, interval_ms=2.0)
    manual = Profiler(clock="thread", interval_ms=2.0).start()
    try:
        agent._open_window()
        agent._open_window()
    finally:
        manual.stop()
    assert agent._window is None
    assert len(log.lines) == 1 and request["id"] in log.lines[0]
    agent._open_window()
    try:
        assert agent._window is not None
        assert agent._window[1] == request["id"]
    finally:
        agent.close()
    assert len(log.lines) == 1


def test_a_window_with_no_time_left_is_skipped_once(tmp_path, monkeypatch):
    """A request joined with under 0.05 s left is skipped for good, and
    the skip is logged once (the agent's clock is frozen at the join)."""
    log = _LogRecorder()
    monkeypatch.setattr(fleet, "_log", log)
    agent = TelemetryAgent(
        tmp_path, instance="late", role="test", registry=MetricsRegistry()
    )
    now = time.time()
    monkeypatch.setattr(fleet, "time", SimpleNamespace(time=lambda: now))
    write_json(
        profile_request_path(tmp_path),
        {"kind": "profile-request", "id": "late1", "deadline_s": now + 0.04},
    )
    agent._open_window()
    agent._open_window()
    assert agent._window is None
    assert len(log.lines) == 1
    assert "late1" in log.lines[0] and "0.05 s" in log.lines[0]


def _open_window(agent: TelemetryAgent, root, seconds: float) -> dict:
    request = request_profile(root, seconds=seconds, interval_ms=2.0)
    deadline = time.monotonic() + 5.0
    while agent._window is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert agent._window is not None, "the agent never opened the window"
    return request


def test_shard_heartbeat_advances_while_a_window_is_open(
    tmp_path, monkeypatch
):
    """An open window must not stall the agent's loop: /readyz judges
    the worker by the shard heartbeat."""
    monkeypatch.setattr(fleet, "INTERVAL_S", 0.1)
    monkeypatch.setattr(fleet, "POLL_S", 0.05)
    agent = TelemetryAgent(
        tmp_path, instance="beat", role="test", registry=MetricsRegistry()
    ).start()
    try:
        _open_window(agent, tmp_path, seconds=5.0)
        first = load_shard(agent.path).written_s
        time.sleep(0.5)
        assert agent._window is not None  # still sampling
        assert load_shard(agent.path).written_s > first
        assert read_live(tmp_path, "profiles") == []
    finally:
        agent.close()


def test_close_during_a_window_spills_the_partial_capture(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(fleet, "POLL_S", 0.05)
    agent = TelemetryAgent(
        tmp_path, instance="short", role="test", registry=MetricsRegistry()
    ).start()
    try:
        request = _open_window(agent, tmp_path, seconds=20.0)
        _burn(0.2)
    finally:
        started = time.monotonic()
        agent.close()
    assert time.monotonic() - started < 5.0  # cut short, not waited out
    docs = read_live(tmp_path, "profiles")
    assert [doc["request_id"] for doc in docs] == [request["id"]]
    assert docs[0]["instance"] == "short"
    assert docs[0]["samples"] > 0
    assert docs[0]["duration_s"] < 20.0


def _assert_heartbeat_advances(agent: TelemetryAgent) -> None:
    first = load_shard(agent.path).written_s
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if load_shard(agent.path).written_s > first:
            break
        time.sleep(0.05)
    assert load_shard(agent.path).written_s > first
    assert agent._thread.is_alive()


@pytest.mark.parametrize("deadline", [None, "soon", [1]])
def test_malformed_request_does_not_stop_the_heartbeat(
    tmp_path, monkeypatch, deadline
):
    """The request file is foreign input: a bad one is no window, and
    the agent's shard keeps being written."""
    monkeypatch.setattr(fleet, "INTERVAL_S", 0.1)
    monkeypatch.setattr(fleet, "POLL_S", 0.05)
    write_json(
        profile_request_path(tmp_path),
        {"kind": "profile-request", "id": "bad", "deadline_s": deadline},
    )
    assert current_request(tmp_path) is None
    agent = TelemetryAgent(
        tmp_path, instance="bad", role="test", registry=MetricsRegistry()
    ).start()
    try:
        time.sleep(0.2)  # several polls of the bad request
        _assert_heartbeat_advances(agent)
        assert agent._window is None
    finally:
        agent.close()


def test_a_failing_window_is_dropped_and_the_heartbeat_goes_on(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(fleet, "INTERVAL_S", 0.1)
    monkeypatch.setattr(fleet, "POLL_S", 0.05)

    def broken_spill(root, doc):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(fleet, "spill_profile", broken_spill)
    agent = TelemetryAgent(
        tmp_path, instance="fail", role="test", registry=MetricsRegistry()
    ).start()
    try:
        _open_window(agent, tmp_path, seconds=0.3)
        deadline = time.monotonic() + 5.0
        while agent._window is not None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert agent._window is None  # closed at its deadline, spill failed
        _assert_heartbeat_advances(agent)
    finally:
        agent.close()


# -- the fork race harness ----------------------------------------------------


def _spilling_profiler(root, request, barrier, results, index):
    """Child: sample own busy loop inside a span, spill, report count."""
    try:
        tracer = Tracer()
        barrier.wait(timeout=10.0)
        profiler = Profiler(
            clock="thread",
            interval_ms=2.0,
            instance=f"child{index}",
            role="race",
        ).start()
        with tracing(tracer), tracer.span(f"race:child{index}"):
            _burn(0.4)
        doc = profiler.stop()
        doc["request_id"] = request["id"]
        spill_profile(root, doc)
        results.put(("ok", index, doc["samples"]))
    except Exception as exc:  # noqa: BLE001 - surfaced in the parent
        results.put(("error", index, f"{type(exc).__name__}: {exc}"))


@needs_fork
def test_two_process_concurrent_spills_merge_to_exact_totals(tmp_path):
    request = request_profile(tmp_path, seconds=2.0, interval_ms=2.0)
    barrier = _MP.Barrier(2)
    results = _MP.Queue()
    children = [
        _MP.Process(
            target=_spilling_profiler,
            args=(tmp_path, request, barrier, results, index),
        )
        for index in range(2)
    ]
    for child in children:
        child.start()
    reports = [results.get(timeout=30.0) for _ in children]
    for child in children:
        child.join(timeout=30.0)
    errors = [r for r in reports if r[0] == "error"]
    assert not errors, errors

    docs = read_live(tmp_path, "profiles")
    assert [d["request_id"] for d in docs] == [request["id"]] * 2
    merged = merge_profile_docs(docs, request=request)
    assert merged["samples"] == sum(r[2] for r in reports)
    assert merged["samples"] > 0
    assert {p["instance"] for p in merged["processes"]} == {
        "child0",
        "child1",
    }
    # Each child burned inside its own span on its only busy thread.
    assert attribution(merged)["fraction"] >= 0.9
    for index in range(2):
        assert any(
            row["path"] == f"race:child{index}" for row in span_totals(merged)
        )


def _racing_profile_collector(root, barrier, results):
    """Child: race the stale-spill GC and report what it removed."""
    try:
        barrier.wait(timeout=10.0)
        removed = gc_stale(root, "profiles")
        results.put(("ok", [path.name for path in removed]))
    except Exception as exc:  # noqa: BLE001 - surfaced in the parent
        results.put(("error", f"{type(exc).__name__}: {exc}"))


@needs_fork
def test_concurrent_gc_removes_each_stale_spill_exactly_once(tmp_path):
    stale_names = []
    for index in range(4):
        path = _write_stale_spill(tmp_path, f"old{index}", 9000 + index)
        stale_names.append(path.name)
    keeper = spill_profile(tmp_path, _doc(SAMPLE_STACKS, instance="fresh"))

    barrier = _MP.Barrier(2)
    results = _MP.Queue()
    children = [
        _MP.Process(
            target=_racing_profile_collector,
            args=(tmp_path, barrier, results),
        )
        for _ in range(2)
    ]
    for child in children:
        child.start()
    claims = [results.get(timeout=30.0) for _ in children]
    for child in children:
        child.join(timeout=30.0)
    errors = [c for c in claims if c[0] == "error"]
    assert not errors, errors

    claimed = [name for _, names in claims for name in names]
    # Every stale spill was removed, none twice, and the live capture
    # plus any request file were left alone.
    assert sorted(claimed) == sorted(stale_names)
    assert len(claimed) == len(set(claimed))
    assert keeper.exists()
    survivors = [d["instance"] for d in read_live(tmp_path, "profiles")]
    assert survivors == ["fresh"]
