"""Fleet telemetry: metric shards, scrape-time merging, shard lifecycle
(staleness + exactly-once GC under contention) and multi-process trace
stitching.

The golden-exposition test pins the merged Prometheus output for a
two-worker fleet byte-for-byte — the aggregation semantics (counters
summed, ``sum`` gauges summed, ``per_worker`` gauges labeled, never
double-counted) are a contract dashboards depend on.
"""

import importlib.util
import json
import multiprocessing
import os
import socket
import time
from pathlib import Path

from repro.durable import write_json
from repro.obs.fleet import (
    DEFAULT_TTL_S,
    ShardWriter,
    fleet_status,
    gc_stale_shards,
    load_shard,
    load_trace_spills,
    merge_shards,
    merge_store_traces,
    merge_traces,
    metrics_dir,
    read_live_shards,
    render_merged,
    traces_dir,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

_MP = multiprocessing.get_context("fork")

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "check_trace_for_fleet", REPO_ROOT / "tools" / "check_trace.py"
)
check_trace_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_trace_module)
check_trace = check_trace_module.check_trace


def _registry(requests: dict, jobs_live: float, store_entries: float):
    """A worker-shaped registry with known sample values."""
    registry = MetricsRegistry()
    requests_total = registry.counter(
        "repro_http_requests_total", "HTTP requests served", ("code",)
    )
    for code, count in requests.items():
        requests_total.inc(count, code=code)
    registry.gauge(
        "repro_jobs_live", "Jobs currently live", aggregation="sum"
    ).set(jobs_live)
    registry.gauge(
        "repro_store_entries", "Entries in the shared store"
    ).set(store_entries)
    return registry


def _write_shard(root, instance, registry, role="server") -> ShardWriter:
    """One snapshot, no timer thread — a frozen fake fleet member."""
    writer = ShardWriter(root, instance=instance, role=role, registry=registry)
    assert writer.write_now()
    return writer


class TestMergedExposition:
    def test_golden_two_worker_merge(self, tmp_path):
        """The exact fleet exposition for two workers: counters summed,
        the ``sum`` gauge summed, the ``per_worker`` gauge one sample
        per worker — the shared store's 7 entries must NOT become 14."""
        _write_shard(tmp_path, "server-a", _registry({"200": 3}, 2, 7))
        _write_shard(
            tmp_path, "server-b", _registry({"200": 4, "500": 1}, 1, 7)
        )
        text = render_merged(read_live_shards(tmp_path))
        assert text == (
            "# HELP repro_http_requests_total HTTP requests served\n"
            "# TYPE repro_http_requests_total counter\n"
            'repro_http_requests_total{code="200"} 7\n'
            'repro_http_requests_total{code="500"} 1\n'
            "# HELP repro_jobs_live Jobs currently live\n"
            "# TYPE repro_jobs_live gauge\n"
            "repro_jobs_live 3\n"
            "# HELP repro_store_entries Entries in the shared store\n"
            "# TYPE repro_store_entries gauge\n"
            'repro_store_entries{worker="server-a"} 7\n'
            'repro_store_entries{worker="server-b"} 7\n'
        )

    def test_merged_totals_equal_per_shard_sums(self, tmp_path):
        _write_shard(tmp_path, "a", _registry({"200": 10}, 0, 1))
        _write_shard(tmp_path, "b", _registry({"200": 32}, 0, 1))
        shards = read_live_shards(tmp_path)
        per_shard = sum(
            s.counter_total("repro_http_requests_total") for s in shards
        )
        merged = merge_shards(shards)
        metric = merged.get("repro_http_requests_total")
        assert sum(metric._values.values()) == per_shard == 42

    def test_histogram_buckets_sum_across_shards(self, tmp_path):
        for instance, values in (("a", (0.002, 0.2)), ("b", (0.004,))):
            registry = MetricsRegistry()
            hist = registry.histogram(
                "repro_http_request_seconds", "Request latency"
            )
            for value in values:
                hist.observe(value)
            _write_shard(tmp_path, instance, registry)
        merged = merge_shards(read_live_shards(tmp_path))
        hist = merged.get("repro_http_request_seconds")
        assert hist.count == 3
        assert abs(hist.sum - 0.206) < 1e-9
        # And the p99 falls in the slowest observation's bucket.
        assert 0.1 <= hist.quantile(0.99) <= 0.5

    def test_mismatched_kind_skipped_not_fatal(self, tmp_path):
        _write_shard(tmp_path, "a", _registry({"200": 1}, 0, 1))
        registry = MetricsRegistry()
        # Same name, different kind: a mixed-version fleet member.
        registry.histogram("repro_http_requests_total", "now a histogram")
        _write_shard(tmp_path, "b", registry)
        text = render_merged(read_live_shards(tmp_path))
        assert 'repro_http_requests_total{code="200"} 1' in text


class TestShardLifecycle:
    def test_writer_start_close_keeps_shard_scrapeable(self, tmp_path):
        registry = _registry({"200": 5}, 0, 0)
        writer = ShardWriter(
            tmp_path, instance="w", role="server", registry=registry
        ).start()
        try:
            assert writer.path.exists()
        finally:
            writer.close()
        # Clean exit does NOT delete the shard: the dead-worker counters
        # stay scrapeable until staleness retires them.
        shards = read_live_shards(tmp_path)
        assert [s.instance for s in shards] == ["w"]
        assert shards[0].counter_total("repro_http_requests_total") == 5

    def test_torn_shard_absent_but_not_reaped_while_fresh(self, tmp_path):
        directory = metrics_dir(tmp_path)
        directory.mkdir(parents=True)
        torn = directory / "torn-123.json"
        torn.write_text('{"schema": 1, "instance": "tor')
        assert read_live_shards(tmp_path) == []
        assert torn.exists()  # fresh: a writer may be mid-rewrite

    def test_torn_shard_reaped_once_old(self, tmp_path):
        directory = metrics_dir(tmp_path)
        directory.mkdir(parents=True)
        torn = directory / "torn-123.json"
        torn.write_text("not json at all")
        old = time.time() - DEFAULT_TTL_S - 60.0
        os.utime(torn, (old, old))
        assert read_live_shards(tmp_path) == []
        assert not torn.exists()

    def test_ttl_stale_shard_excluded_and_gcd(self, tmp_path):
        _write_shard(tmp_path, "live", _registry({"200": 1}, 0, 0))
        stale_path = metrics_dir(tmp_path) / "stale-999.json"
        write_json(
            stale_path,
            {
                "schema": 1,
                "kind": "metrics-shard",
                "instance": "stale",
                "role": "server",
                "pid": os.getpid(),  # alive, but the heartbeat is ancient
                "host": socket.gethostname(),
                "started_s": 0.0,
                "written_s": time.time() - 1000.0,
                "ttl_s": 10.0,
                "metrics": {},
            },
        )
        shards = read_live_shards(tmp_path)
        assert [s.instance for s in shards] == ["live"]
        assert not stale_path.exists()

    def test_dead_pid_shard_excluded_and_gcd(self, tmp_path):
        proc = _MP.Process(target=lambda: None)
        proc.start()
        proc.join(10.0)
        dead_pid = proc.pid
        dead_path = metrics_dir(tmp_path) / f"ghost-{dead_pid}.json"
        write_json(
            dead_path,
            {
                "schema": 1,
                "kind": "metrics-shard",
                "instance": "ghost",
                "role": "server",
                "pid": dead_pid,
                "host": socket.gethostname(),
                "started_s": time.time(),
                "written_s": time.time(),  # fresh heartbeat, dead process
                "ttl_s": 120.0,
                "metrics": {},
            },
        )
        assert read_live_shards(tmp_path) == []
        assert not dead_path.exists()

    def test_foreign_schema_ignored(self, tmp_path):
        directory = metrics_dir(tmp_path)
        directory.mkdir(parents=True)
        (directory / "future-1.json").write_text(
            json.dumps({"schema": 99, "instance": "future", "pid": 1})
        )
        assert load_shard(directory / "future-1.json") is None
        assert read_live_shards(tmp_path) == []


def _stale_record(index: int) -> dict:
    return {
        "schema": 1,
        "kind": "metrics-shard",
        "instance": f"old-{index}",
        "role": "server",
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "started_s": 0.0,
        "written_s": time.time() - 10_000.0,
        "ttl_s": 10.0,
        "metrics": {},
    }


def _racing_collector(root, barrier, results, errors) -> None:
    try:
        barrier.wait(10.0)
        removed = gc_stale_shards(root)
        results.put([path.name for path in removed])
    except Exception as exc:  # noqa: BLE001 - reported to the assertion
        errors.put(f"{type(exc).__name__}: {exc}")


def test_concurrent_gc_removes_each_shard_exactly_once(tmp_path):
    """Two real processes race the stale-shard collection: every stale
    shard is removed, and no shard is claimed by both collectors — the
    re-check under the telemetry lock makes removal exactly-once."""
    stale = 5
    for index in range(stale):
        write_json(
            metrics_dir(tmp_path) / f"old-{index}-1.json", _stale_record(index)
        )
    barrier = _MP.Barrier(2)
    results = _MP.Queue()
    errors = _MP.Queue()
    procs = [
        _MP.Process(
            target=_racing_collector, args=(tmp_path, barrier, results, errors)
        )
        for _ in range(2)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(60.0)
    assert not any(proc.exitcode for proc in procs)
    assert errors.empty(), errors.get()
    claimed = [results.get(timeout=5.0), results.get(timeout=5.0)]
    all_claims = claimed[0] + claimed[1]
    # Every shard removed; none removed twice.
    assert len(all_claims) == stale
    assert len(set(all_claims)) == stale
    assert list(metrics_dir(tmp_path).glob("*.json")) == []


def _snapshot_hammer(root, writer: int, rounds: int, done, stop, errors) -> None:
    try:
        registry = MetricsRegistry()
        counter = registry.counter("repro_hammer_total", "hammer writes")
        shards = ShardWriter(
            root, instance=f"w{writer}", role="server", registry=registry
        )
        for _ in range(rounds):
            counter.inc()
            if not shards.write_now():
                errors.put(f"writer {writer}: write_now failed")
                return
        done.put(writer)
        # Stay alive until the parent has scraped the final totals: a
        # dead pid makes the shard stale, which is its own (separate)
        # test above.
        stop.wait(30.0)
    except Exception as exc:  # noqa: BLE001
        errors.put(f"writer {writer}: {type(exc).__name__}: {exc}")


def test_concurrent_snapshot_writers_merge_to_exact_totals(tmp_path):
    """N processes rewrite their shards in a tight loop while the parent
    scrapes concurrently: scrapes never tear, and the final merge equals
    the exact sum of what every writer counted."""
    writers, rounds = 3, 40
    done = _MP.Queue()
    stop = _MP.Event()
    errors = _MP.Queue()
    procs = [
        _MP.Process(
            target=_snapshot_hammer,
            args=(tmp_path, w, rounds, done, stop, errors),
        )
        for w in range(writers)
    ]
    for proc in procs:
        proc.start()
    # Scrape while the writers hammer: merges must always be clean and
    # never overshoot (atomic replace means no torn/partial shard).
    finished = 0
    deadline = time.monotonic() + 30.0
    while finished < writers and time.monotonic() < deadline:
        merged = merge_shards(read_live_shards(tmp_path))
        metric = merged.get("repro_hammer_total")
        if metric is not None:
            assert sum(metric._values.values()) <= writers * rounds
        try:
            done.get(timeout=0.01)
            finished += 1
        except Exception:  # noqa: BLE001 - queue.Empty: keep scraping
            pass
    assert finished == writers, errors.get() if not errors.empty() else None
    # All writers still alive: the merge must see the exact total.
    merged = merge_shards(read_live_shards(tmp_path))
    assert sum(merged.get("repro_hammer_total")._values.values()) == (
        writers * rounds
    )
    stop.set()
    for proc in procs:
        proc.join(30.0)
    assert not any(proc.exitcode for proc in procs)
    assert errors.empty(), errors.get()


class TestFleetStatus:
    def test_totals_and_per_worker_rows(self, tmp_path):
        _write_shard(tmp_path, "server-a", _registry({"200": 3}, 2, 7))
        _write_shard(tmp_path, "server-b", _registry({"200": 4}, 1, 7))
        registry = MetricsRegistry()
        registry.counter(
            "repro_worker_restarts_total", "Worker restarts"
        ).inc(2)
        _write_shard(tmp_path, "sup", registry, role="supervisor")

        status = fleet_status(read_live_shards(tmp_path))
        totals = status["totals"]
        assert totals["processes"] == 3
        assert totals["servers"] == 2
        assert totals["requests_total"] == 7
        assert totals["restarts_total"] == 2
        assert totals["jobs_live"] == 3
        assert set(totals["request_seconds"]) == {"p50", "p95", "p99"}
        rows = {w["instance"]: w for w in status["workers"]}
        assert rows["server-a"]["role"] == "server"
        assert rows["server-a"]["requests_total"] == 3
        assert rows["sup"]["restarts_total"] == 2
        assert all(w["alive"] for w in status["workers"])

    def test_empty_fleet(self, tmp_path):
        status = fleet_status(read_live_shards(tmp_path))
        assert status["workers"] == []
        assert status["totals"]["processes"] == 0
        assert status["totals"]["requests_per_s"] == 0.0


def _doc(epoch, instance, role, pid, tid, name, ts, correlation=None):
    args = {"correlation_id": correlation} if correlation else {}
    return {
        "traceEvents": [
            {
                "name": name,
                "ph": "X",
                "ts": ts,
                "dur": 50.0,
                "pid": pid,
                "tid": tid,
                "cat": role,
                "args": args,
            }
        ],
        "otherData": {
            "epoch_unix_s": epoch,
            "instance": instance,
            "role": role,
            "pid": pid,
        },
    }


class TestTraceMerge:
    def test_epoch_rebasing_onto_shared_timeline(self):
        merged = merge_traces(
            [
                _doc(100.0, "server-1", "server", 11, 1, "req", 1000.0),
                _doc(102.5, "pool-2", "pool", 22, 2, "task", 200.0),
            ]
        )
        by_name = {
            e["name"]: e for e in merged["traceEvents"] if e["ph"] == "X"
        }
        assert by_name["req"]["ts"] == 1000.0  # earliest epoch: unshifted
        assert by_name["task"]["ts"] == 2.5e6 + 200.0

    def test_pid_lanes_labeled_with_instance_and_role(self):
        merged = merge_traces(
            [
                _doc(100.0, "server-1", "server", 11, 1, "req", 0.0),
                _doc(100.0, "pool-2", "pool", 22, 2, "task", 0.0),
            ]
        )
        names = {
            e["pid"]: e["args"]["name"]
            for e in merged["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {11: "server-1 (server)", 22: "pool-2 (pool)"}
        threads = [
            e
            for e in merged["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert {(e["pid"], e["tid"]) for e in threads} == {(11, 1), (22, 2)}

    def test_correlation_ids_survive_the_merge(self):
        merged = merge_traces(
            [
                _doc(100.0, "server-1", "server", 11, 1, "req", 0.0, "c-42"),
                _doc(100.1, "pool-2", "pool", 22, 2, "task", 0.0, "c-42"),
            ]
        )
        correlated = [
            e
            for e in merged["traceEvents"]
            if e.get("args", {}).get("correlation_id") == "c-42"
        ]
        assert {e["pid"] for e in correlated} == {11, 22}

    def test_merged_trace_passes_the_validator(self):
        merged = merge_traces(
            [
                _doc(100.0, "server-1", "server", 11, 1, "req", 0.0),
                _doc(100.5, "pool-2", "pool", 22, 2, "task", 0.0),
                _doc(101.0, "sup-3", "supervisor", 33, 3, "tick", 0.0),
            ]
        )
        assert (
            check_trace(merged, min_pids=3, require_process_names=True) == []
        )

    def test_incoming_metadata_dropped_and_rebuilt(self):
        doc = _doc(100.0, "server-1", "server", 11, 1, "req", 0.0)
        doc["traceEvents"].append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 11,
                "tid": 0,
                "args": {"name": "stale-label"},
            }
        )
        merged = merge_traces([doc])
        labels = [
            e["args"]["name"]
            for e in merged["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert labels == ["server-1 (server)"]

    def test_spill_and_merge_roundtrip(self, tmp_path):
        """A real tracer spilled by a ShardWriter comes back mergeable."""
        tracer = Tracer()
        with tracer.span("characterize", "pool", workload="H-Sort"):
            pass
        writer = ShardWriter(
            tmp_path,
            instance="pool-abc",
            role="pool",
            registry=MetricsRegistry(),
            tracer=tracer,
        )
        assert writer.write_now()
        assert len(load_trace_spills(tmp_path)) == 1
        merged = merge_store_traces(tmp_path)
        assert check_trace(merged, require_process_names=True) == []
        lanes = [
            e["args"]["name"]
            for e in merged["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert lanes == ["pool-abc (pool)"]
        assert merged["otherData"]["pids"] == [os.getpid()]

    def test_torn_spill_skipped(self, tmp_path):
        directory = traces_dir(tmp_path)
        directory.mkdir(parents=True)
        (directory / "torn-1.json").write_text('{"traceEvents": [')
        assert load_trace_spills(tmp_path) == []
        assert merge_store_traces(tmp_path)["traceEvents"] == []
