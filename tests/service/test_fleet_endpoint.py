"""End-to-end fleet telemetry through a real pre-fork service.

One supervisor, two server workers and the collection pool behind them,
all reporting into per-process metric shards — these tests drive jobs
through the fleet and assert the scrape-side contracts: ``/metrics``
totals equal the per-shard sums, ``/fleet`` sees every process, and
``/trace`` stitches spans from three-plus pids into one valid Chrome
trace joined by the client's correlation id.  The slow profiling gate
samples the same kind of fleet while a collection runs through it.
"""

import json
import os
import threading
import time
import urllib.request

import pytest

from repro.cluster.collection import CollectionConfig
from repro.cluster.testbed import MeasurementConfig
from repro.obs.fleet import load_shard, telemetry_dir
from repro.obs.prof import validate_profile
from repro.obs.trace import validate_trace
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig
from repro.service.supervisor import Supervisor
from repro.workloads.suite import SUITE

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pre-fork serving needs os.fork()"
)

FAST = CollectionConfig(
    scale=0.2,
    seed=23,
    measurement=MeasurementConfig(
        slaves_measured=1, active_cores=2, ops_per_core=1000, perf_repeats=2
    ),
)


def _config(tmp_path) -> ServiceConfig:
    return ServiceConfig(
        collection=FAST,
        workloads=SUITE[:2],
        cache_dir=str(tmp_path / "store"),
        workers=2,  # collections go through real pool worker processes
    )


def _get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return json.loads(response.read())


def _exposition_values(text: str, name: str) -> dict[str, float]:
    """``{labelled_sample_name: value}`` for one metric family."""
    values = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.startswith(name):
            continue
        sample, _, value = line.rpartition(" ")
        if sample == name or sample.startswith(name + "{"):
            values[sample] = float(value)
    return values


def _shard_sums(store: str) -> dict[str, float]:
    """Per-metric counter sums straight from the shard files on disk."""
    sums: dict[str, float] = {}
    for path in sorted(telemetry_dir(store, "metrics").glob("*.json")):
        shard = load_shard(path)
        if shard is None:
            continue
        for name, entry in shard.metrics.items():
            if entry.get("kind") in ("counter", "gauge"):
                sums[name] = sums.get(name, 0.0) + shard.counter_total(name)
    return sums


def test_fleet_scrape_trace_and_status(tmp_path):
    """The full telemetry plane over a live two-worker fleet."""
    config = _config(tmp_path)
    correlation = "fleet-e2e-1"
    with Supervisor(config, port=0, workers=2) as sup:
        base = f"http://{sup.host}:{sup.port}"
        client = ServiceClient(base, correlation_id=correlation)

        # Touch both server workers so both record correlated spans.
        instances = set()
        for _ in range(200):
            instances.add(client.info()["instance"])
            if len(instances) == 2:
                break
        assert len(instances) == 2

        # -- health probes answer before any load ----------------------
        assert client.healthz()["ok"] is True
        assert client.readyz()["ready"] is True

        # Drive a cold suite collection: two workloads across two pool
        # worker processes (single-workload jobs stay serial).
        matrix = client.matrix()
        assert len(matrix["workloads"]) == 2

        # -- /metrics: fleet totals == per-shard sums -------------------
        text = client.runtime_metrics()
        sums = _shard_sums(config.cache_dir)
        # Quiescent counters (nothing bumps them between the scrape and
        # our direct shard read): the pool's task counter must match the
        # on-disk shard sums exactly, outcome by outcome.
        pool_ok = _exposition_values(text, "repro_pool_tasks_total")
        assert sum(pool_ok.values()) == sums["repro_pool_tasks_total"] > 0
        restarts = _exposition_values(text, "repro_worker_restarts_total")
        assert sum(restarts.values()) == sums.get(
            "repro_worker_restarts_total", 0.0
        )
        # The summed gauge: the finished job holds no live slots.
        jobs_live = _exposition_values(text, "repro_jobs_live")
        assert jobs_live == {"repro_jobs_live": 0.0}
        # The per-worker gauge: one labelled sample per server process,
        # never a bare (summed) sample.
        entries = _exposition_values(text, "repro_store_entries")
        assert len(entries) >= 2
        assert all('worker="' in sample for sample in entries)
        # HTTP requests were served by definition of us asking.
        requests = _exposition_values(text, "repro_http_requests_total")
        assert sum(requests.values()) > 0

        # -- /fleet: every process accounted for ------------------------
        fleet = client.fleet()
        roles = [w["role"] for w in fleet["workers"]]
        assert roles.count("server") == 2
        assert roles.count("supervisor") == 1
        assert roles.count("pool") >= 1
        totals = fleet["totals"]
        assert totals["processes"] == len(fleet["workers"]) >= 4
        assert totals["servers"] == 2
        assert totals["restarts_total"] == 0
        assert totals["requests_total"] > 0
        assert set(totals["request_seconds"]) == {"p50", "p95", "p99"}
        assert fleet["health"]["ready"] is True

        # -- /trace: one Chrome trace, >= 3 pids, correlated ------------
        merged = client.merged_trace()
        assert validate_trace(
            merged, min_events=3, min_pids=3, require_process_names=True
        ) == []
        correlated_pids = {
            event["pid"]
            for event in merged["traceEvents"]
            if event.get("args", {}).get("correlation_id") == correlation
        }
        # Client -> both server workers -> pool worker, one id.
        assert len(correlated_pids) >= 3
        lanes = {
            event["args"]["name"]
            for event in merged["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "process_name"
        }
        assert any("(server)" in lane for lane in lanes)
        assert any("(pool)" in lane for lane in lanes)


def test_characterizations_identical_with_fleet_telemetry(monkeypatch):
    """Telemetry is purely observational: a pool collection publishing
    shards and correlated trace spans yields the exact matrix a plain
    serial collection does."""
    import numpy as np

    from repro.cluster import collection
    from repro.cluster.collection import characterize_suite

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    collection._MEMO.clear()
    workloads = SUITE[:2]
    serial = characterize_suite(workloads, FAST, workers=1)
    collection._MEMO.clear()
    telemetered = characterize_suite(
        workloads, FAST, workers=2, correlation_id="bitwise-1"
    )
    collection._MEMO.clear()
    assert telemetered.matrix.workloads == serial.matrix.workloads
    assert np.array_equal(telemetered.matrix.values, serial.matrix.values)


@pytest.mark.slow
def test_profile_window_over_a_live_pool_collection(tmp_path):
    """The fleet profiling gate: a 3 s window opened while a cold
    full-suite collection runs through a 2-worker pool samples server
    and pool processes, attributes >= 90% of its busy samples to span
    paths, and catches the pool at work."""
    config = ServiceConfig(
        collection=CollectionConfig(
            # Heavy enough that the collection outlives the window: ~6 s
            # through a bare 2-worker pool on a 2-vCPU host, against the
            # window's close 3.5 s after the start.
            scale=0.3,
            seed=31,
            measurement=MeasurementConfig(
                slaves_measured=2,
                active_cores=3,
                ops_per_core=8000,
                perf_repeats=2,
            ),
        ),
        workloads=SUITE,
        cache_dir=str(tmp_path / "store"),
        workers=2,
    )
    with Supervisor(config, port=0, workers=2) as sup:
        base = f"http://{sup.host}:{sup.port}"
        matrix: dict = {}
        collector = threading.Thread(
            target=lambda: matrix.update(
                ServiceClient(base, timeout=600.0).matrix()
            )
        )
        collector.start()
        time.sleep(0.5)  # let the pool fork and start its agents
        doc = ServiceClient(base, timeout=63.0).profile(
            seconds=3.0, interval_ms=5.0
        )
        outlived_window = collector.is_alive()
        collector.join(timeout=600.0)
    assert outlived_window  # else the window could not see the pool at work
    assert not collector.is_alive()
    assert len(matrix.get("workloads", [])) == len(config.workloads)

    processes = doc.get("processes", [])
    assert len(processes) >= 3
    assert {"server", "pool"} <= {p.get("role") for p in processes}
    bounds = dict(min_samples=200, min_span_fraction=0.9)
    assert validate_profile(doc, **bounds) == []
    assert validate_profile(json.loads(json.dumps(doc)), **bounds) == []
    pool_busy = sum(
        count
        for spans, _frames, count, idle in doc["stacks"]
        if not idle and spans and spans[0].startswith("pool:")
    )
    assert pool_busy >= 1
