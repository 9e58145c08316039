"""Tests for the HTTP characterization service.

Includes the two service-level acceptance proofs:

- **Single-flight**: N concurrent identical ``/characterize`` requests
  trigger exactly one collection (instrumented via
  :func:`repro.cluster.collection.collection_runs`) and all N responses
  are byte-identical with matching ETags.
- **Store round-trip**: a characterization persisted by one *process*
  is served (200, then 304 on ``If-None-Match``) by a server started in
  another, with full per-workload metrics intact.
"""

import http.client
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cluster.collection import (
    CollectionConfig,
    collection_runs,
    workload_store_key,
)
from repro.cluster.testbed import MeasurementConfig
from repro.metrics.catalog import METRIC_NAMES
from repro.service.server import _DERIVED_CAPACITY, ServiceConfig, serve
from repro.workloads.suite import SUITE

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Tiny-but-real protocol shared by every server in this module.
FAST = CollectionConfig(
    scale=0.2,
    seed=13,
    measurement=MeasurementConfig(
        slaves_measured=1, active_cores=2, ops_per_core=1000, perf_repeats=2
    ),
)


def _start(config: ServiceConfig):
    server = serve(config, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, server.server_address[1]


def _get(port: int, path: str, headers: dict | None = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        collection=FAST,
        workloads=SUITE[:6],
        cache_dir=str(tmp_path_factory.mktemp("service-store")),
    )
    server, port = _start(config)
    yield server, port
    server.shutdown()
    server.service.close()


class TestStaticEndpoints:
    def test_info(self, server):
        status, headers, body = _get(server[1], "/")
        assert status == 200
        payload = json.loads(body)
        assert payload["suite_size"] == 6
        assert "/characterize/<name>" in payload["endpoints"]

    def test_workloads(self, server):
        status, _, body = _get(server[1], "/workloads")
        assert status == 200
        payload = json.loads(body)
        assert [w["name"] for w in payload] == [w.name for w in SUITE[:6]]
        assert payload[0]["declared_size"]

    def test_metric_catalog(self, server):
        status, _, body = _get(server[1], "/metrics/catalog")
        payload = json.loads(body)
        assert status == 200
        assert len(payload) == 45
        assert tuple(m["name"] for m in payload) == METRIC_NAMES

    def test_prometheus_metrics(self, server):
        status, headers, body = _get(server[1], "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        series = {
            line.split("{")[0].split(" ")[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        # The plane must cover stacks, faults, store and jobs.
        assert len(series) >= 12
        assert any(s.startswith("repro_stack_") for s in series)
        assert any(s.startswith("repro_store_") for s in series)
        assert any(s.startswith("repro_jobs_") for s in series)
        assert "repro_http_requests_total" in series
        for line in text.splitlines():
            if line.startswith("# TYPE"):
                assert line.split()[-1] in ("counter", "gauge", "histogram")

    def test_stats(self, server):
        status, _, body = _get(server[1], "/stats")
        assert status == 200
        payload = json.loads(body)
        assert "repro_http_requests_total" in payload["metrics"]
        assert payload["store"]["entries"] >= 0
        assert {"total", "live", "recent_events"} <= payload["jobs"].keys()

    def test_unknown_endpoint_404(self, server):
        status, _, body = _get(server[1], "/nope")
        assert status == 404
        assert "error" in json.loads(body)

    def test_unknown_workload_404_with_suggestions(self, server):
        status, _, body = _get(server[1], "/characterize/H-Grap")
        assert status == 404
        payload = json.loads(body)
        assert "unknown workload" in payload["error"]
        assert "H-Grep" in payload["suggestions"]


class TestSingleFlight:
    def test_concurrent_characterize_is_single_flight(self, server):
        """Acceptance: N concurrent identical requests, one collection,
        byte-identical bodies, matching ETags."""
        port = server[1]
        runs_before = collection_runs()
        n = 8
        results: list = [None] * n
        barrier = threading.Barrier(n)

        def hit(i: int) -> None:
            barrier.wait()
            results[i] = _get(port, "/characterize/H-Sort")

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert collection_runs() - runs_before == 1
        statuses = [r[0] for r in results]
        bodies = [r[2] for r in results]
        etags = [r[1]["ETag"] for r in results]
        assert statuses == [200] * n
        assert all(body == bodies[0] for body in bodies)
        assert all(etag == etags[0] for etag in etags)
        payload = json.loads(bodies[0])
        assert payload["name"] == "H-Sort"
        assert set(payload["metrics"]) == set(METRIC_NAMES)

    def test_warm_requests_do_not_collect_again(self, server):
        runs_before = collection_runs()
        status, _, _ = _get(server[1], "/characterize/H-Sort")
        assert status == 200
        assert collection_runs() == runs_before


class TestMatrixAndConditional:
    def test_matrix_roundtrip_and_304(self, server):
        port = server[1]
        status, headers, body = _get(port, "/suite/matrix")
        assert status == 200
        payload = json.loads(body)
        assert payload["workloads"] == [w.name for w in SUITE[:6]]
        assert tuple(payload["metrics"]) == METRIC_NAMES
        assert len(payload["values"]) == 6

        etag = headers["ETag"]
        status, headers_304, body_304 = _get(
            port, "/suite/matrix", {"If-None-Match": etag}
        )
        assert status == 304
        assert body_304 == b""
        assert headers_304["ETag"] == etag

    def test_stale_etag_gets_full_body(self, server):
        status, _, body = _get(
            server[1], "/suite/matrix", {"If-None-Match": '"stale"'}
        )
        assert status == 200
        assert body


class TestSubset:
    def test_subset_with_explicit_k(self, server):
        status, _, body = _get(server[1], "/subset?k=3")
        payload = json.loads(body)
        assert status == 200
        assert payload["k"] == 3
        assert len(payload["representative_subset"]) == 3
        assert len(payload["farthest"]) == 3
        members = [m for rep in payload["farthest"] for m in rep["members"]]
        assert sorted(members) == sorted(w.name for w in SUITE[:6])

    def test_subset_invalid_k(self, server):
        for bad in ("99", "oops", "0", "1", "-3"):
            status, _, body = _get(server[1], f"/subset?k={bad}")
            assert status == 400, bad
            assert "error" in json.loads(body)


class TestSubsetBudget:
    def test_budgeted_selection(self, server):
        status, _, body = _get(server[1], "/subset?budget=1e9")
        payload = json.loads(body)
        assert status == 200
        # An effectively unlimited budget selects the whole pool.
        assert payload["n_selected"] == payload["n_pool"] == len(SUITE[:6])
        assert payload["coverage"] == pytest.approx(1.0)
        assert payload["cost_s"] <= payload["budget_s"]
        picked = [row["workload"] for row in payload["selected"]]
        assert sorted(picked) == sorted(w.name for w in SUITE[:6])
        # Cumulative cost/coverage are reported per pick, in greedy order.
        costs = [row["cumulative_cost_s"] for row in payload["selected"]]
        assert costs == sorted(costs)
        assert set(payload["cost_sources"]) == set(picked)

    def test_partial_budget_is_deterministic(self, server):
        status, _, body = _get(server[1], "/subset?budget=1e9")
        total = json.loads(body)["total_pool_cost_s"]
        first = _get(server[1], f"/subset?budget={total / 2}")
        second = _get(server[1], f"/subset?budget={total / 2}")
        assert first[0] == second[0] == 200
        assert first[2] == second[2]
        payload = json.loads(first[2])
        assert 0 < payload["n_selected"] <= payload["n_pool"]

    def test_derived_cache_is_bounded(self, server):
        """Each distinct budget is a cache key: 1,000 of them must leave
        at most the cap, and a superseded suite etag's entries go."""
        service = server[0].service
        status, _, body = _get(server[1], "/subset?budget=1e9")
        total = json.loads(body)["total_pool_cost_s"]

        def subset(budget: float):
            return service.handle_get("/subset", {"budget": [repr(budget)]})

        repeated = subset(total / 2)
        assert subset(total / 2) is repeated
        for i in range(1000):
            subset(total * (0.5 + i / 2000))
        assert len(service._derived) <= _DERIVED_CAPACITY
        assert subset(total * 0.9995) is subset(total * 0.9995)

        service._derived_put(("matrix", "next-etag"), repeated)
        assert list(service._derived) == [("matrix", "next-etag")]

    def test_bad_budget_is_400(self, server):
        for bad in ("-5", "abc", "0", "nan", "inf"):
            status, _, body = _get(server[1], f"/subset?budget={bad}")
            assert status == 400, bad
            assert "error" in json.loads(body)

    def test_budget_below_cheapest_is_400(self, server):
        status, _, body = _get(server[1], "/subset?budget=1e-12")
        assert status == 400
        assert "cheapest" in json.loads(body)["error"]

    def test_budget_and_k_together_is_400(self, server):
        status, _, body = _get(server[1], "/subset?k=3&budget=10")
        assert status == 400
        assert "not both" in json.loads(body)["error"]


class TestJobs:
    def test_async_characterize_and_job_poll(self, server):
        port = server[1]
        # A workload outside everything this module has warmed.
        name = SUITE[10].name
        status, _, body = _get(port, f"/characterize/{name}?wait=0")
        payload = json.loads(body)
        if status == 200:  # a parallel test already warmed it
            assert payload["name"] == name
            return
        assert status == 202
        job_id = payload["id"]
        assert payload["state"] in ("queued", "running")
        deadline = threading.Event()
        for _ in range(600):
            status, _, body = _get(port, f"/jobs/{job_id}")
            assert status == 200
            snapshot = json.loads(body)
            if snapshot["state"] in ("done", "failed", "cancelled"):
                break
            deadline.wait(0.1)
        assert snapshot["state"] == "done"
        assert snapshot["progress"]["done"] == snapshot["progress"]["total"] == 1
        status, _, body = _get(port, f"/characterize/{name}")
        assert status == 200
        assert json.loads(body)["name"] == name

    def test_jobs_listing_and_missing_job(self, server):
        status, _, body = _get(server[1], "/jobs")
        assert status == 200
        assert isinstance(json.loads(body), list)
        status, _, _ = _get(server[1], "/jobs/job-999999")
        assert status == 404

    def test_observations_requires_full_suite(self, server):
        status, _, body = _get(server[1], "/observations")
        assert status == 409
        assert "full 32-workload suite" in json.loads(body)["error"]


class TestCrossProcessRoundTrip:
    def test_store_written_by_one_process_served_by_another(self, tmp_path):
        """Acceptance: persist in a child process, serve (200 then 304)
        from a fresh server in this one, metrics intact."""
        store_dir = tmp_path / "shared-store"
        script = (
            "from repro.cluster.collection import CollectionConfig, characterize_suite\n"
            "from repro.cluster.testbed import MeasurementConfig\n"
            "from repro.workloads import workload_by_name\n"
            "config = CollectionConfig(scale=0.2, seed=13,\n"
            "    measurement=MeasurementConfig(slaves_measured=1, active_cores=2,\n"
            "                                  ops_per_core=1000, perf_repeats=2))\n"
            f"characterize_suite((workload_by_name('S-Grep'),), config, cache_dir={str(store_dir)!r})\n"
            "print('persisted')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert "persisted" in proc.stdout
        key = workload_store_key(FAST, "S-Grep")
        assert (store_dir / "objects" / f"{key}.json").exists()

        config = ServiceConfig(
            collection=FAST, workloads=SUITE[:6], cache_dir=str(store_dir)
        )
        server, port = _start(config)
        try:
            runs_before = collection_runs()
            status, headers, body = _get(port, "/characterize/S-Grep")
            assert status == 200
            assert collection_runs() == runs_before  # served, not recomputed
            payload = json.loads(body)
            assert payload["name"] == "S-Grep"
            assert set(payload["metrics"]) == set(METRIC_NAMES)
            assert all(
                isinstance(v, float) for v in payload["metrics"].values()
            )
            assert payload["run"]["checks"]["matches_correct"] == 1.0
            status, _, body_304 = _get(
                port, "/characterize/S-Grep", {"If-None-Match": headers["ETag"]}
            )
            assert status == 304
            assert body_304 == b""
        finally:
            server.shutdown()
            server.service.close()
