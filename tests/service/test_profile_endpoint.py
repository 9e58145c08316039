"""Tests for the health probes and the on-demand fleet profile endpoint.

``serve()`` runs in this process, so its :class:`TelemetryAgent` samples
the test process itself — which lets these tests prove end-to-end span
attribution: a traced busy thread started here must show up, by span
path, in the document ``GET /profile`` returns.
"""

import http.client
import json
import os
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.cluster.collection import CollectionConfig
from repro.cluster.testbed import MeasurementConfig
from repro.errors import ServiceError
from repro.obs.prof import PROFILE_SCHEMA, validate_profile
from repro.obs.trace import Tracer, tracing
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, serve
from repro.workloads.suite import SUITE

FAST = CollectionConfig(
    scale=0.2,
    seed=17,
    measurement=MeasurementConfig(
        slaves_measured=1, active_cores=2, ops_per_core=1000, perf_repeats=2
    ),
)


def _start(tmp_dir):
    config = ServiceConfig(
        collection=FAST, workloads=SUITE[:2], cache_dir=str(tmp_dir)
    )
    server = serve(config, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    server, base = _start(tmp_path_factory.mktemp("profile-store"))
    yield server, base
    server.shutdown()
    server.service.close()


def _get(base: str, path: str):
    host, port = base.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class _Burn:
    """A traced CPU-busy thread the profiler window should catch."""

    def __init__(self, span_name: str) -> None:
        self.span_name = span_name
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        tracer = Tracer()
        with tracing(tracer), tracer.span(self.span_name):
            acc = 0.0
            while not self._stop.is_set():
                for i in range(1000):
                    acc += i * 0.5

    def __enter__(self) -> "_Burn":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


# -- health probes ------------------------------------------------------------


def test_healthz_is_pure_liveness(server):
    payload = ServiceClient(server[1]).healthz()
    assert payload["ok"] is True
    assert payload["pid"] == os.getpid()
    assert payload["instance"]


def test_readyz_reports_ready_with_a_fresh_heartbeat(server):
    payload = ServiceClient(server[1]).readyz()
    assert payload["ready"] is True
    assert payload["problems"] == []


def test_fleet_surfaces_the_health_block(server):
    status = ServiceClient(server[1]).fleet()
    health = status["health"]
    assert health["healthy"] is True
    assert health["ready"] is True
    assert health["instance"]


def test_readyz_degrades_to_503_when_the_heartbeat_goes_stale(tmp_path):
    server, base = _start(tmp_path / "store")
    try:
        service = server.service
        # Stop the telemetry agent, then age its shard past the
        # freshness budget: readiness must flip without the worker dying.
        service.telemetry.close()
        stale = time.time() - 3600.0
        os.utime(service.telemetry.path, (stale, stale))
        payload = ServiceClient(base).readyz()
        assert payload["ready"] is False
        assert any("heartbeat" in problem for problem in payload["problems"])
        # Liveness is unaffected: the worker still answers.
        assert ServiceClient(base).healthz()["ok"] is True
    finally:
        server.shutdown()
        server.service.close()


# -- the profile endpoint -----------------------------------------------------


def test_profile_returns_a_span_attributed_merged_document(server):
    client = ServiceClient(server[1], timeout=60.0)
    with _Burn("test:endpoint-burn"):
        doc = client.profile(seconds=0.6, interval_ms=2.0)
    assert doc["merged"] is True
    assert doc["samples"] > 0
    assert doc["request_id"]
    assert len(doc["processes"]) >= 1
    assert validate_profile(doc) == []
    paths = {
        ";".join(spans) for spans, _frames, _count, _idle in doc["stacks"]
    }
    assert "test:endpoint-burn" in paths, sorted(paths)


def test_profile_collapsed_and_flame_formats(server):
    client = ServiceClient(server[1], timeout=60.0)
    with _Burn("test:format-burn"):
        collapsed = client.profile(seconds=0.5, interval_ms=2.0, fmt="collapsed")
        flame = client.profile(seconds=0.5, interval_ms=2.0, fmt="flame")
    assert isinstance(collapsed, str)
    lines = collapsed.strip().splitlines()
    assert lines
    for line in lines:
        path, count = line.rsplit(" ", 1)
        assert path and count.isdigit()
    assert isinstance(flame, str)
    assert "<svg" in flame
    assert "<script" not in flame  # self-contained, no-JS flamegraph


def test_profile_rejects_bad_parameters(server):
    client = ServiceClient(server[1])
    with pytest.raises(ServiceError) as excinfo:
        client.profile(seconds=0.05)
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client.profile(seconds=0.5, mode="flame")
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client.profile(seconds=0.5, fmt="pdf")
    assert excinfo.value.status == 400
    status, body = _get(server[1], "/profile?seconds=banana")
    assert status == 400
    assert b"numbers" in body


# -- the CLI ------------------------------------------------------------------


def test_cli_profile_captures_and_renders(server, tmp_path, capsys):
    out_json = tmp_path / "profile.json"
    out_flame = tmp_path / "profile.html"
    with _Burn("test:cli-burn"):
        code = cli_main(
            [
                "profile",
                "--url",
                server[1],
                "--seconds",
                "0.6",
                "--interval",
                "2.0",
                "--out",
                str(out_json),
                "--flame",
                str(out_flame),
            ]
        )
    assert code == 0
    output = capsys.readouterr().out
    assert "span attribution" in output
    assert "test:cli-burn" in output
    doc = json.loads(out_json.read_text())
    assert validate_profile(doc) == []
    flame = out_flame.read_text()
    assert "<svg" in flame and "<script" not in flame


def test_cli_profile_rejects_a_torn_document(monkeypatch, capsys):
    torn = {
        "schema": PROFILE_SCHEMA, "kind": "cpu-profile", "interval_ms": 5.0,
        "duration_s": 1.0, "samples": 5, "stacks": [[["svc"], ["a.py:f"], 3, 0]],
    }
    monkeypatch.setattr(ServiceClient, "profile", lambda self, **kw: torn)
    assert cli_main(["profile", "--url", "http://127.0.0.1:9"]) == 1
    assert "stacks sum to 3" in capsys.readouterr().err


def test_cli_status_ok_against_a_live_fleet(server, capsys):
    assert cli_main(["status", "--url", server[1]]) == 0
    output = capsys.readouterr().out
    assert "serving worker" in output


def test_cli_status_fails_when_the_fleet_is_unreachable(capsys):
    assert cli_main(["status", "--url", "http://127.0.0.1:9"]) == 1
    assert "repro:" in capsys.readouterr().err
