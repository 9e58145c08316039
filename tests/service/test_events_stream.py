"""Tests for live job streaming: SSE endpoint, correlation ids, client waits.

Two layers:

- Against the real service: ``/jobs/<id>/events`` delivers the
  submit→progress→done sequence, the client correlation id shows up in
  the server's spans, and ``/dashboard`` serves one self-contained page.
- Against a tiny stub server: ``wait_for_job``'s timeout path and its
  polling fallback when the events endpoint is missing.
"""

import http.client
import json
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cluster.collection import CollectionConfig
from repro.cluster.testbed import MeasurementConfig
from repro.durable import write_json
from repro.errors import ServiceError
from repro.obs.timeline import TimelineConfig
from repro.service.client import CORRELATION_HEADER, ServiceClient
from repro.service.server import ServiceConfig, serve
from repro.workloads.suite import SUITE

FAST = CollectionConfig(
    scale=0.2,
    seed=17,
    measurement=MeasurementConfig(
        slaves_measured=1, active_cores=2, ops_per_core=1000, perf_repeats=2
    ),
    timeline=TimelineConfig(interval_ms=2.0),
)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        collection=FAST,
        workloads=SUITE[:4],
        cache_dir=str(tmp_path_factory.mktemp("events-store")),
    )
    instance = serve(config, port=0)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance, instance.server_address[1]
    instance.shutdown()
    instance.service.close()


class TestEventStream:
    def test_submit_progress_done_delivered(self, server):
        _, port = server
        client = ServiceClient(
            f"http://127.0.0.1:{port}", correlation_id="corr-stream-1"
        )
        snapshot = client.characterize(SUITE[0].name, wait=False)
        job_id = snapshot.get("id") or snapshot.get("job", {}).get("id")
        if job_id is None:  # already cached by an earlier test in this module
            pytest.skip("result already cached; no job to stream")
        events = [e["event"] for e in client.job_events(job_id, timeout=120)]
        assert events[0] == "queued"
        assert "progress" in events
        assert "done" in events
        assert events[-1] == "end-of-stream"
        # Event order: queued strictly before done, done before the sentinel.
        assert events.index("queued") < events.index("done")

    def test_stream_replays_finished_jobs(self, server):
        _, port = server
        client = ServiceClient(f"http://127.0.0.1:{port}")
        client.characterize(SUITE[0].name)  # ensure a finished job exists
        jobs = client.jobs()
        done = [j for j in jobs if j["state"] == "done"]
        assert done
        events = [e["event"] for e in client.job_events(done[0]["id"], timeout=5)]
        assert "queued" in events
        assert "done" in events
        assert events[-1] == "end-of-stream"

    def test_correlation_id_reaches_server_spans(self, server):
        instance, port = server
        client = ServiceClient(
            f"http://127.0.0.1:{port}", correlation_id="corr-spans-7"
        )
        client.characterize(SUITE[1].name)
        tracer = instance.service.tracer
        assert tracer is not None
        http_spans = [
            e for e in tracer.events
            if e.args.get("correlation_id") == "corr-spans-7"
        ]
        assert http_spans, "no http span recorded the correlation id"
        job_spans = [
            e for e in tracer.events
            if "corr-spans-7" in (e.args.get("correlations") or [])
        ]
        assert job_spans, "no job span carried the correlation id"

    def test_unknown_job_is_404(self, server):
        _, port = server
        client = ServiceClient(f"http://127.0.0.1:{port}")
        with pytest.raises(ServiceError) as excinfo:
            list(client.job_events("job-999999"))
        assert excinfo.value.status == 404

    def test_stream_headers(self, server):
        _, port = server
        client = ServiceClient(f"http://127.0.0.1:{port}")
        client.characterize(SUITE[0].name)
        job_id = client.jobs()[0]["id"]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request("GET", f"/jobs/{job_id}/events?timeout=5")
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/event-stream"
            )
            assert response.headers["Cache-Control"] == "no-store"
            assert response.headers["Connection"] == "close"
            body = response.read().decode()
            assert "event: end-of-stream" in body
        finally:
            connection.close()

    def test_wait_for_job_returns_terminal_snapshot(self, server):
        _, port = server
        client = ServiceClient(f"http://127.0.0.1:{port}")
        snapshot = client.characterize(SUITE[2].name, wait=False)
        job_id = snapshot.get("id") or snapshot.get("job", {}).get("id")
        if job_id is None:
            job_id = client.jobs()[0]["id"]
        final = client.wait_for_job(job_id, timeout=120)
        assert final["state"] == "done"

    def test_timeout_must_be_finite_and_is_clamped(self, tmp_path):
        """A job whose owning sibling died stays "running" in its shared
        snapshot; its stream must still end by ``request_timeout_s``."""
        config = ServiceConfig(
            collection=FAST,
            workloads=SUITE[:1],
            cache_dir=str(tmp_path),
            request_timeout_s=0.5,
        )
        instance = serve(config, port=0)
        threading.Thread(target=instance.serve_forever, daemon=True).start()
        port = instance.server_address[1]
        job_id = "job-dead-000001"
        write_json(
            instance.service.jobs.shared_dir / f"{job_id}.json",
            {"id": job_id, "state": "running", "events": [{"event": "queued"}]},
        )
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            for bad in ("nan", "inf", "-inf"):
                connection.request("GET", f"/jobs/{job_id}/events?timeout={bad}")
                response = connection.getresponse()
                response.read()
                assert response.status == 400, bad
            connection.close()
            connection.request("GET", f"/jobs/{job_id}/events?timeout=1e9")
            response = connection.getresponse()
            assert response.status == 200
            body = response.read().decode()  # ends, or times out the test
            assert body.endswith("event: stream-timeout\ndata: {}\n\n")
        finally:
            connection.close()
            instance.shutdown()
            instance.service.close()

    def test_dashboard_served_self_contained(self, server):
        _, port = server
        client = ServiceClient(f"http://127.0.0.1:{port}")
        html_doc = client.dashboard()
        assert html_doc.startswith("<!DOCTYPE html>")
        assert "<script" not in html_doc
        assert "http://" not in html_doc.split("<body", 1)[1]


# -- wait_for_job unit paths against a stub server ----------------------------


class _StubHandler(BaseHTTPRequestHandler):
    """Job snapshots only — no /events endpoint (an 'older server')."""

    #: state sequence served for /jobs/job-1, one entry per poll.
    states: list[str] = []
    polls = 0

    def do_GET(self):  # noqa: N802 (BaseHTTPRequestHandler API)
        cls = type(self)
        if self.path.endswith("/events"):
            self.send_error(404, "no stream here")
            return
        index = min(cls.polls, len(cls.states) - 1)
        state = cls.states[index]
        cls.polls += 1
        body = json.dumps({"id": "job-1", "state": state}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # quiet
        pass


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.polls = 0
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestWaitForJobFallback:
    def test_falls_back_to_polling_and_terminates(self, stub):
        _StubHandler.states = ["queued", "running", "running", "done"]
        client = ServiceClient(stub)
        final = client.wait_for_job("job-1", timeout=30, poll_interval=0.01)
        assert final["state"] == "done"
        assert _StubHandler.polls >= 3  # streamed nothing; actually polled

    def test_timeout_raises_when_job_never_finishes(self, stub):
        _StubHandler.states = ["running"]
        client = ServiceClient(stub)
        with pytest.raises(ServiceError, match="still 'running'"):
            client.wait_for_job("job-1", timeout=0.3, poll_interval=0.05)

    def test_backoff_grows_the_poll_interval(self, stub, monkeypatch):
        import time as time_module

        _StubHandler.states = ["running"] * 6 + ["done"]
        client = ServiceClient(stub)
        slept: list[float] = []
        real_sleep = time_module.sleep

        def spy_sleep(seconds):
            slept.append(seconds)
            real_sleep(0.001)  # keep the test fast; record the request

        monkeypatch.setattr(time_module, "sleep", spy_sleep)
        final = client.wait_for_job("job-1", timeout=30, poll_interval=0.01)
        assert final["state"] == "done"
        assert slept, "fallback never slept"
        assert max(slept) > min(slept)  # the interval actually grew
        assert max(slept) <= 2.0  # and stayed capped
