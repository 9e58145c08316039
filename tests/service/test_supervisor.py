"""End-to-end tests for the pre-fork multi-worker service plane."""

import http.client
import json
import logging
import os
import select
import signal
import socket
import threading
import time
import urllib.request

import pytest

from repro.cluster.collection import CollectionConfig
from repro.cluster.testbed import MeasurementConfig
from repro.errors import ServiceError
from repro.obs.stats import Stopwatch
from repro.service.claims import ClaimRegistry
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig
from repro.service.supervisor import Supervisor, _bind_listen_socket
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
    )


def _get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return json.loads(response.read())


def test_workers_must_be_positive(tmp_path):
    with pytest.raises(ServiceError, match="workers"):
        Supervisor(_config(tmp_path), workers=0)


def test_fleet_serves_from_multiple_processes(tmp_path):
    """Both forked workers take requests off the shared socket, and a
    concurrent cold characterization runs its collection exactly once
    fleet-wide."""
    config = _config(tmp_path)
    with Supervisor(config, port=0, workers=2) as sup:
        assert len(sup._pids) == 2
        base = f"http://{sup.host}:{sup.port}"

        # New connections land on whichever worker accepts first; a few
        # dozen probes must reach both instances.
        instances = set()
        for _ in range(200):
            instances.add(_get_json(f"{base}/")["instance"])
            if len(instances) == 2:
                break
        assert len(instances) == 2

        # Concurrent cold requests for the SAME workload through the
        # fleet: claims must keep it to one engine run.
        name = SUITE[0].name
        finals: list[dict] = []
        errors: list[str] = []

        def characterize() -> None:
            try:
                client = ServiceClient(base)
                snapshot = client.characterize(name, wait=False)
                if snapshot.get("id"):
                    snapshot = client.wait_for_job(
                        snapshot["id"], timeout=300.0
                    )
                    assert snapshot["state"] == "done"
                finals.append(snapshot)
            except Exception as exc:  # noqa: BLE001
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=characterize) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300.0)
        assert not errors, errors
        assert len(finals) == 4

        registry = ClaimRegistry(config.cache_dir)
        assert registry.duplicate_runs() == {}
        assert len(registry.runs()) == 1

        # Warm now: the data is served straight from the shared store.
        result = _get_json(f"{base}/characterize/{name}")
        assert result["name"] == name

        pids = set(sup._pids)

    # Context exit == shutdown: every worker process must be gone.
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_killed_worker_is_restarted_and_service_recovers(tmp_path):
    with Supervisor(_config(tmp_path), port=0, workers=2) as sup:
        base = f"http://{sup.host}:{sup.port}"
        assert _get_json(f"{base}/")["suite_size"] == 2

        victim = next(iter(sup._pids))
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            sup.tick()
            if victim not in sup._pids and len(sup._pids) == 2:
                break
            time.sleep(0.05)
        assert victim not in sup._pids
        assert len(sup._pids) == 2
        assert sup.restarts == 1

        # The replacement (and the survivor) keep serving.
        for _ in range(10):
            assert _get_json(f"{base}/")["suite_size"] == 2

        # The restart is fleet-scrapeable: the supervisor has no HTTP
        # port, so its restart counter can only reach /metrics through
        # its shard in the shared store.
        def _restarts_scraped() -> float:
            with urllib.request.urlopen(f"{base}/metrics", timeout=30.0) as r:
                text = r.read().decode()
            for line in text.splitlines():
                if line.startswith("repro_worker_restarts_total "):
                    return float(line.split()[1])
            return 0.0

        assert _restarts_scraped() == 1.0

        # And /fleet agrees, listing the supervisor as its own process.
        fleet = _get_json(f"{base}/fleet")
        assert fleet["totals"]["restarts_total"] == 1.0
        roles = {w["role"] for w in fleet["workers"]}
        assert "supervisor" in roles and "server" in roles


def test_shutdown_is_idempotent_and_closes_the_socket(tmp_path):
    sup = Supervisor(_config(tmp_path), port=0, workers=2)
    try:
        host, port = sup.start()
        assert _get_json(f"http://{host}:{port}/")["suite_size"] == 2
    finally:
        sup.shutdown()
    sup.shutdown()  # second call must be a no-op
    assert not sup._pids
    # The port is free again: a fresh supervisor can bind it.
    rebound = Supervisor(_config(tmp_path), host=host, port=port, workers=1)
    try:
        rebound.start()
    finally:
        rebound.shutdown()


def test_inherited_listen_socket_is_non_blocking():
    """A worker that loses the accept race must get BlockingIOError, not
    park in accept(2) where SIGTERM cannot reach serve_forever()."""
    sock = _bind_listen_socket("127.0.0.1", 0)
    try:
        assert sock.getblocking() is False
        with pytest.raises(BlockingIOError):
            sock.accept()  # nothing pending: returns at once
        client = socket.create_connection(sock.getsockname()[:2], timeout=5.0)
        try:
            assert select.select([sock], [], [], 5.0)[0]
            accepted, _addr = sock.accept()
            try:
                assert accepted.getblocking() is True
            finally:
                accepted.close()
        finally:
            client.close()
    finally:
        sock.close()


class _Collect(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def test_shutdown_after_fresh_connections_is_prompt(tmp_path):
    """Fresh connections wake every worker's selector; with a blocking
    listen socket the losers sat in accept(2) through SIGTERM until the
    10 s grace ran out and the supervisor SIGKILLed them."""
    logger = logging.getLogger("repro.service.supervisor")
    collect = _Collect()
    logger.addHandler(collect)
    level = logger.level
    logger.setLevel(logging.WARNING)
    sup = Supervisor(_config(tmp_path), port=0, workers=2)
    try:
        host, port = sup.start()
        for _ in range(20):  # urlopen: one new connection per request
            assert _get_json(f"http://{host}:{port}/healthz")["ok"] is True
        started = time.monotonic()
        sup.shutdown()
        elapsed = time.monotonic() - started
    finally:
        sup.shutdown()
        logger.removeHandler(collect)
        logger.setLevel(level)
    assert elapsed < 3.0
    assert not [m for m in collect.messages if "unresponsive" in m]


#: Warm ``/suite/matrix`` floor for 2 pre-fork workers on >= 2 CPUs.
WARM_MATRIX_FLOOR_RPS = 2000.0


def _keepalive_rps(host: str, port: int, path: str, clients: int, requests: int):
    """Closed-loop throughput of ``clients`` threads, each holding ONE
    keep-alive connection and firing its next GET the moment the
    previous response is read, so no TCP handshake is measured."""
    per_client = max(1, requests // clients)
    barrier = threading.Barrier(clients + 1)
    errors: list[str] = []

    def client() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", path)  # prime the connection
            response = conn.getresponse()
            response.read()
            assert response.status == 200, response.status
            barrier.wait()
            for _ in range(per_client):
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                assert response.status == 200, response.status
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"{type(exc).__name__}: {exc}")
            barrier.abort()
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    with Stopwatch() as sw:
        for thread in threads:
            thread.join(120.0)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    return per_client * clients / sw.seconds


@pytest.mark.slow
def test_warm_matrix_throughput_floor_with_two_workers(tmp_path):
    """Two pre-fork workers serve the warm matrix at >= 2k req/s over 8
    keep-alive clients, and the cold fill through them ran each
    characterization exactly once."""
    config = ServiceConfig(
        collection=CollectionConfig(
            scale=0.3,
            seed=42,
            measurement=MeasurementConfig(
                slaves_measured=1, active_cores=2, ops_per_core=1200
            ),
        ),
        workloads=SUITE[:2],
        workers=2,
        cache_dir=str(tmp_path / "store"),
    )
    # Fork before any client thread exists.
    with Supervisor(config, port=0, workers=2) as sup:
        client = ServiceClient(f"http://{sup.host}:{sup.port}")
        jobs = [client.characterize(w.name, wait=False) for w in SUITE[:2]]
        for snapshot in jobs:
            if snapshot.get("id"):  # a cached result carries no job
                final = client.wait_for_job(snapshot["id"], timeout=1800.0)
                assert final["state"] == "done"
        client.matrix()  # assemble the suite entry from the store
        rps = _keepalive_rps(sup.host, sup.port, "/suite/matrix", 8, 400)
    assert ClaimRegistry(config.cache_dir).duplicate_runs() == {}
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip(f"{rps:.0f} req/s; 2 workers need 2 usable CPUs")
    assert rps >= WARM_MATRIX_FLOOR_RPS, f"{rps:.0f} req/s"
