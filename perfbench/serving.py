"""The ``serve`` side of the benchmark: a real server, a closed-loop client.

:class:`Server` runs ``python -m repro serve --workers 2
--collection-workers 2`` as a child process in a session of its own, so
that stopping it can reach every process it forked (server workers and
their collection pools).  :func:`closed_loop` drives it from this
process over keep-alive connections: each connection sends its next
request only after the previous response has been read.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

_URL = re.compile(r"on http://([^:\s]+):(\d+)")


def steal_s() -> float:
    """Seconds, summed over this guest's vCPUs, in which a hypervisor ran
    other guests while ours wanted to run (``steal`` in ``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A pool worker whose server worker was killed is then reparented to
    this process, which reaps it, instead of to an init that may not.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _session(sid: int) -> list[tuple[int, str]]:
    """``(pid, state)`` of every process in session ``sid`` (the server
    and its forks), zombies included."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[3] the session id.
        if int(fields[3]) == sid:
            found.append((int(entry), fields[0]))
    return found


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process, in MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One ``repro serve`` process tree on a fresh store."""

    def __init__(self, env: dict, store: str, config: dict) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--workers", "2", "--collection-workers", "2",
                "--port", "0", "--cache-dir", store,
                "--scale", str(config["scale"]), "--seed", str(config["seed"]),
                "--slaves", str(config["slaves"]),
                "--cores", str(config["cores"]), "--ops", str(config["ops"]),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        self.host = self.port = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the server has printed its address and answers
        ``/healthz``."""
        deadline = time.monotonic() + timeout
        for line in self.proc.stdout:
            match = _URL.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
        if self.port is None:
            raise RuntimeError("the server exited before printing its address")
        while time.monotonic() < deadline:
            try:
                if self.get("/healthz", timeout=5.0)[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("the server did not answer /healthz in time")

    def get(self, path: str, timeout: float = 600.0):
        """``(status, body, ETag)`` of one GET on a fresh connection."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read(), response.headers["ETag"]
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The largest peak resident set among the server's processes."""
        return max(
            (_peak_rss_mb(pid) for pid, _ in _session(self.proc.pid)),
            default=0.0,
        )

    def stop(self, grace: float = 1.0) -> None:
        """SIGTERM the supervisor, then SIGKILL whatever is left of its
        session after ``grace`` seconds; returns once all of it is gone.

        The grace is short on purpose: a server worker that ran a pooled
        collection can take over ten seconds to wind down, and nothing
        the benchmark measures depends on a graceful exit.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + grace
        while True:
            self.proc.poll()  # reap the supervisor as soon as it exits
            left = []
            for pid, state in _session(self.proc.pid):
                if pid != self.proc.pid:
                    try:  # an orphan adopted by this process
                        os.waitpid(pid, os.WNOHANG)
                    except ChildProcessError:
                        pass
                if state != "Z":
                    left.append(pid)
            if not left:
                break
            if time.monotonic() > deadline:
                for pid in left:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.02)
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Request:
    """One request of the warm mix and the response it must get."""

    kind: str
    path: str
    headers: dict = field(default_factory=dict)
    status: int = 200
    body: bytes | None = None


def warm_requests(server: Server, names, budgets) -> list[Request]:
    """The warm mix, one round: full-body and conditional matrix reads,
    ``/characterize/<name>`` over every workload and ``/subset?budget=``
    over the budgets, interleaved.  Issuing each once also warms the
    server's per-path response caches and records the expected bodies.
    """
    _, matrix, etag = server.get("/suite/matrix")
    mix = []
    for index, name in enumerate(names):
        budget = budgets[index % len(budgets)]
        mix += [
            Request("matrix", "/suite/matrix", body=matrix),
            Request("matrix_304", "/suite/matrix",
                    headers={"If-None-Match": etag}, status=304, body=b""),
            Request("characterize", f"/characterize/{name}"),
            Request("subset", f"/subset?budget={budget!r}"),
        ]
    for request in mix:
        if request.body is None:
            status, request.body, _ = server.get(request.path)
            if status != 200:
                raise RuntimeError(f"warming GET {request.path} -> {status}")
    return mix


#: Requests per keep-alive connection before the client replaces it.
#: The kernel picks the server worker that accepts each connection; with
#: two long-lived connections a whole run would hang on one pick (both
#: on one worker, or one each), which moves throughput by about half.
REQUESTS_PER_CONNECTION = 50


def closed_loop(
    server: Server, mix: list[Request], clients: int, done, window_s: float = 1.0
):
    """``clients`` keep-alive connections replay ``mix`` until ``done``.

    :func:`steal_s` is read at the start and after every ``window_s``
    seconds; after each reading the loop calls ``done(steal)`` with all
    readings so far and stops once it returns true.  Each connection is
    replaced after :data:`REQUESTS_PER_CONNECTION` requests.  Returns
    ``(samples, failed, steal)``: one ``(kind, finished, latency)`` per
    response, ``finished`` in seconds since the loop started.  A response
    fails when its status or body differs from what the warming pass
    recorded.
    """
    samples: list[tuple[str, float, float]] = []
    failures = [0] * clients
    errors: list[Exception] = []
    barrier = threading.Barrier(clients + 1)
    lock = threading.Lock()
    stop = threading.Event()
    begin = [0.0]

    def client(slot: int) -> None:
        mine = []
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            barrier.wait()
            index = slot * len(mix) // clients
            for sent in itertools.count(1):
                if stop.is_set():
                    break
                request = mix[index % len(mix)]
                index += 1
                start = time.perf_counter()
                if sent % REQUESTS_PER_CONNECTION == 0:
                    conn.close()
                    conn = http.client.HTTPConnection(
                        server.host, server.port, timeout=60
                    )
                conn.request("GET", request.path, headers=request.headers)
                response = conn.getresponse()
                body = response.read()
                done = time.perf_counter()
                mine.append((request.kind, done - begin[0], done - start))
                if response.status != request.status or body != request.body:
                    failures[slot] += 1
        except Exception as error:  # noqa: BLE001 - re-raised below
            with lock:
                errors.append(error)
        finally:
            conn.close()
            with lock:
                samples.extend(mine)

    threads = [
        threading.Thread(target=client, args=(slot,)) for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    begin[0] = time.perf_counter()
    steal = [steal_s()]
    barrier.wait()
    while not done(steal):
        wake = begin[0] + len(steal) * window_s
        time.sleep(max(0.0, wake - time.perf_counter()))
        steal.append(steal_s())
    stop.set()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        raise RuntimeError(f"warm client failed: {errors[0]!r}")
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a warm client did not stop")
    return samples, sum(failures), steal


def served_matrix(body: bytes):
    """(workloads, values) of a ``/suite/matrix`` body."""
    import numpy as np

    payload = json.loads(body)
    return tuple(payload["workloads"]), np.array(payload["values"], dtype=float)
