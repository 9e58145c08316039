"""Pre-fork multi-worker supervisor for the characterization service.

``repro serve --workers N`` runs N independent server *processes*
behind one listening socket: the parent binds and listens, then forks;
each child wraps the inherited socket in its own
:class:`~http.server.ThreadingHTTPServer` and accepts from it directly.
The kernel load-balances ``accept(2)`` across the children, so the plane
scales horizontally without a userspace proxy.  Where the platform
offers ``SO_REUSEPORT`` the parent sets it too — harmless for the
inherited-socket scheme, and it lets an operator attach extra external
workers to the same address later.

The workers share *nothing in memory*.  All coordination happens
through the on-disk :class:`~repro.service.store.ResultStore` (flock-
serialized index), the :class:`~repro.service.claims.ClaimRegistry`
(a per-key flock held for each collection: cross-process single-flight),
and the shared job snapshots the :class:`~repro.service.jobs.JobManager`
persists — which is exactly what makes a crashed worker harmless: the
kernel frees its locks, the supervisor reaps it, and forks a replacement
that picks the same state back up from disk.

Lifecycle::

    sup = Supervisor(config, host="127.0.0.1", port=0, workers=4)
    host, port = sup.start()        # bind + listen + fork N workers
    sup.run_forever()               # reap/restart loop until SIGTERM
    # or, embedded (tests):
    sup.shutdown()                  # SIGTERM children, reap, close

The supervisor process itself never instantiates the service: forking a
process that already owns thread pools or open stores is how fork-
safety bugs are made.  Children build everything fresh after the fork.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from http.server import ThreadingHTTPServer

from repro.errors import ServiceError
from repro.obs.fleet import TelemetryAgent
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.service.server import CharacterizationService, ServiceConfig, _Handler
from repro.service.store import resolve_cache_dir

__all__ = ["Supervisor", "worker_main"]

_log = get_logger("repro.service.supervisor")

_WORKER_RESTARTS = REGISTRY.counter(
    "repro_worker_restarts_total",
    "Service worker processes restarted after an unexpected exit",
)

#: Listen backlog for the shared socket: deep enough that a closed-loop
#: bench with hundreds of clients never sees connection resets.
_BACKLOG = 512

#: Reap cadence.  WNOHANG polling (not ``waitpid(-1)``) so an embedded
#: supervisor — e.g. under pytest — never reaps unrelated children.
_REAP_INTERVAL_S = 0.05


def _bind_listen_socket(host: str, port: int) -> socket.socket:
    """Bind the shared listening socket the workers will inherit."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if hasattr(socket, "SO_REUSEPORT"):
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            except OSError:  # pragma: no cover - kernel without support
                pass
        sock.bind((host, port))
        sock.listen(_BACKLOG)
        # Workers that lose the accept race must get BlockingIOError
        # (socketserver's "nothing to accept"), not park in accept(2):
        # PEP 475 retries that through SIGTERM, so serve_forever() would
        # never return.
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


def worker_main(
    sock: socket.socket,
    config: ServiceConfig | None = None,
    verbose: bool = False,
) -> None:
    """Run one service worker over an inherited listening socket.

    Builds the full service stack *after* the fork (store, job manager,
    thread pool — nothing crosses the fork), then accepts from ``sock``
    until SIGTERM/SIGINT.  Never returns: exits the process.
    """
    # The fork copied the supervisor's registry values (its restart
    # counter, anything imports bumped); this worker's shard must report
    # only what *it* did, or the fleet merge would multiply-count.
    REGISTRY.reset_values()
    service = CharacterizationService(config)
    server = ThreadingHTTPServer(
        sock.getsockname()[:2], _Handler, bind_and_activate=False
    )
    # Swap the server's own (unbound) socket for the inherited one.
    server.socket.close()
    server.socket = sock
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]

    def _stop(signum: int, _frame) -> None:
        # serve_forever() runs on this (main) thread; shutdown() must
        # come from another or the handler deadlocks on itself.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    _log.info(
        "worker accepting",
        extra={"pid": os.getpid(), "instance": service.jobs.instance},
    )
    code = 0
    try:
        server.serve_forever(poll_interval=0.1)
    except Exception:  # pragma: no cover - defensive
        code = 1
    finally:
        try:
            service.close()
            server.server_close()
            # os._exit below skips atexit, so the collection pool's
            # own cleanup hook never fires — reap its worker processes
            # explicitly or they outlive the fleet.
            from repro.cluster.pool import shutdown_pools

            shutdown_pools()
        finally:
            # _exit, not sys.exit: never unwind into the parent's stack
            # (CLI, pytest) from a forked child.
            os._exit(code)


class Supervisor:
    """Parent of a pre-fork worker fleet sharing one listen socket.

    Args:
        config: Service configuration every worker runs with.
        host: Bind address.
        port: TCP port (0 picks a free one; read it back from
            :meth:`start`'s return value).
        workers: Number of server processes to keep alive.
        verbose: Per-request logging in the workers.
        max_restarts: Unexpected-exit restarts tolerated before the
            supervisor gives up (guards against crash loops).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        verbose: bool = False,
        max_restarts: int = 16,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            raise ServiceError(
                "pre-fork serving needs os.fork(); use --workers 1 here"
            )
        self.config = config
        self.workers = workers
        self.verbose = verbose
        self.max_restarts = max_restarts
        self.restarts = 0
        self._requested = (host, port)
        self._sock: socket.socket | None = None
        self._pids: set[int] = set()
        self._stopping = threading.Event()
        self._telemetry: TelemetryAgent | None = None
        self.host = host
        self.port = port

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind the shared socket and fork the worker fleet."""
        host, port = self._requested
        self._sock = _bind_listen_socket(host, port)
        self.host, self.port = self._sock.getsockname()[:2]
        for _ in range(self.workers):
            self._spawn()
        # The supervisor has no HTTP endpoint of its own; its shard in
        # the shared store is the only way its counters (worker
        # restarts) reach a /metrics scrape.  Created *after* the forks
        # above so no child inherits it.  Without a shared store there
        # is nowhere fleet-visible to publish — skip.
        store_root = resolve_cache_dir(
            self.config.cache_dir if self.config is not None else None
        )
        if store_root is not None:
            self._telemetry = TelemetryAgent(
                store_root, instance=f"sup-{os.getpid():x}", role="supervisor"
            ).start()
        _log.info(
            "supervisor started",
            extra={"port": self.port, "workers": self.workers,
                   "pids": sorted(self._pids)},
        )
        return self.host, self.port

    def _spawn(self) -> int:
        assert self._sock is not None
        pid = os.fork()
        if pid == 0:
            # Child: drop the parent's bookkeeping and serve.
            self._pids = set()
            try:
                worker_main(self._sock, self.config, self.verbose)
            finally:  # pragma: no cover - worker_main never returns
                os._exit(1)
        self._pids.add(pid)
        return pid

    def _reap(self) -> list[tuple[int, int]]:
        """Collect exited workers without blocking; returns (pid, status)."""
        exited = []
        for pid in list(self._pids):
            try:
                done, status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # pragma: no cover - reaped elsewhere
                done, status = pid, 0
            if done == pid:
                self._pids.discard(pid)
                exited.append((pid, status))
        return exited

    def tick(self) -> None:
        """One supervision step: reap dead workers, fork replacements."""
        for pid, status in self._reap():
            if self._stopping.is_set():
                continue
            self.restarts += 1
            _WORKER_RESTARTS.inc()
            if self._telemetry is not None:
                # Publish immediately: the very next /metrics scrape
                # (any worker) must already show this restart.
                self._telemetry.write_now()
            _log.warning(
                "worker died; restarting",
                extra={"pid": pid, "status": status,
                       "restarts": self.restarts},
            )
            if self.restarts > self.max_restarts:
                raise ServiceError(
                    f"service workers crash-looping "
                    f"({self.restarts} restarts); giving up"
                )
            self._spawn()

    def run_forever(self) -> None:
        """Supervise until :meth:`shutdown` (or SIGTERM via the CLI)."""
        while not self._stopping.is_set():
            self.tick()
            self._stopping.wait(_REAP_INTERVAL_S)
        self._finish()

    def request_stop(self) -> None:
        """Signal-handler-safe: begin shutdown without blocking."""
        self._stopping.set()
        for pid in list(self._pids):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the fleet: SIGTERM, grace period, SIGKILL stragglers."""
        self.request_stop()
        self._finish(timeout)

    def _finish(self, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while self._pids and time.monotonic() < deadline:
            self._reap()
            if self._pids:
                time.sleep(_REAP_INTERVAL_S)
        for pid in list(self._pids):  # pragma: no cover - hung worker
            _log.warning("killing unresponsive worker", extra={"pid": pid})
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            self._pids.discard(pid)
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if self._telemetry is not None:
            self._telemetry.close()
            self._telemetry = None

    def __enter__(self) -> "Supervisor":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()
