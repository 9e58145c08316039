"""Cross-process single-flight via on-disk claim records.

The in-process :class:`~repro.service.jobs.JobManager` already
deduplicates identical collection requests; claim records extend that
guarantee across *processes* sharing one store directory (the pre-fork
service workers).  Before running a collection, a worker must hold the
key's claim:

``<store root>/claims/<key>.claim``
    One JSON record — owner token, pid, host, claim time, TTL — created
    whole and exclusively, so exactly one process wins.  Losers wait
    for the claim to clear and then hydrate the winner's result from
    the store instead of re-running engines.

``<store root>/claims/runs.log``
    Append-only journal of *actual* (non-hydrated) collection runs, one
    JSON line per run.  A key appearing twice is a duplicate
    characterization — the thing this module exists to prevent — and
    increments ``repro_duplicate_collections_total``.  The service
    benchmark asserts the log stays duplicate-free under many-client,
    many-worker load.

Staleness: a claim whose TTL has expired, or whose owning pid is dead
on this host, is *broken* (removed under the registry's file lock) so a
crashed claimant never wedges the fleet.  Live claimants running long
collections call :meth:`ClaimRegistry.refresh` from their progress
callback to push the TTL window forward.  Record files, staleness and
the break-under-lock all go through :mod:`repro.durable`.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.durable import (
    append_line, atomic_create, gc_once, is_stale, read_json, read_lines, write_json,
)
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.service.locking import FileLock

__all__ = ["Claim", "ClaimRegistry"]

_log = get_logger("repro.service.claims")

_CLAIMS_ACQUIRED = REGISTRY.counter(
    "repro_claims_acquired_total",
    "Cross-process collection claims successfully acquired",
)
_CLAIMS_WAITED = REGISTRY.counter(
    "repro_claims_waited_total",
    "Claim acquisitions that found a live sibling claim and waited",
)
_CLAIMS_BROKEN = REGISTRY.counter(
    "repro_claims_broken_total",
    "Stale claims (expired TTL or dead owner) broken by a taker-over",
)
_RUNS_RECORDED = REGISTRY.counter(
    "repro_collections_run_total",
    "Actual (non-hydrated) collections recorded in the shared run log",
)
_DUPLICATE_RUNS = REGISTRY.counter(
    "repro_duplicate_collections_total",
    "Collections that ran for a key the shared run log had already seen",
)


@dataclass(frozen=True)
class Claim:
    """A held claim: proof this process may run ``key``'s collection."""

    key: str
    token: str
    path: Path
    acquired_s: float


class ClaimRegistry:
    """Claim records + run log under one shared store root.

    Args:
        root: The store directory the claims guard (claims live in a
            ``claims/`` subdirectory of it).
        ttl_s: Seconds a claim stays valid without a refresh; a claim
            older than this is presumed crashed and may be broken.
    """

    def __init__(self, root: str | Path, ttl_s: float = 900.0) -> None:
        self.root = Path(root)
        self.ttl_s = float(ttl_s)
        self._dir = self.root / "claims"
        self._dir.mkdir(parents=True, exist_ok=True)
        self._lock = FileLock(self._dir / "claims.lock")
        self._runs_log = self._dir / "runs.log"
        self._host = socket.gethostname()
        self._thread_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self._dir / f"{key}.claim"

    def _stale(self, path: Path, record: dict | None) -> bool:
        return is_stale(
            record, time.time(), stamp="claimed_s", ttl_s=self.ttl_s, path=path
        )

    def _break_if_stale(self, path: Path) -> None:
        """Remove ``path``'s claim if it is stale once the lock is held
        (only one process breaks it)."""
        if gc_once(self._lock, [path], lambda p: self._stale(p, read_json(p))):
            _CLAIMS_BROKEN.inc()
            _log.warning("broke stale claim", extra={"key": path.stem})

    # -- claiming -------------------------------------------------------------

    def acquire(self, key: str) -> Claim | None:
        """Try to claim ``key``; ``None`` means a live sibling holds it.

        A stale claim (expired or dead owner) is broken and the acquire
        retried, so one crashed worker costs one TTL at most — not a
        permanently wedged key.  The record is created whole
        (:func:`~repro.durable.atomic_create`), so a claimant killed
        mid-acquire leaves either no claim or one naming its dead pid.
        """
        token = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        path = self._path(key)
        for _attempt in range(8):
            now = time.time()
            record = {
                "key": key,
                "token": token,
                "pid": os.getpid(),
                "host": self._host,
                "claimed_s": now,
                "ttl_s": self.ttl_s,
            }
            if atomic_create(path, json.dumps(record, sort_keys=True).encode()):
                _CLAIMS_ACQUIRED.inc()
                return Claim(key=key, token=token, path=path, acquired_s=now)
            holder = read_json(path)
            if holder is None and not path.exists():
                continue  # released meanwhile; retry the create
            if not self._stale(path, holder):
                return None
            self._break_if_stale(path)
        return None  # pragma: no cover - pathological churn

    def refresh(self, claim: Claim) -> None:
        """Push the claim's TTL window forward (long collections call
        this from their progress feed)."""
        with self._lock:
            record = read_json(claim.path)
            if record is None or record.get("token") != claim.token:
                return  # broken by a sibling; nothing left to refresh
            record["claimed_s"] = time.time()
            write_json(claim.path, record)

    def release(self, claim: Claim) -> None:
        """Drop the claim if we still own it (token-verified)."""
        with self._lock:
            record = read_json(claim.path)
            if record is not None and record.get("token") == claim.token:
                claim.path.unlink(missing_ok=True)

    def holder(self, key: str) -> dict | None:
        """The live claim record for ``key``, or ``None``."""
        path = self._path(key)
        record = read_json(path)
        if record is None or self._stale(path, record):
            return None
        return record

    def wait(
        self,
        key: str,
        timeout: float,
        poll_s: float = 0.05,
        cancel: threading.Event | None = None,
    ) -> bool:
        """Block until ``key`` has no live claim (returns ``True``) or
        ``timeout``/``cancel`` interrupts the wait (``False``).

        A claim that goes stale while we wait is broken here — the
        waiter is exactly the process that should take over a crashed
        claimant's work.
        """
        _CLAIMS_WAITED.inc()
        deadline = time.monotonic() + timeout
        path = self._path(key)
        while True:
            record = read_json(path)
            if record is None:
                return True
            if self._stale(path, record):
                self._break_if_stale(path)
                return True
            if cancel is not None and cancel.is_set():
                return False
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            if cancel is not None:
                cancel.wait(min(poll_s, remaining))
            else:
                time.sleep(min(poll_s, remaining))

    # -- run accounting -------------------------------------------------------

    def record_run(self, key: str) -> bool:
        """Journal one actual collection run; returns ``False`` (and
        bumps the duplicate counter) if ``key`` had already run."""
        with self._thread_lock, self._lock:
            duplicate = any(run["key"] == key for run in self.runs())
            append_line(
                self._runs_log,
                json.dumps(
                    {
                        "key": key,
                        "pid": os.getpid(),
                        "host": self._host,
                        "t_s": round(time.time(), 3),
                    },
                    sort_keys=True,
                ),
            )
        _RUNS_RECORDED.inc()
        if duplicate:
            _DUPLICATE_RUNS.inc()
            _log.warning("duplicate collection run", extra={"key": key})
        return not duplicate

    def runs(self) -> list[dict]:
        """Every journaled run, in append order (torn lines skipped)."""
        return [run for run in read_lines(self._runs_log) if "key" in run]

    def duplicate_runs(self) -> dict[str, int]:
        """Keys that ran more than once, mapped to their run counts."""
        counts: dict[str, int] = {}
        for run in self.runs():
            counts[run["key"]] = counts.get(run["key"], 0) + 1
        return {key: count for key, count in counts.items() if count > 1}
