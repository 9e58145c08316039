"""Cross-process single-flight for collections, and the run journal.

The in-process :class:`~repro.service.jobs.JobManager` already
deduplicates identical collection requests; a claim extends that
guarantee across *processes* sharing one store directory (the pre-fork
service workers).  Before running a collection, a worker must hold the
key's claim:

``<store root>/claims/<key>.lock``
    The key's :class:`~repro.service.locking.FileLock`, held by the job
    thread for the whole collection, so exactly one process collects a
    key at a time.  Losers poll it, and once they hold it their
    collection hydrates the winner's stored result instead of re-running
    engines.  The kernel frees a flock when its holder dies, so a
    crashed claimant never wedges a key.  A claimant that is alive but
    hung keeps the key: only its death frees it.

``<store root>/claims/runs.log``
    Append-only journal of *actual* (non-hydrated) collection runs, one
    JSON line per run.  A key appearing twice is a duplicate
    characterization — the thing this module exists to prevent — and
    increments ``repro_duplicate_collections_total``.  The service
    benchmark asserts the log stays duplicate-free under many-client,
    many-worker load.

``*.claim`` records an older store left in ``claims/`` are inert:
nothing reads them.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path

from repro.durable import append_line, read_lines
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.service.locking import FileLock

__all__ = ["ClaimRegistry"]

_log = get_logger("repro.service.claims")

_RUNS_RECORDED = REGISTRY.counter(
    "repro_collections_run_total",
    "Actual (non-hydrated) collections recorded in the shared run log",
)
_DUPLICATE_RUNS = REGISTRY.counter(
    "repro_duplicate_collections_total",
    "Collections that ran for a key the shared run log had already seen",
)


class ClaimRegistry:
    """Per-key claim locks + run log under one shared store root.

    Args:
        root: The store directory the claims guard (claims live in a
            ``claims/`` subdirectory of it).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._dir = self.root / "claims"
        self._dir.mkdir(parents=True, exist_ok=True)
        self._lock = FileLock(self._dir / "claims.lock")
        self._runs_log = self._dir / "runs.log"
        self._host = socket.gethostname()

    def lock(self, key: str) -> FileLock:
        """``key``'s claim: a fresh lock instance, so two registries (two
        would-be workers) exclude each other even within one process."""
        return FileLock(self._dir / f"{key}.lock")

    # -- run accounting -------------------------------------------------------

    def record_run(self, key: str) -> bool:
        """Journal one actual collection run; returns ``False`` (and
        bumps the duplicate counter) if ``key`` had already run."""
        with self._lock:
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
