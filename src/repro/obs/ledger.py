"""The perf ledger: an append-only history of benchmark records.

``perfbench/run.py`` appends one structured JSON line per run to its
ledger (``perfbench/history.jsonl`` by default): an environment block
(so numbers from different hosts are never naively compared), the run's
metrics and the outcome.  ``perfbench/run.py --compare`` reads two
ledgers back through :func:`load_history` and names the layer that grew.

The format is JSONL on purpose: appends are one ``write`` of one line
(atomic on POSIX for sane line lengths) through
:func:`repro.durable.append_line`, which first terminates a crashed
writer's partial line so the next record survives on its own line;
:func:`load_history` skips partial lines, and the file diffs cleanly in
review.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import time
from pathlib import Path

from repro.durable import append_line, read_lines

__all__ = [
    "LEDGER_SCHEMA",
    "environment_block",
    "append_record",
    "load_history",
]

#: Version stamp of ledger records; readers skip other schemas.
LEDGER_SCHEMA = 1


def environment_block() -> dict:
    """Where this record was measured — perf numbers are host-relative.

    ``cpus_usable`` (scheduler affinity) rather than just ``cpu_count``:
    cgroup-limited CI runners report all the host's cores while only a
    couple are schedulable, and that difference moves every parallel
    number in the ledger.
    """
    cpu_count = os.cpu_count() or 1
    try:
        cpus_usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus_usable = cpu_count
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "host": socket.gethostname(),
        "cpu_count": cpu_count,
        "cpus_usable": cpus_usable,
    }


def append_record(
    path: str | Path,
    bench: str,
    headline: dict,
    status: str = "pass",
    failures: list[str] | tuple[str, ...] = (),
    env: dict | None = None,
) -> dict:
    """Append one record to the ledger; returns the record written.

    Args:
        path: The JSONL ledger file (parents are created).
        bench: Benchmark name (perfbench writes
            ``perfbench/<workload>/<mode>``).
        headline: Flat ``{metric: number}`` numbers for this run.
        status: ``"pass"`` or ``"fail"`` — the run's outcome.
        failures: The failure messages when ``status="fail"``.
        env: Environment override (defaults to :func:`environment_block`).
    """
    record = {
        "schema": LEDGER_SCHEMA,
        "kind": "perf-record",
        "bench": str(bench),
        "recorded_s": round(time.time(), 3),
        "status": "fail" if status == "fail" else "pass",
        "failures": [str(f) for f in failures],
        "env": env if env is not None else environment_block(),
        "headline": {
            key: value
            for key, value in dict(headline).items()
            if isinstance(value, (int, float, bool)) and value is not None
        },
    }
    append_line(path, json.dumps(record, sort_keys=True))
    return record


def load_history(path: str | Path, bench: str | None = None) -> list[dict]:
    """All parseable ledger records, oldest first (torn lines skipped)."""
    return [
        record
        for record in read_lines(path)
        if record.get("schema") == LEDGER_SCHEMA
        and record.get("kind") == "perf-record"
        and (bench is None or record.get("bench") == bench)
    ]
