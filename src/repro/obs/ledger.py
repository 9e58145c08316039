"""The perf-regression ledger: an append-only history of bench gates.

Every ``tools/bench_*.py --check`` run appends one structured JSON line
to ``benchmarks/history.jsonl`` — an environment block (so numbers from
different hosts are never naively compared), the benchmark's headline
numbers, the gate outcome, and optionally a compact
:func:`profile_digest` of a span-attributed CPU profile taken during
the run.  The ledger is what turns "the gate failed" into "the gate
failed *and here is the span/frame that got slower*":
:func:`diff_records` compares a failing record against its most recent
passing baseline and names the top regressed span paths and frames.

``tools/check_perf_history.py`` is the CLI over this module; the bench
tools call :func:`append_record` directly.

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
import sys
import time
from pathlib import Path

from repro.durable import append_line, read_lines

__all__ = [
    "LEDGER_SCHEMA",
    "environment_block",
    "profile_digest",
    "append_record",
    "load_history",
    "baseline_for",
    "diff_records",
    "format_diff",
]

#: Version stamp of ledger records; readers skip other schemas.
LEDGER_SCHEMA = 1

#: Span paths / leaf frames kept in a profile digest.
_DIGEST_TOP = 10


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


def _profile_stacks(doc: dict):
    for entry in doc.get("stacks", ()):
        spans, frames, count, idle = entry
        yield tuple(spans), tuple(frames), int(count), bool(idle)


def profile_digest(doc: dict, top: int = _DIGEST_TOP) -> dict:
    """Compress a profile document into a ledger-sized summary.

    Keeps the totals, the busy-sample span attribution, and the top
    span paths and busy leaf frames as *fractions of busy samples* —
    fractions, not counts, so digests from windows of different lengths
    diff meaningfully.
    """
    span_counts: dict[str, int] = {}
    frame_counts: dict[str, int] = {}
    attributed = idle = untracked = 0
    for spans, frames, count, is_idle in _profile_stacks(doc):
        if spans:
            attributed += count
        elif is_idle:
            idle += count
            continue  # parked threads carry no perf signal
        else:
            untracked += count
        root = ";".join(spans) if spans else "(untracked)"
        span_counts[root] = span_counts.get(root, 0) + count
        if frames:
            leaf = frames[-1]
            frame_counts[leaf] = frame_counts.get(leaf, 0) + count
    busy = max(1, attributed + untracked)

    def ranked(counts: dict[str, int]) -> list[dict]:
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            {"name": name, "fraction": round(count / busy, 4)}
            for name, count in ordered[:top]
        ]

    return {
        "samples": int(doc.get("samples", 0)),
        "busy_samples": attributed + untracked,
        "duration_s": float(doc.get("duration_s", 0.0)),
        "interval_ms": float(doc.get("interval_ms", 0.0)),
        "mode": doc.get("mode", "wall"),
        "clock": doc.get("clock"),
        "span_fraction": round(attributed / busy, 4),
        "spans": ranked(span_counts),
        "frames": ranked(frame_counts),
    }


def append_record(
    path: str | Path,
    bench: str,
    headline: dict,
    status: str = "pass",
    failures: list[str] | tuple[str, ...] = (),
    profile: dict | None = None,
    env: dict | None = None,
) -> dict:
    """Append one record to the ledger; returns the record written.

    Args:
        path: The JSONL ledger file (parents are created).
        bench: Benchmark name (``speed``, ``service``, ``faults``,
            ``subset``).
        headline: Flat ``{metric: number}`` gate numbers for this run.
        status: ``"pass"`` or ``"fail"`` — the gate outcome.
        failures: The gate's failure messages when ``status="fail"``.
        profile: An optional :func:`profile_digest`.
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
    if profile is not None:
        record["profile"] = profile
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


def baseline_for(history: list[dict], record: dict) -> dict | None:
    """The most recent *passing* record of the same bench before this one.

    A failing run must diff against the last known-good state, not
    against the previous failure — chains of failures would otherwise
    diff to "no change" and hide the original regression.
    """
    cutoff = float(record.get("recorded_s", float("inf")))
    candidates = [
        r
        for r in history
        if r.get("bench") == record.get("bench")
        and r.get("status") == "pass"
        and float(r.get("recorded_s", 0.0)) < cutoff
        and r is not record
    ]
    return candidates[-1] if candidates else None


def _higher_is_better(key: str) -> bool:
    """Direction heuristic for headline metrics by naming convention."""
    lowered = key.lower()
    if any(
        token in lowered
        for token in ("speedup", "per_s", "fraction", "coverage", "lift")
    ):
        return True
    return not any(
        token in lowered
        for token in ("seconds", "_ms", "_ns", "pct", "overhead", "ratio")
    )


def diff_records(baseline: dict, latest: dict, top: int = 5) -> dict:
    """Compare two ledger records: headline deltas + regressed spans/frames.

    Headline entries report the relative change and whether it moved in
    the losing direction for that metric.  Profile entries (when both
    records carry digests) report busy-share deltas, sorted by growth —
    the frames and span paths that absorbed more of the run are the
    regression suspects.
    """
    headline = []
    base_numbers = baseline.get("headline", {})
    for key, value in sorted(latest.get("headline", {}).items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        base = base_numbers.get(key)
        if isinstance(base, bool) or not isinstance(base, (int, float)):
            continue
        change = ((value - base) / abs(base)) if base else 0.0
        worse = change < 0 if _higher_is_better(key) else change > 0
        headline.append(
            {
                "metric": key,
                "baseline": base,
                "latest": value,
                "change_pct": round(100.0 * change, 2),
                "regressed": worse and abs(change) > 1e-9,
            }
        )

    def share_deltas(field: str) -> list[dict]:
        base_profile = baseline.get("profile") or {}
        latest_profile = latest.get("profile") or {}
        base_shares = {
            entry["name"]: float(entry["fraction"])
            for entry in base_profile.get(field, ())
        }
        latest_shares = {
            entry["name"]: float(entry["fraction"])
            for entry in latest_profile.get(field, ())
        }
        names = set(base_shares) | set(latest_shares)
        deltas = [
            {
                "name": name,
                "baseline_fraction": base_shares.get(name, 0.0),
                "latest_fraction": latest_shares.get(name, 0.0),
                "delta": round(
                    latest_shares.get(name, 0.0) - base_shares.get(name, 0.0),
                    4,
                ),
            }
            for name in names
        ]
        deltas.sort(key=lambda d: (-d["delta"], d["name"]))
        return [d for d in deltas[:top] if d["delta"] > 0]

    return {
        "bench": latest.get("bench"),
        "baseline_recorded_s": baseline.get("recorded_s"),
        "latest_recorded_s": latest.get("recorded_s"),
        "same_host": (
            (baseline.get("env") or {}).get("host")
            == (latest.get("env") or {}).get("host")
        ),
        "headline": headline,
        "regressed_spans": share_deltas("spans"),
        "regressed_frames": share_deltas("frames"),
    }


def format_diff(diff: dict) -> str:
    """Human-readable rendering of one :func:`diff_records` result."""
    lines = [f"perf diff for bench '{diff.get('bench')}' vs last pass:"]
    if not diff.get("same_host"):
        lines.append(
            "  note: baseline came from a different host — absolute "
            "numbers are not comparable, shares still are"
        )
    for entry in diff.get("headline", ()):
        marker = "REGRESSED" if entry["regressed"] else "ok"
        lines.append(
            f"  {entry['metric']}: {entry['baseline']} -> {entry['latest']} "
            f"({entry['change_pct']:+.1f}%) {marker}"
        )
    spans = diff.get("regressed_spans", ())
    if spans:
        lines.append("  span paths that grew (share of busy samples):")
        for entry in spans:
            lines.append(
                f"    {entry['name']}: "
                f"{entry['baseline_fraction']:.1%} -> "
                f"{entry['latest_fraction']:.1%} (+{entry['delta']:.1%})"
            )
    frames = diff.get("regressed_frames", ())
    if frames:
        lines.append("  frames that grew (share of busy samples):")
        for entry in frames:
            lines.append(
                f"    {entry['name']}: "
                f"{entry['baseline_fraction']:.1%} -> "
                f"{entry['latest_fraction']:.1%} (+{entry['delta']:.1%})"
            )
    if len(lines) == 1:
        lines.append("  (no comparable numbers)")
    return "\n".join(lines)
