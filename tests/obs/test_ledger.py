"""Tests for the perf ledger: the append-only JSONL file
``perfbench/run.py`` writes one structured record to per run."""

import json

from repro.obs.ledger import (
    LEDGER_SCHEMA,
    append_record,
    environment_block,
    load_history,
)


def test_append_and_load_roundtrip(tmp_path):
    path = tmp_path / "benchmarks" / "history.jsonl"
    append_record(
        path,
        bench="speed",
        headline={"speedup": 2.0, "skipped": None, "label": "x"},
        status="pass",
    )
    records = load_history(path)
    assert len(records) == 1
    record = records[0]
    assert record["schema"] == LEDGER_SCHEMA
    assert record["bench"] == "speed"
    assert record["status"] == "pass"
    # Non-numeric headline values are dropped: the ledger keeps numbers.
    assert record["headline"] == {"speedup": 2.0}
    assert record["env"]["host"] == environment_block()["host"]


def test_load_history_tolerates_torn_and_foreign_lines(tmp_path):
    path = tmp_path / "history.jsonl"
    append_record(path, bench="speed", headline={"speedup": 2.0})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"torn": \n')  # a crashed writer's partial line
        handle.write(json.dumps({"kind": "something-else"}) + "\n")
    append_record(path, bench="faults", headline={"overhead_ratio": 1.1})
    records = load_history(path)
    assert [r["bench"] for r in records] == ["speed", "faults"]
    assert [r["bench"] for r in load_history(path, bench="faults")] == [
        "faults"
    ]


def test_append_after_torn_tail_keeps_both_records(tmp_path):
    """A writer killed mid-line leaves a tail with no newline; the next
    append must land on its own line instead of fusing with it."""
    path = tmp_path / "history.jsonl"
    append_record(path, bench="speed", headline={"speedup": 2.0})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"schema": 1, "kind": "perf-rec')  # no newline
    append_record(path, bench="faults", headline={"overhead_ratio": 1.1})
    assert [r["bench"] for r in load_history(path)] == ["speed", "faults"]
