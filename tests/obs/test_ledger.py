"""Tests for the perf ledger and the profile-validation CI tool.

The ledger is the append-only JSONL file ``perfbench/run.py`` writes one
structured record to per run.  ``tools/check_perf_history.py`` is
exercised through importlib, the same way ``test_fleet.py`` drives
``check_trace.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA,
    append_record,
    environment_block,
    load_history,
)
from repro.obs.prof import PROFILE_SCHEMA

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _profile_doc() -> dict:
    stacks = [
        [["svc", "hot"], ["a.py:f"], 6, 0],
        [["svc", "cold"], ["b.py:g"], 2, 0],
        [[], ["c.py:h"], 2, 0],
        [[], ["threading.py:wait"], 10, 1],
    ]
    return {
        "schema": PROFILE_SCHEMA,
        "kind": "cpu-profile",
        "mode": "wall",
        "clock": "thread",
        "interval_ms": 5.0,
        "duration_s": 1.0,
        "samples": sum(entry[2] for entry in stacks),
        "stacks": stacks,
    }


# -- records ------------------------------------------------------------------


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


# -- the CI gate tool ---------------------------------------------------------


@pytest.fixture(scope="module")
def check_tool():
    return _load_tool("check_perf_history")


def test_check_tool_validates_profiles(tmp_path, check_tool, capsys):
    good = tmp_path / "profile.json"
    good.write_text(json.dumps(_profile_doc()))
    assert check_tool.main(["--validate", str(good)]) == 0
    assert "profile valid" in capsys.readouterr().out

    assert (
        check_tool.main(
            ["--validate", str(good), "--min-span-fraction", "0.95"]
        )
        == 1
    )
    assert "span attribution" in capsys.readouterr().err

    torn = tmp_path / "torn.json"
    torn.write_text("{nope")
    assert check_tool.main(["--validate", str(torn)]) == 1
