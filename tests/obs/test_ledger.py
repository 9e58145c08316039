"""Tests for the perf-regression ledger and its CI gate tooling.

The ledger is an append-only JSONL file every ``tools/bench_*.py
--check`` run writes one structured record to; ``diff_records`` is the
payoff — when a gate fails, it names the headline metrics that moved
and the span paths / frames whose busy share grew against the last
passing baseline.  ``tools/check_perf_history.py`` is exercised through
importlib, the same way ``test_fleet.py`` drives ``check_trace.py``.
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA,
    append_record,
    baseline_for,
    diff_records,
    environment_block,
    format_diff,
    load_history,
    profile_digest,
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
    # Non-numeric headline values are dropped: the diff only compares
    # numbers.
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


def test_baseline_is_the_latest_prior_passing_record(tmp_path):
    path = tmp_path / "history.jsonl"
    append_record(path, bench="speed", headline={"speedup": 3.0})
    append_record(path, bench="other", headline={"speedup": 9.0})
    append_record(
        path, bench="speed", headline={"speedup": 1.0}, status="fail",
        failures=["slow"],
    )
    history = load_history(path)
    # Timestamps within one test tick at the same second; order the
    # records explicitly the way distinct bench runs would be.
    for offset, record in enumerate(history):
        record["recorded_s"] = 1000.0 + offset
    latest = history[-1]
    baseline = baseline_for(history, latest)
    assert baseline is not None
    assert baseline["bench"] == "speed"
    assert baseline["status"] == "pass"
    assert baseline["headline"] == {"speedup": 3.0}
    # The failing record itself can never be its own baseline.
    assert baseline_for(history, baseline) is None


# -- the regression diff ------------------------------------------------------


def _record(bench, headline, recorded_s, status="pass", profile=None):
    record = {
        "schema": LEDGER_SCHEMA,
        "kind": "perf-record",
        "bench": bench,
        "recorded_s": recorded_s,
        "status": status,
        "failures": [],
        "env": {"host": "unit"},
        "headline": headline,
    }
    if profile is not None:
        record["profile"] = profile
    return record


def test_diff_names_regressed_metrics_spans_and_frames():
    old_profile = profile_digest(_profile_doc())
    hot_doc = _profile_doc()
    # The regression: a new frame eats most of the busy window.
    hot_doc["stacks"].append([["svc", "hot"], ["slow.py:new_hot"], 30, 0])
    hot_doc["samples"] += 30
    new_profile = profile_digest(hot_doc)

    baseline = _record(
        "speed",
        {"single_thread_speedup": 3.0, "tracing_overhead_pct": 0.5},
        1000.0,
        profile=old_profile,
    )
    latest = _record(
        "speed",
        {"single_thread_speedup": 1.5, "tracing_overhead_pct": 3.0},
        2000.0,
        status="fail",
        profile=new_profile,
    )
    diff = diff_records(baseline, latest)
    by_metric = {row["metric"]: row for row in diff["headline"]}
    # Speedup halved: higher-is-better, so that's a regression.
    assert by_metric["single_thread_speedup"]["regressed"] is True
    assert by_metric["single_thread_speedup"]["change_pct"] == -50.0
    # Overhead grew: lower-is-better, also a regression.
    assert by_metric["tracing_overhead_pct"]["regressed"] is True
    assert any(
        row["name"] == "slow.py:new_hot" for row in diff["regressed_frames"]
    ), diff["regressed_frames"]
    assert any(
        row["name"] == "svc;hot" for row in diff["regressed_spans"]
    )

    text = format_diff(diff)
    assert "REGRESSED" in text
    assert "slow.py:new_hot" in text


def test_profile_digest_covers_busy_samples_only():
    digest = profile_digest(_profile_doc())
    assert digest["samples"] == 20
    assert digest["busy_samples"] == 10
    assert digest["span_fraction"] == 0.8  # 8 of 10 busy samples
    spans = {row["name"]: row["fraction"] for row in digest["spans"]}
    assert spans["svc;hot"] == 0.6
    assert "threading.py:wait" not in {
        row["name"] for row in digest["frames"]
    }


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


def test_check_tool_reports_the_failing_bench(tmp_path, check_tool, capsys):
    path = tmp_path / "history.jsonl"
    append_record(path, bench="speed", headline={"speedup": 3.0})
    assert check_tool.main(["--history", str(path)]) == 0

    time.sleep(0.01)
    append_record(
        path,
        bench="speed",
        headline={"speedup": 1.0},
        status="fail",
        failures=["single-thread speedup collapsed"],
    )
    capsys.readouterr()
    assert check_tool.main(["--history", str(path)]) == 1
    out = capsys.readouterr().out
    assert "gate failure: single-thread speedup collapsed" in out
    assert "REGRESSED" in out


def test_check_tool_empty_ledger_only_fails_when_a_bench_was_expected(
    tmp_path, check_tool
):
    path = tmp_path / "missing.jsonl"
    assert check_tool.main(["--history", str(path)]) == 0
    assert check_tool.main(["--history", str(path), "--bench", "speed"]) == 1
