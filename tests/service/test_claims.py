"""Tests for cross-process single-flight claims and the run log."""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import StoreError
from repro.service.claims import ClaimRegistry

_MP = multiprocessing.get_context("fork")


def test_acquire_release_roundtrip(tmp_path):
    registry = ClaimRegistry(tmp_path)
    claim = registry.lock("suite-abc")
    claim.acquire(timeout=0)
    assert claim.locked_by_me()
    assert (tmp_path / "claims" / "suite-abc.lock").exists()
    claim.release()
    # Released -> reacquirable immediately.
    again = registry.lock("suite-abc")
    again.acquire(timeout=0)
    again.release()


def test_contended_acquire_has_one_winner(tmp_path):
    """Two registries (two would-be workers) racing one key: exactly
    one wins, even within one process."""
    first = ClaimRegistry(tmp_path).lock("k")
    second = ClaimRegistry(tmp_path).lock("k")
    first.acquire(timeout=0)
    with pytest.raises(StoreError, match="timed out"):
        second.acquire(timeout=0)
    first.release()
    second.acquire(timeout=0)
    second.release()


def test_record_run_detects_duplicates(tmp_path):
    registry = ClaimRegistry(tmp_path)
    assert registry.record_run("suite-a") is True
    assert registry.record_run("suite-b") is True
    assert registry.duplicate_runs() == {}
    assert registry.record_run("suite-a") is False  # the bug we gate on
    assert registry.duplicate_runs() == {"suite-a": 2}
    assert [run["key"] for run in registry.runs()] == [
        "suite-a",
        "suite-b",
        "suite-a",
    ]


def test_runs_log_skips_torn_tail(tmp_path):
    registry = ClaimRegistry(tmp_path)
    registry.record_run("a")
    with open(tmp_path / "claims" / "runs.log", "a", encoding="utf-8") as fh:
        fh.write('{"key": "b"')  # crashed writer: no newline, torn JSON
    assert [run["key"] for run in registry.runs()] == ["a"]
    # And the journal stays appendable after the torn line.
    registry.record_run("c")
    keys = [run["key"] for run in registry.runs()]
    assert "c" in keys and registry.duplicate_runs() == {}


def _contender(root, key, outcomes, barrier, release) -> None:
    claim = ClaimRegistry(root).lock(key)
    barrier.wait(10.0)
    try:
        claim.acquire(timeout=0)
        won = True
    except StoreError:
        won = False
    outcomes.put(json.dumps({"pid": os.getpid(), "won": won}))
    # Hold until every sibling has tried: a winner that exits early
    # frees the key, and a late sibling would win it too.
    release.wait(30.0)


def test_cross_process_acquire_race_single_winner(tmp_path):
    """Four processes try one key at once: exactly one holds it."""
    outcomes = _MP.Queue()
    barrier = _MP.Barrier(4)
    release = _MP.Event()
    procs = [
        _MP.Process(
            target=_contender, args=(tmp_path, "k", outcomes, barrier, release)
        )
        for _ in range(4)
    ]
    for proc in procs:
        proc.start()
    try:
        reports = [json.loads(outcomes.get(timeout=30.0)) for _ in range(4)]
    finally:
        release.set()
        for proc in procs:
            proc.join(30.0)
    assert sum(report["won"] for report in reports) == 1
    # The fleet has exited: the kernel freed the winner's claim.
    survivor = ClaimRegistry(tmp_path).lock("k")
    survivor.acquire(timeout=0)
    survivor.release()


def _claim_then_fork(root, key, report) -> None:
    ClaimRegistry(root).lock(key).acquire()
    child = os.fork()
    if child == 0:  # a pool worker forked inside the collection
        time.sleep(60.0)
        os._exit(0)
    report.put(child)
    time.sleep(60.0)


def test_killed_claimant_with_live_child_frees_the_key(tmp_path):
    """SIGKILL a claimant whose forked child lives on: the key is free
    at once.  The flock belongs to the open file description the fork
    shares, so this holds only because the child closes its copy."""
    report = _MP.Queue()
    holder = _MP.Process(target=_claim_then_fork, args=(tmp_path, "k", report))
    holder.start()
    child = None
    try:
        child = report.get(timeout=30.0)
        holder.kill()
        holder.join(10.0)
        assert not holder.is_alive()
        os.kill(child, 0)  # the child outlives its parent
        survivor = ClaimRegistry(tmp_path).lock("k")
        survivor.acquire(timeout=1.0)
        survivor.release()
    finally:
        holder.kill()
        holder.join(10.0)
        if child is not None:
            os.kill(child, signal.SIGKILL)
