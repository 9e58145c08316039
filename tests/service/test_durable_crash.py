"""Crash consistency of the shared store directory under SIGKILL.

A forked child sets up one writer operation, reports that over a pipe,
then loops over it; the parent SIGKILLs it a seeded random delay after
the report, then checks what the child left behind.
Each operation gets ``KILLS`` kill points against one store directory,
so damage from earlier kills accumulates and must stay harmless:

- every index entry's object exists and its sha256 matches the index;
- every ``*.json`` state file parses as a whole record;
- leftover ``*.tmp`` files (the test plants one in every state
  directory; killed writers leave real ones) are ignored by every reader;
- a dead owner's claim is free at once;
- the next ``record_run`` after a torn ``runs.log`` tail is readable.

Every payload is a function of its key, as for every real store caller
(keys are content-derived), so re-putting a key rewrites identical bytes.
"""

import hashlib
import json
import os
import random
import signal
import time

import pytest

from repro.durable import read_json, read_lines
from repro.obs.fleet import (
    TelemetryAgent,
    read_live,
    spill_profile,
    telemetry_dir,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import PROFILE_SCHEMA
from repro.service.claims import ClaimRegistry
from repro.service.jobs import Job, JobManager
from repro.service.store import SCHEMA_VERSION, ResultStore

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="kills a forked writer"
)

#: Kill points per operation.
KILLS = 20

#: Each kill lands this long (seconds, seeded uniform) after the child
#: reports its operation's set-up done.
DELAY_S = (0.001, 0.04)


def _payload(key: str) -> dict:
    values = [int(b) for b in hashlib.sha256(key.encode()).digest()]
    return {"kind": "blob", "key": key, "values": values * 400}


def _put(root, start: int, ready) -> None:
    store = ResultStore(root, max_entries=4)  # evicts once 5 keys exist
    ready()
    for i in range(start, 10**9):
        key = f"k{i % 7}"
        store.put(key, _payload(key))


def _put_object_adopt(root, start: int, ready) -> None:
    store = ResultStore(root, max_entries=4)
    ready()
    for i in range(start, 10**9):
        key = f"o{i % 7}"
        digest, nbytes = store.put_object(key, _payload(key))
        store.adopt(key, digest, nbytes)


def _claims(root, start: int, ready) -> None:
    registry = ClaimRegistry(root)
    claim = registry.lock("hot")
    ready()
    for i in range(start, 10**9):
        with claim:
            registry.record_run(f"run-{start}-{i}")


def _shards(root, _start: int, ready) -> None:
    registry = MetricsRegistry()
    counter = registry.counter("crash_total", "Writes", ("slot",))
    for slot in range(200):
        counter.inc(slot, slot=str(slot))
    writer = TelemetryAgent(
        root, instance="crash", role="server", registry=registry
    )
    ready()
    while True:
        writer.write_now()


def _profiles(root, _start: int, ready) -> None:
    doc = {
        "schema": PROFILE_SCHEMA,
        "kind": "cpu-profile",
        "instance": "crash",
        "pid": os.getpid(),
        "ttl_s": 120.0,
        "stacks": [[["span"], [f"frame{i}"], 1, False] for i in range(2000)],
    }
    ready()
    while True:
        doc["written_s"] = round(time.time(), 3)
        spill_profile(root, doc)


def _job_snapshots(root, start: int, ready) -> None:
    manager = JobManager(ResultStore(root), instance=f"crash{start}")
    ready()
    for n in range(10**9):
        job = Job(id=f"job-crash-{n:06d}", key="k", workloads=("a", "b"))
        job._on_note = manager._persist_snapshot
        for i in range(40):
            job.note("progress", done=i, detail="x" * 200)


def _run_and_kill(operation, root, start: int, delay_s: float) -> None:
    """Fork ``operation(root, start, ready)`` and SIGKILL it ``delay_s``
    after it calls ``ready()``.

    ``start`` is the kill's number: each life picks up where the last
    one's sequence would be, so state accumulates across kills.  Timing
    the kill from ``ready()`` rather than from the fork keeps a slow
    start (a loaded host, copy-on-write faults in a large test process)
    from eating the whole delay before the first write.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        try:
            os.close(read_end)
            operation(root, start, lambda: os.write(write_end, b"."))
        finally:
            os._exit(3)  # an operation that raised or returned
    os.close(write_end)
    with os.fdopen(read_end, "rb", buffering=0) as pipe:
        pipe.read(1)  # b"" if the child died before its set-up was done
    time.sleep(delay_s)
    os.kill(pid, signal.SIGKILL)
    _pid, status = os.waitpid(pid, 0)
    # Still writing when the kill landed, not dead of its own error.
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL


def _plant_tmp(directory) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / ".planted.json.crash.tmp").write_bytes(b'{"torn": ')


def _check_json_files(root) -> None:
    torn = [str(path) for path in root.rglob("*.json") if read_json(path) is None]
    assert torn == []


def _check_store(root) -> int:
    index = json.loads((root / "index.json").read_bytes())
    for key, entry in index["entries"].items():
        data = (root / "objects" / f"{key}.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["hash"], key
    store = ResultStore(root)
    assert set(store.keys()) == set(index["entries"])
    for key in store.keys():
        assert store.get(key, touch=False) == {
            **_payload(key),
            "schema": SCHEMA_VERSION,
        }
    return len(index["entries"])


def _kill_points(operation, root, seed: int, check) -> None:
    rng = random.Random(seed)
    for kill in range(KILLS):
        _run_and_kill(operation, root, kill, rng.uniform(*DELAY_S))
        _check_json_files(root)
        check(root, kill)


@pytest.mark.parametrize("operation", [_put, _put_object_adopt])
def test_store_survives_sigkill(tmp_path, operation):
    _plant_tmp(tmp_path / "objects")
    written = []

    def check(root, _kill):
        if (root / "index.json").exists():
            written.append(_check_store(root))

    _kill_points(operation, tmp_path, seed=11, check=check)
    assert max(written, default=0) == 4  # at the bound: puts evicted


def test_claims_and_run_log_survive_sigkill(tmp_path):
    _plant_tmp(tmp_path / "claims")
    log = tmp_path / "claims" / "runs.log"

    def check(root, kill):
        survivor = ClaimRegistry(root)
        # The dead child's claim (if it held one) is free at once.
        claim = survivor.lock("hot")
        claim.acquire(timeout=0)
        claim.release()
        if kill % 2:  # a SIGKILL mid-write(2) is too rare to wait for
            with open(log, "ab") as handle:
                handle.write(b'{"key": "torn-')
        assert survivor.record_run(f"check-{kill}")
        assert survivor.runs()[-1]["key"] == f"check-{kill}"
        assert log.read_bytes().endswith(b"\n")

    _kill_points(_claims, tmp_path, seed=12, check=check)
    keys = [run["key"] for run in read_lines(log)]
    assert [k for k in keys if k.startswith("check-")] == [
        f"check-{kill}" for kill in range(KILLS)
    ]
    assert any(k.startswith("run-") for k in keys)  # the child got to run


def test_shards_survive_sigkill(tmp_path):
    for kind in ("metrics", "traces"):
        _plant_tmp(tmp_path / "telemetry" / kind)

    written = []

    def check(root, _kill):
        written.extend(telemetry_dir(root, "metrics").glob("*.json"))
        # Each dead writer's shard names a dead pid: never live.
        assert read_live(root, "metrics") == []
        assert read_live(root, "traces") == []

    _kill_points(_shards, tmp_path, seed=13, check=check)
    assert written  # the child got to write


def test_profile_spills_survive_sigkill(tmp_path):
    _plant_tmp(tmp_path / "telemetry" / "profiles")
    seen = set()

    def check(root, _kill):
        # TTL-only: a dead writer's capture stays readable.
        seen.update(doc["pid"] for doc in read_live(root, "profiles"))

    _kill_points(_profiles, tmp_path, seed=14, check=check)
    assert seen  # the child got to spill


def test_job_snapshots_survive_sigkill(tmp_path):
    _plant_tmp(tmp_path / "jobs")
    manager = JobManager(ResultStore(tmp_path), instance="reader")
    try:
        counts = []

        def check(root, _kill):
            jobs = manager.shared_jobs()
            for job in jobs:
                assert manager.load_shared(job["id"]) == job
            counts.append(len(jobs))

        _kill_points(_job_snapshots, tmp_path, seed=15, check=check)
    finally:
        manager.shutdown()
    assert max(counts) > 0  # the child got to persist
