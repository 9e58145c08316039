"""Every reader of cross-process state treats a damaged file as absent.

One table covers each reader over the shared store directory.  Each is
fed the four shapes a dead or foreign writer can leave behind: an empty
file, truncated JSON, valid JSON that is not an object, and invalid
UTF-8.  None may raise, and each must read as "nothing there".  The
result store's index is the deliberate exception: an index that is
unreadable for a reason other than absence or tearing must raise, or
the next ``put`` would rewrite ``index.json`` holding one entry.

A telemetry file whose ``written_s`` or ``ttl_s`` is not a number reads
like a torn one too: it ages by its mtime instead of raising.
"""

import json
import os
import socket
import time

import pytest

from repro.obs.fleet import (
    TTL_S,
    current_request,
    load_profile_doc,
    load_shard,
    profile_request_path,
    read_live,
    telemetry_dir,
)
from repro.obs.ledger import load_history
from repro.obs.prof import PROFILE_SCHEMA
from repro.service.claims import ClaimRegistry
from repro.service.jobs import JobManager
from repro.service.store import ResultStore

DAMAGED = {
    "empty": b"",
    "truncated": b'{"schema": 1, "kind": "metrics-shard", "pid": 12',
    "list": b'[{"schema": 1}, 2, 3]',
    "invalid-utf8": b'{"schema": 1, "id": "job-\xc3\x28"}',
}


def _readers(root):
    """``(name, file to damage, read() -> result)`` for every reader."""
    claims = ClaimRegistry(root)
    jobs = JobManager(ResultStore(root), instance="torn")
    snapshot = jobs.shared_dir / "job-other-000001.json"
    shard = telemetry_dir(root, "metrics") / "server-a-101.json"
    spill = telemetry_dir(root, "profiles") / "server-a-101.json"
    return jobs, [
        ("claim", root / "claims" / "k.claim", lambda: claims.holder("k")),
        ("runs-log", root / "claims" / "runs.log", claims.runs),
        ("job-load_shared", snapshot, lambda: jobs.load_shared(snapshot.stem)),
        ("job-shared_jobs", snapshot, jobs.shared_jobs),
        ("shard", shard, lambda: load_shard(shard)),
        ("live-shards", shard, lambda: read_live(root, "metrics")),
        (
            "trace-spill",
            telemetry_dir(root, "traces") / "server-a-101.json",
            lambda: read_live(root, "traces"),
        ),
        ("profile-spill", spill, lambda: load_profile_doc(spill)),
        ("profile-spills", spill, lambda: read_live(root, "profiles")),
        (
            "profile-request",
            profile_request_path(root),
            lambda: current_request(root),
        ),
        (
            "ledger",
            root / "history.jsonl",
            lambda: load_history(root / "history.jsonl"),
        ),
    ]


def test_every_reader_treats_a_damaged_file_as_absent(tmp_path):
    outcomes = {}
    for shape, data in DAMAGED.items():
        root = tmp_path / shape
        jobs, readers = _readers(root)
        try:
            for name, path, read in readers:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
                try:
                    outcomes[shape, name] = read()
                except Exception as exc:  # noqa: BLE001 - the assertion
                    outcomes[shape, name] = f"raised {exc!r}"
                assert path.read_bytes() == data  # readers never rewrite
        finally:
            jobs.shutdown()
    assert len(outcomes) == len(DAMAGED) * 11
    wrong = {key: got for key, got in outcomes.items() if got not in (None, [])}
    assert wrong == {}

    # The exception: an index unreadable for another reason than
    # absence or tearing (here a directory in its place) must raise.
    store = ResultStore(tmp_path / "store")
    store.put("k", {"kind": "x"})
    (tmp_path / "store" / "index.json").unlink()
    (tmp_path / "store" / "index.json").mkdir()
    with pytest.raises(OSError):
        store.keys()
    with pytest.raises(OSError):
        store.put("j", {"kind": "x"})


#: Stamps a foreign or buggy writer can leave where a number belongs.
BAD_STAMPS = {"string": "soon", "null": None, "list": [1, 2]}


def _telemetry_record(kind: str) -> dict:
    """A well-formed, freshly stamped file of one telemetry kind."""
    stamps = {"written_s": time.time(), "ttl_s": TTL_S}
    if kind == "metrics":
        return {
            "schema": 1,
            "instance": "server-a",
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "metrics": {},
            **stamps,
        }
    if kind == "traces":
        return {"traceEvents": [], "otherData": stamps}
    return {
        "schema": PROFILE_SCHEMA,
        "kind": "cpu-profile",
        "samples": 0,
        "stacks": [],
        **stamps,
    }


@pytest.mark.parametrize("bad", sorted(BAD_STAMPS))
@pytest.mark.parametrize("field", ["written_s", "ttl_s"])
@pytest.mark.parametrize("kind", ["metrics", "traces", "profiles"])
def test_non_numeric_stamp_ages_by_mtime(tmp_path, kind, field, bad):
    record = _telemetry_record(kind)
    stamps = record["otherData"] if kind == "traces" else record
    stamps[field] = BAD_STAMPS[bad]
    path = telemetry_dir(tmp_path, kind) / "server-a-101.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(record))

    read_live(tmp_path, kind)  # must not raise
    assert path.exists()  # a fresh mtime: the writer may be mid-rewrite

    old = time.time() - 2 * TTL_S
    os.utime(path, (old, old))
    assert read_live(tmp_path, kind) == []
    assert not path.exists()
