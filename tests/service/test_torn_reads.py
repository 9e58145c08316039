"""Every reader of cross-process state treats a damaged file as absent.

One table covers each reader over the shared store directory.  Each is
fed the four shapes a dead or foreign writer can leave behind: an empty
file, truncated JSON, valid JSON that is not an object, and invalid
UTF-8.  None may raise, and each must read as "nothing there".  The
result store's index is the deliberate exception: an index that is
unreadable for a reason other than absence or tearing must raise, or
the next ``put`` would rewrite ``index.json`` holding one entry.
"""

import pytest

from repro.obs.fleet import (
    load_shard,
    load_trace_spills,
    metrics_dir,
    read_live_shards,
    traces_dir,
)
from repro.obs.ledger import load_history
from repro.obs.prof import (
    current_request,
    load_profile_doc,
    profile_request_path,
    profiles_dir,
    read_profile_docs,
)
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
    shard = metrics_dir(root) / "server-a-101.json"
    spill = profiles_dir(root) / "server-a-101.json"
    return jobs, [
        ("claim", root / "claims" / "k.claim", lambda: claims.holder("k")),
        ("runs-log", root / "claims" / "runs.log", claims.runs),
        ("job-load_shared", snapshot, lambda: jobs.load_shared(snapshot.stem)),
        ("job-shared_jobs", snapshot, jobs.shared_jobs),
        ("shard", shard, lambda: load_shard(shard)),
        ("live-shards", shard, lambda: read_live_shards(root)),
        (
            "trace-spill",
            traces_dir(root) / "server-a-101.json",
            lambda: load_trace_spills(root),
        ),
        ("profile-spill", spill, lambda: load_profile_doc(spill)),
        ("profile-spills", spill, lambda: read_profile_docs(root)),
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
