"""Durable cross-process state: each file protocol implemented once.

Every file more than one process shares under a store root goes through
here: blobs and ``index.json``, claims, ``claims/runs.log``, job
snapshots, metric shards, trace spills, and profile requests and spills.

- **Atomic write.** :func:`atomic_write` renames a finished temp file
  over the target, so readers see the old record or the new one, never
  half of either; :func:`atomic_create` links it instead, so exactly one
  racing creator wins.  Temp names start with ``.`` and end in ``.tmp``:
  no reader's ``*.json`` glob matches a leftover one.
- **Torn read as absent.** :func:`read_json` maps a missing, torn,
  undecodable or non-object file to ``None``.  Journals append with
  :func:`append_line`, which first terminates a dead writer's torn tail,
  and read with :func:`read_lines`, which skips torn lines.
- **Staleness.** :func:`is_stale`: a stamp older than the TTL, or a pid
  dead on this host; an unreadable file ages by its mtime.
- **GC once under a lock.** :func:`gc_once` re-checks each candidate
  under a cross-process lock before the unlink.

No ``fsync``: the files must outlive a process, not the host, and a
SIGKILL leaves the page cache intact.  Stdlib-only; callers pass locks in.

Every temp file is preallocated (``posix_fallocate``) before its write.
On an ext4 root, renaming an unallocated temp file over an existing
file cost 40-75 ms per call (2 KB to 400 KB); with the blocks allocated
first it cost 0.03-0.10 ms.  This fits ext4's ``auto_da_alloc`` rename
heuristic, which flushes a delayed-allocation file replacing another,
but that cause is not established.  It applies to every ``atomic_write``
of a record that already exists: the store index, job snapshots,
claims, metric shards and trace spills.
"""

from __future__ import annotations

import json
import math
import os
import socket
import tempfile
from pathlib import Path
from typing import Callable, ContextManager, Iterable

__all__ = [
    "atomic_write", "atomic_create", "write_json", "read_json", "state_files",
    "append_line", "read_lines", "pid_alive", "is_stale", "gc_once",
]


def _unlink_quietly(path: str | Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _write_temp(path: Path, data: bytes) -> str:
    """``data`` in a new temp file beside ``path`` (parents created).

    The file's blocks are allocated before the write (see the module
    docstring); where that is not supported it is simply written.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if data and hasattr(os, "posix_fallocate"):
                try:
                    os.posix_fallocate(fd, 0, len(data))
                except OSError:
                    pass  # not supported by this file system
            handle.write(data)
    except BaseException:
        _unlink_quietly(tmp)
        raise
    return tmp


def atomic_write(path: str | Path, data: bytes) -> None:
    """Replace ``path``'s content with ``data`` in one step."""
    tmp = _write_temp(Path(path), data)
    try:
        os.replace(tmp, path)
    except BaseException:
        _unlink_quietly(tmp)
        raise


def atomic_create(path: str | Path, data: bytes) -> bool:
    """Create ``path`` holding ``data`` unless it already exists; returns
    whether this call created it."""
    tmp = _write_temp(Path(path), data)
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        _unlink_quietly(tmp)
    return True


def write_json(path: str | Path, record: dict) -> None:
    """:func:`atomic_write` of ``record`` as sorted-key JSON."""
    atomic_write(path, json.dumps(record, sort_keys=True).encode("utf-8"))


def read_json(path: str | Path) -> dict | None:
    """The JSON object in ``path``, or ``None`` if it reads as absent."""
    try:
        record = json.loads(Path(path).read_bytes())
    except (OSError, ValueError):
        return None
    return record if isinstance(record, dict) else None


def state_files(directory: str | Path, pattern: str = "*.json") -> list[Path]:
    """The files in ``directory`` matching ``pattern``, sorted by name."""
    try:
        return sorted(Path(directory).glob(pattern))
    except OSError:
        return []


def append_line(path: str | Path, line: str) -> None:
    """Append ``line`` as one whole line, after terminating a torn tail
    (which would otherwise fuse with it into one unparseable line)."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        torn = False
        if end:
            handle.seek(end - 1)
            torn = handle.read(1) != b"\n"
        handle.write((b"\n" if torn else b"") + line.encode("utf-8") + b"\n")


def read_lines(path: str | Path) -> list[dict]:
    """The journal's whole JSON-object lines, in order."""
    try:
        lines = Path(path).read_bytes().splitlines()
    except OSError:
        return []
    records = []
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn line of a dead writer, or blank
        if isinstance(record, dict):
            records.append(record)
    return records


def pid_alive(pid: int) -> bool:
    """Best-effort liveness of a pid on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - alive under another user
        return True
    return True


def is_stale(
    record: dict | None,
    now: float,
    *,
    stamp: str,
    ttl_s: float,
    path: str | Path,
    owner_pid: bool = True,
) -> bool:
    """Whether a state record has outlived its writer.

    Stale means ``now - record[stamp]`` exceeds the record's own
    ``ttl_s`` (else ``ttl_s``) or, with ``owner_pid``, the record's pid
    is dead on this host.  ``owner_pid=False`` suits artifacts meant to
    outlive their writer.  An unreadable record (``None``), or one whose
    stamp or ``ttl_s`` is not a finite number, is stale once ``path``'s
    mtime is ``ttl_s`` old: a live writer may be mid-rewrite.  A
    vanished file is never stale.
    """
    times = None
    if record is not None:
        times = (record.get(stamp, 0.0), record.get("ttl_s", ttl_s))
        if not all(
            isinstance(value, (int, float)) and math.isfinite(value)
            for value in times
        ):
            times = None
    if times is None:
        try:
            return now - os.stat(path).st_mtime > ttl_s
        except OSError:
            return False
    written, own_ttl = times
    if now - written > own_ttl:
        return True
    pid = record.get("pid")
    return (
        owner_pid
        and isinstance(pid, int)
        and record.get("host") == socket.gethostname()
        and not pid_alive(pid)
    )


def gc_once(
    lock: ContextManager,
    candidates: Iterable[Path],
    still_stale: Callable[[Path], bool],
) -> list[Path]:
    """Unlink each candidate ``still_stale`` confirms while ``lock`` is
    held; returns what this call removed.  The re-check under the lock
    makes removal exactly-once across concurrent collectors."""
    candidates = list(candidates)
    removed: list[Path] = []
    if not candidates:
        return removed
    with lock:
        for path in candidates:
            if not still_stale(path):
                continue
            try:
                os.unlink(path)
            except OSError:
                continue  # already gone: a sibling won the race
            removed.append(path)
    return removed
