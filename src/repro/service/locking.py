"""Cross-process file locking for the shared store directory.

Everything that more than one *process* may mutate concurrently — the
result store's ``index.json``, the shared run log — is serialized
through a :class:`FileLock`: an advisory ``fcntl.flock`` on a dedicated
lock file next to the protected data.  A collection's cross-process
claim is one too: the key's own lock, held for the whole collection.

Why ``flock`` and not the lock file's mere existence:

- **Crash safety** — the kernel releases a flock when its holder dies,
  so a worker killed mid-write never wedges the store.  An
  existence-based lock needs staleness heuristics; flock needs none.
- **Blocking waits** — waiters sleep in the kernel instead of polling.

The file lock composes with an in-process :class:`threading.RLock`:
``flock`` is per open-file-description, so two threads of one process
sharing the store instance must serialize *before* touching the file
lock (a second ``flock`` on the same fd would silently succeed).

``fork`` shares the open file description too, so a forked child (a
collection pool worker) that outlived a SIGKILLed parent would keep the
parent's locks held: :func:`_drop_inherited` closes the child's copies.
"""

from __future__ import annotations

import errno
import fcntl
import os
import threading
import time
from pathlib import Path

from repro.errors import StoreError

__all__ = ["FileLock"]

#: Poll cadence of a timed acquisition.
_SPIN_INTERVAL_S = 0.002

#: Every lock whose descriptor is open in this process.  A fork waits
#: on the guard, so it never lands between an open and its entry here.
_OPEN: set["FileLock"] = set()
_OPEN_GUARD = threading.Lock()


def _drop_inherited() -> None:
    """In a forked child: close the copies of the parent's lock
    descriptors and reset those locks to unheld.

    Only the descriptors are closed: ``LOCK_UN`` on the shared open file
    description would release the parent's lock too.  The threads that
    held the locks did not cross the fork, so each gets a fresh thread
    lock.
    """
    _OPEN_GUARD.release()
    for lock in _OPEN:
        os.close(lock._fd)
        lock._fd = None
        lock._depth = 0
        lock._thread_lock = threading.RLock()
    _OPEN.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(
        before=_OPEN_GUARD.acquire,
        after_in_parent=_OPEN_GUARD.release,
        after_in_child=_drop_inherited,
    )


class FileLock:
    """An advisory, reentrant, cross-process lock on one path.

    Reentrant *per instance* (guarded by an internal RLock + depth
    counter), so nested store operations in one thread do not deadlock,
    while distinct threads and distinct processes fully exclude each
    other.

    Usage::

        lock = FileLock(root / "index.lock")
        with lock:
            ... read-modify-write the protected files ...
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._thread_lock = threading.RLock()
        self._depth = 0
        self._fd: int | None = None

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *_exc) -> None:
        self.release()

    # -- acquisition ----------------------------------------------------------

    def acquire(self, timeout: float | None = None) -> None:
        """Block until the lock is held (reentrant for this thread).

        Raises:
            StoreError: If ``timeout`` (seconds) elapses first.
        """
        if not self._thread_lock.acquire(
            timeout=-1 if timeout is None else timeout
        ):
            raise StoreError(f"timed out acquiring thread lock for {self.path}")
        if self._depth:  # reentrant: the process lock is already ours
            self._depth += 1
            return
        try:
            self._acquire_flock(timeout)
        except BaseException:
            self._thread_lock.release()
            raise
        self._depth = 1

    def release(self) -> None:
        if self._depth == 0:
            raise StoreError(f"release of unheld lock {self.path}")
        self._depth -= 1
        if self._depth == 0:
            try:
                self._release_flock()
            finally:
                self._thread_lock.release()
        else:
            self._thread_lock.release()

    def locked_by_me(self) -> bool:
        return self._depth > 0

    # -- flock ----------------------------------------------------------------

    def _acquire_flock(self, timeout: float | None) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _OPEN_GUARD:
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            _OPEN.add(self)
        try:
            if timeout is None:
                fcntl.flock(self._fd, fcntl.LOCK_EX)
            else:
                deadline = time.monotonic() + timeout
                while True:
                    try:
                        fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError as exc:
                        if exc.errno not in (errno.EACCES, errno.EAGAIN):
                            raise
                        if time.monotonic() >= deadline:
                            raise StoreError(
                                f"timed out acquiring {self.path} "
                                f"after {timeout}s"
                            ) from None
                        time.sleep(_SPIN_INTERVAL_S)
        except BaseException:
            self._close()
            raise

    def _release_flock(self) -> None:
        try:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            self._close()

    def _close(self) -> None:
        _OPEN.discard(self)
        fd, self._fd = self._fd, None
        os.close(fd)
