"""Cross-process file locking for the shared store directory.

Everything that more than one *process* may mutate concurrently — the
result store's ``index.json``, the claim registry's records, the shared
run log — is serialized through a :class:`FileLock`: an advisory
``fcntl.flock`` on a dedicated lock file next to the protected data.

Why ``flock`` and not the lock file's mere existence:

- **Crash safety** — the kernel releases a flock when its holder dies,
  so a worker killed mid-write never wedges the store.  An
  existence-based lock needs staleness heuristics; flock needs none.
- **Blocking waits** — waiters sleep in the kernel instead of polling.

The file lock composes with an in-process :class:`threading.RLock`:
``flock`` is per open-file-description, so two threads of one process
sharing the store instance must serialize *before* touching the file
lock (a second ``flock`` on the same fd would silently succeed).
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
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if timeout is None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            else:
                deadline = time.monotonic() + timeout
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
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
            os.close(fd)
            raise
        self._fd = fd

    def _release_flock(self) -> None:
        fd, self._fd = self._fd, None
        if fd is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
