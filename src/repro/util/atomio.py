"""Atomic file IO: the write path every durable artifact goes through.

A 13-month campaign's run state must survive the death of the process
writing it.  Two primitives make that possible:

* :func:`atomic_write_bytes` / :func:`atomic_write_text` -- the classic
  temp-file-in-same-directory + flush + ``fsync`` + ``os.replace``
  + directory-``fsync`` dance, so a reader either sees the old file or
  the complete new file, never a torn one;
* :class:`FileIO` -- the narrow seam between durable-state writers and
  the OS (write / fsync / replace / fsync_dir).  Production code uses
  the default instance; the chaos harness substitutes a crashing
  implementation to fuzz every point in the commit protocol without
  monkeypatching.

Every call through a :class:`FileIO` counts as one *op*; the chaos
harness sizes its crash-point fuzzing from the op count of an
uninterrupted reference run.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Union


class SimulatedCrash(BaseException):
    """An injected process death at a fuzzed crash point.

    Deliberately a ``BaseException``: no ``except Exception`` recovery
    handler anywhere in the stack may swallow it, exactly like a real
    ``SIGKILL`` gives no handler a chance to run.
    """


class FileIO:
    """Durable-write syscall seam (and op counter) for run state.

    Subclasses override individual operations to inject faults; the
    base class is the real thing.  ``ops`` counts every operation so a
    reference run measures how many crash points a scenario has.
    """

    def __init__(self) -> None:
        self.ops = 0

    def write(self, handle: BinaryIO, data: bytes) -> int:
        self.ops += 1
        return handle.write(data)

    def fsync(self, handle: BinaryIO) -> None:
        self.ops += 1
        handle.flush()
        os.fsync(handle.fileno())

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        self.ops += 1
        os.replace(src, dst)

    def fsync_dir(self, path: Union[str, Path]) -> None:
        """Flush a directory entry (makes a rename itself durable)."""
        self.ops += 1
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return  # not supported on this platform/filesystem
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


#: The production IO layer.  Module-level so ad-hoc callers (CLI, tests
#: that do not fuzz) share one op counter-free default.
DEFAULT_IO = FileIO()


# The mode ``open(path, "wb")`` would give a new file; ``mkstemp``
# creates its file 0600.
_UMASK = os.umask(0)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK


def atomic_write_bytes(path: Union[str, Path], data: bytes,
                       io: FileIO = None) -> Path:
    """Write ``data`` to ``path`` so readers never observe a torn file.

    The temp file sits in the *same directory*, so ``os.replace`` stays
    atomic (a cross-filesystem rename degrades to copy+delete), and is
    named ``.<name>.<unique>.tmp``, unique per writer: two processes
    writing one target (two shards filling one cache entry) each
    replace their own temp file, and the last replace wins.
    """
    io = io if io is not None else DEFAULT_IO
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                               dir=path.parent)
    os.fchmod(fd, _FILE_MODE)
    with os.fdopen(fd, "wb") as handle:
        io.write(handle, data)
        io.fsync(handle)
    io.replace(tmp, path)
    io.fsync_dir(path.parent)
    return path


def atomic_write_text(path: Union[str, Path], text: str,
                      io: FileIO = None) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"), io=io)


def sweep_tmp_files(directory: Union[str, Path]) -> int:
    """Remove orphaned ``.*.tmp`` files a crash left behind.

    A crash between the temp-file write and ``os.replace`` leaves the
    temp file on disk; it holds no committed state and recovery must
    not read it.  Returns the number of files removed.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    for tmp in directory.glob(".*.tmp"):
        tmp.unlink()
        removed += 1
    return removed
