"""Atomic file replacement that survives power loss.

Imports nothing from ``repro``, so every layer — the engine's
interaction log, the durability layer, the CLI — can use it without an
import cycle.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write"]


def atomic_write(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one step.

    The bytes go to a temp file in the target's directory, which is
    flushed, fsynced and renamed over ``path``; the directory is then
    fsynced so the rename itself is durable.  A failure before the
    rename removes the temp file and leaves ``path`` untouched.

    The file gets the mode ``open(path, "wb")`` would give it (0o666
    less the umask): the temp file is created with that mode rather
    than ``mkstemp``'s 0600, so the kernel applies the umask itself.
    """
    path = Path(path)
    tmp_name = str(path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp_name, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Make a rename in ``directory`` durable (best-effort off POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
