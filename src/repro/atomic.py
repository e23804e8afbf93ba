"""Atomic file replacement that survives power loss.

Imports nothing from ``repro``, so every layer — the engine's
interaction log, the durability layer, the CLI — can use it without an
import cycle.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write"]


def atomic_write(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one step.

    The bytes go to a temp file in the target's directory, which is
    flushed, fsynced and renamed over ``path``; the directory is then
    fsynced so the rename itself is durable.  A failure before the
    rename removes the temp file and leaves ``path`` untouched.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
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
