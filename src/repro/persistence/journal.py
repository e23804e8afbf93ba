"""Append-only per-session journal with length+CRC framing.

The durability contract of the serving layer (§7's always-on cloud
deployment) is *committed turns survive ``kill -9``*: a turn is
committed once its journal record has been appended (and, per the fsync
policy, forced to stable storage) — only then does the HTTP response go
out.  Each session owns one journal file of framed JSONL records::

    <payload-bytes> <crc32-hex> <payload-json>\\n

The decimal byte length and CRC-32 of the payload prefix every record,
so the reader can detect a torn final record (a crash mid-``write``) or
a corrupted one (bit rot, partial page flush) and recover every turn up
to the last complete record instead of refusing the whole file.  With a
single appending writer per session (the per-session turn lock), only
the final record can ever be damaged.

Fsync policy trades durability for throughput:

* ``"always"``  — fsync after every append; a committed turn survives
  power loss, not just process death (the default).
* ``"interval"`` — fsync at most once per ``fsync_interval`` seconds;
  process crashes lose nothing (the OS has the bytes), power loss can
  lose the last interval.
* ``"never"``   — flush to the OS on every append, never fsync; same
  process-crash guarantee, weakest against power loss.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import zlib

from repro.atomic import atomic_write
from repro.errors import JournalError

FSYNC_POLICIES = ("always", "interval", "never")


def crc32(payload: bytes) -> int:
    return zlib.crc32(payload) & 0xFFFFFFFF


def frame_record(record: dict[str, Any]) -> bytes:
    """Serialize one record as a framed line (length, CRC, payload)."""
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    return b"%d %08x %s\n" % (len(payload), crc32(payload), payload)


@dataclass
class JournalReadResult:
    """Everything :func:`read_journal` learned about one journal file."""

    records: list[dict[str, Any]] = field(default_factory=list)
    #: True when the file ends in a torn/corrupt record that was dropped.
    torn: bool = False
    torn_reason: str | None = None
    #: Byte offset of the end of the last *complete* record.
    valid_bytes: int = 0
    total_bytes: int = 0


def read_journal(path: str | Path) -> JournalReadResult:
    """Parse a journal, tolerating a torn or corrupt tail.

    Reads records sequentially and stops at the first framing violation
    (bad header, short payload, CRC mismatch, unparseable JSON): with a
    single appending writer only the tail can be damaged, so everything
    before the violation is trusted and everything from it on is
    dropped.  A missing file reads as an empty journal.
    """
    path = Path(path)
    result = JournalReadResult()
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return result
    result.total_bytes = len(data)
    offset = 0
    while offset < len(data):
        torn = _parse_record(data, offset, result)
        if torn is not None:
            result.torn = True
            result.torn_reason = torn
            break
        offset = result.valid_bytes
    return result


def _parse_record(
    data: bytes, offset: int, result: JournalReadResult
) -> str | None:
    """Parse one record at ``offset``; returns a torn-reason or None.

    On success the record is appended and ``result.valid_bytes`` moves
    past the record's trailing newline.
    """
    header_end = data.find(b" ", offset)
    if header_end < 0:
        return "truncated header (no length field)"
    crc_end = data.find(b" ", header_end + 1)
    if crc_end < 0:
        return "truncated header (no crc field)"
    try:
        length = int(data[offset:header_end])
        declared_crc = int(data[header_end + 1:crc_end], 16)
    except ValueError:
        return "unparseable header"
    if length < 0 or length > 64 * 1024 * 1024:
        return "implausible record length"
    payload_start = crc_end + 1
    payload_end = payload_start + length
    if payload_end + 1 > len(data):
        return "truncated payload"
    if data[payload_end:payload_end + 1] != b"\n":
        return "missing record terminator"
    payload = data[payload_start:payload_end]
    if crc32(payload) != declared_crc:
        return "crc mismatch"
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return "unparseable payload"
    if not isinstance(record, dict):
        return "non-object payload"
    result.records.append(record)
    result.valid_bytes = payload_end + 1
    return None


class SessionJournal:
    """The appending writer for one session's journal file.

    Thread-safe; opened lazily on the first append so sessions that
    never complete a turn leave no file behind.  ``appends``/``fsyncs``
    feed the persistence counters on ``/metrics``.
    """

    def __init__(
        self,
        path: str | Path,
        fsync: str = "always",
        fsync_interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"unknown fsync policy {fsync!r} (choose from {FSYNC_POLICIES})"
            )
        if fsync_interval <= 0:
            raise JournalError("fsync_interval must be positive")
        self.path = Path(path)
        self.fsync_policy = fsync
        self.fsync_interval = fsync_interval
        self._clock = clock
        self._lock = threading.Lock()
        self._handle = None
        self._last_fsync = 0.0
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0

    def append(self, record: dict[str, Any]) -> int:
        """Append one framed record; returns the bytes written.

        The record is durable per the fsync policy when this returns —
        the caller may acknowledge the turn to the client.
        """
        frame = frame_record(record)
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "ab")
            self._handle.write(frame)
            self._handle.flush()
            self.appends += 1
            self.bytes_written += len(frame)
            if self.fsync_policy == "always":
                self._fsync_locked()
            elif self.fsync_policy == "interval":
                now = self._clock()
                if now - self._last_fsync >= self.fsync_interval:
                    self._fsync_locked()
                    self._last_fsync = now
        return len(frame)

    def _fsync_locked(self) -> None:
        os.fsync(self._handle.fileno())
        self.fsyncs += 1

    def fsync_count(self) -> int:
        """How many fsyncs this journal has issued, read under the lock."""
        with self._lock:
            return self.fsyncs

    def sync(self) -> None:
        """Force an fsync regardless of policy (used on graceful close)."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                self._fsync_locked()

    def close(self, sync: bool = True) -> None:
        with self._lock:
            if self._handle is None:
                return
            self._handle.flush()
            if sync:
                self._fsync_locked()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SessionJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def compact_journal(path: str | Path, keep_after_turn: int) -> int:
    """Drop records covered by a snapshot (``turn <= keep_after_turn``).

    Rewrites the journal atomically (:func:`~repro.atomic.atomic_write`),
    keeping only the suffix a recovery would still need to replay;
    returns how many records were dropped.  Must not race an open writer — callers
    close the session's :class:`SessionJournal` first.
    """
    path = Path(path)
    result = read_journal(path)
    if not path.exists():
        return 0
    kept = [
        record
        for record in result.records
        if int(record.get("turn", 0)) > keep_after_turn
    ]
    dropped = len(result.records) - len(kept)
    atomic_write(path, b"".join(frame_record(record) for record in kept))
    return dropped
