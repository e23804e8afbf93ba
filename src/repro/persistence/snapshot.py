"""Atomic session snapshots: serialized ``ConversationContext`` state.

A snapshot is the compaction point of a session's journal: once the
context as of turn *T* is durably on disk, every journal record with
``turn <= T`` is redundant and can be dropped.  Recovery then restores
the snapshot and replays only the journal suffix through the turn
pipeline.

Write protocol (crash-safe): serialize to a temp file in the target
directory, ``fsync``, ``os.replace`` over the live snapshot, then fsync
the directory.  A crash at any point leaves either the previous
snapshot or the new one — never a torn file.  The body additionally
carries a CRC-32 so a damaged snapshot is *detected* on load (treated
as absent; recovery falls back to replaying the full journal).

``ConversationContext.variables`` may hold tuples (disambiguation
candidates, KB result rows), which JSON would silently turn into lists;
:func:`encode_value` tags them so :func:`decode_value` restores the
exact Python shapes and a restored context is indistinguishable from
the original.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.atomic import atomic_write
from repro.dialogue.context import ConversationContext
from repro.errors import SnapshotError
from repro.persistence.journal import crc32

SNAPSHOT_VERSION = 1

#: Tag key marking an encoded tuple; NUL-prefixed so it can never
#: collide with a real context-variable dictionary key.
_TUPLE_TAG = "\x00tuple"


def encode_value(value: Any) -> Any:
    """Recursively convert ``value`` to a JSON-safe shape, tagging tuples."""
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SnapshotError(
                    f"cannot snapshot non-string dict key {key!r}"
                )
            out[key] = encode_value(item)
        return out
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise SnapshotError(
        f"cannot snapshot value of type {type(value).__name__}: {value!r}"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        if set(value) == {_TUPLE_TAG}:
            return tuple(decode_value(item) for item in value[_TUPLE_TAG])
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


@dataclass
class SessionSnapshot:
    """One restored snapshot: the context as of ``turn_count``.

    ``last_commit`` carries the final committed turn's
    ``(client_turn_id, result)`` so retry deduplication survives journal
    compaction (after compaction the journal no longer holds it).
    """

    session_id: int
    turn_count: int
    context: ConversationContext
    last_commit: tuple[str, dict[str, Any]] | None = None


def write_snapshot(
    path: str | Path,
    session_id: int,
    context: ConversationContext,
    last_commit: tuple[str, dict[str, Any]] | None = None,
) -> int:
    """Atomically persist ``context`` as of its current turn count.

    Returns the number of bytes written.
    """
    path = Path(path)
    body = {
        "version": SNAPSHOT_VERSION,
        "session_id": session_id,
        "turn_count": context.turn_count,
        "context": encode_value(context.to_dict()),
        "last_commit": (
            [last_commit[0], encode_value(last_commit[1])]
            if last_commit is not None
            else None
        ),
    }
    body_json = json.dumps(body, separators=(",", ":"), sort_keys=True)
    envelope = json.dumps(
        {"crc": crc32(body_json.encode("utf-8")), "body": body},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, envelope)
    return len(envelope)


def load_snapshot(path: str | Path) -> SessionSnapshot | None:
    """Restore a snapshot; ``None`` when missing, torn or corrupt.

    A bad snapshot is deliberately indistinguishable from an absent one:
    recovery then rebuilds what it can from the journal instead of
    refusing the session.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    try:
        envelope = json.loads(raw.decode("utf-8"))
        body = envelope["body"]
        body_json = json.dumps(body, separators=(",", ":"), sort_keys=True)
        if crc32(body_json.encode("utf-8")) != envelope["crc"]:
            return None
        if body.get("version") != SNAPSHOT_VERSION:
            return None
        context = ConversationContext.from_dict(decode_value(body["context"]))
        stored_commit = body.get("last_commit")
        last_commit = (
            (stored_commit[0], decode_value(stored_commit[1]))
            if stored_commit is not None
            else None
        )
        return SessionSnapshot(
            session_id=int(body["session_id"]),
            turn_count=int(body["turn_count"]),
            context=context,
            last_commit=last_commit,
        )
    except (KeyError, TypeError, ValueError, UnicodeDecodeError):
        return None
