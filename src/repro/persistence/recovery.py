"""Crash recovery: rebuild sessions from snapshots and journal replay.

The turn pipeline is deterministic — the same utterance against the
same context and the same trained artifacts yields byte-identical
output — so a session is fully described by its snapshot (context as of
turn *T*) plus the journaled utterances after *T*.  Recovery restores
the snapshot and replays the suffix through the real
:class:`~repro.engine.pipeline.TurnPipeline` (``Session.ask``).  Thumbs
feedback records carry no utterance: each re-applies its mark to the
turn it names, which may be one the snapshot already covers.

Every replayed turn's regenerated response is compared against the
journaled response text; a divergence (an agent rebuilt from different
artifacts, a non-deterministic stage) is counted as a *replay mismatch*
and surfaced on ``/metrics`` — the recovered session still adopts the
replayed state, which is what the pipeline would now produce.

:func:`inspect_session` is the read-only sibling used by ``repro
sessions`` and ``GET /sessions``: it renders a session's durable state
(snapshot history + journal suffix) without an agent and without
touching the live store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import EngineError
from repro.persistence.journal import read_journal
from repro.persistence.snapshot import load_snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.agent import ConversationAgent, Session

#: Filename suffixes inside a data dir's ``sessions/`` directory.
JOURNAL_SUFFIX, SNAPSHOT_SUFFIX = ".journal", ".snapshot"


def sessions_dir(data_dir: str | Path) -> Path:
    return Path(data_dir) / "sessions"


def journal_path(data_dir: str | Path, sid: str) -> Path:
    return sessions_dir(data_dir) / f"{sid}{JOURNAL_SUFFIX}"


def snapshot_path(data_dir: str | Path, sid: str) -> Path:
    return sessions_dir(data_dir) / f"{sid}{SNAPSHOT_SUFFIX}"


def list_session_ids(data_dir: str | Path) -> list[str]:
    """Every session id with durable state, numerically ordered."""
    directory = sessions_dir(data_dir)
    if not directory.is_dir():
        return []
    ids = {
        path.name[: -len(suffix)]
        for suffix in (JOURNAL_SUFFIX, SNAPSHOT_SUFFIX)
        for path in directory.glob(f"*{suffix}")
    }
    return sorted(ids, key=lambda sid: (not sid.isdigit(), int(sid) if sid.isdigit() else 0, sid))


@dataclass
class RecoveredSession:
    """One session rebuilt from disk."""

    session: "Session"
    turn_count: int
    replayed: int = 0
    mismatches: int = 0
    torn_records: int = 0
    last_commit: tuple[str, dict[str, Any]] | None = None
    #: "snapshot", "replay" or "snapshot+replay".
    source: str = "replay"


@dataclass
class RecoveryReport:
    """Aggregate counters for a boot-time recovery pass."""

    sessions_recovered: int = 0
    sessions_failed: int = 0
    turns_replayed: int = 0
    replay_mismatches: int = 0
    torn_records: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    def absorb(self, recovered: RecoveredSession) -> None:
        self.sessions_recovered += 1
        self.turns_replayed += recovered.replayed
        self.replay_mismatches += recovered.mismatches
        self.torn_records += recovered.torn_records


def recover_session(
    agent: "ConversationAgent", data_dir: str | Path, sid: str
) -> RecoveredSession | None:
    """Rebuild one session from its durable state; None when absent.

    Restores the snapshot when one loads cleanly, then replays every
    journal turn past the snapshot's turn count through the real
    pipeline and re-applies every feedback mark.  A torn journal tail
    recovers to the last complete record.
    """
    from repro.engine.agent import Session

    snap = load_snapshot(snapshot_path(data_dir, sid))
    journal = read_journal(journal_path(data_dir, sid))
    if snap is None and not journal.records and not journal.total_bytes:
        return None

    session = Session(agent, int(sid) if sid.isdigit() else 0)
    source = "replay"
    last_commit: tuple[str, dict[str, Any]] | None = None
    covered = 0
    if snap is not None:
        session.context = snap.context
        covered = snap.turn_count
        last_commit = snap.last_commit
        source = "snapshot"

    replayed = mismatches = 0
    for record in journal.records:
        turn = int(record.get("turn", 0))
        if record.get("type") == "feedback":
            history = session.context.history
            if 1 <= turn <= len(history):
                history[turn - 1].feedback = record.get("feedback")
            continue
        if turn <= covered:
            continue
        utterance = record.get("utterance")
        if not isinstance(utterance, str) or not utterance.strip():
            continue
        try:
            response = session.ask(utterance)
        except EngineError:
            mismatches += 1
            continue
        replayed += 1
        journaled = record.get("response") or {}
        if journaled.get("text") is not None and journaled["text"] != response.text:
            mismatches += 1
        client_turn_id = record.get("client_turn_id")
        if client_turn_id:
            last_commit = (
                str(client_turn_id),
                _result_from_record(sid, record, session.context.turn_count),
            )
    if replayed:
        source = "snapshot+replay" if snap is not None else "replay"
    return RecoveredSession(
        session=session,
        turn_count=session.context.turn_count,
        replayed=replayed,
        mismatches=mismatches,
        torn_records=1 if journal.torn else 0,
        last_commit=last_commit,
        source=source,
    )


def _result_from_record(sid: str, record: dict, turn: int) -> dict[str, Any]:
    """Rebuild the ``/chat`` result dict a committed turn answered with."""
    response = record.get("response") or {}
    return {
        "session_id": sid,
        "text": response.get("text", ""),
        "intent": response.get("intent"),
        "confidence": response.get("confidence", 0.0),
        "kind": response.get("kind", ""),
        "entities": dict(response.get("entities") or {}),
        "sql": response.get("sql"),
        "turn": turn,
    }


def recover_all(
    agent: "ConversationAgent",
    data_dir: str | Path,
    limit: int | None = None,
) -> tuple[list[tuple[str, RecoveredSession]], RecoveryReport]:
    """Rebuild every journaled session (boot-time crash recovery).

    ``limit`` bounds eager recovery to the most recent sessions (highest
    ids — the allocator is monotonic); the rest stay on disk and page in
    lazily on their next request.
    """
    report = RecoveryReport()
    recovered: list[tuple[str, RecoveredSession]] = []
    ids = list_session_ids(data_dir)
    if limit is not None and len(ids) > limit:
        ids = ids[-limit:] if limit > 0 else []
    for sid in ids:
        try:
            result = recover_session(agent, data_dir, sid)
        except Exception as exc:  # a damaged session must not block boot
            report.sessions_failed += 1
            report.failures.append((sid, f"{type(exc).__name__}: {exc}"))
            continue
        if result is None:
            continue
        recovered.append((sid, result))
        report.absorb(result)
    return recovered, report


def inspect_session(data_dir: str | Path, sid: str) -> dict[str, Any] | None:
    """Read-only view of one session's durable state (no agent needed).

    Merges the snapshot's transcript with the journal suffix; journal
    turns past the snapshot contribute their *journaled* responses
    (what the user actually saw), and journaled feedback marks land on
    the turn they name, so the view reflects committed history, not a
    replay.
    """
    snap = load_snapshot(snapshot_path(data_dir, sid))
    journal = read_journal(journal_path(data_dir, sid))
    if snap is None and not journal.records and not journal.total_bytes:
        return None
    turns: list[dict[str, Any]] = []
    covered = 0
    if snap is not None:
        covered = snap.turn_count
        turns.extend(record.to_dict() for record in snap.context.history)
    journal_suffix = 0
    for record in journal.records:
        turn = int(record.get("turn", 0))
        if record.get("type") == "feedback":
            if 1 <= turn <= len(turns):
                turns[turn - 1]["feedback"] = record.get("feedback")
            continue
        if turn <= covered:
            continue
        response = record.get("response") or {}
        turns.append({
            "user": record.get("utterance", ""),
            "agent": response.get("text", ""),
            "intent": response.get("intent"),
            "confidence": response.get("confidence", 0.0),
            "entities": dict(response.get("entities") or {}),
            "outcome_kind": response.get("kind", ""),
        })
        journal_suffix += 1
    return {
        "session_id": sid,
        "turns": turns,
        "turn_count": len(turns),
        "snapshot_turns": covered,
        "journal_records": len(journal.records),
        "journal_suffix": journal_suffix,
        "journal_bytes": journal.total_bytes,
        "journal_torn": journal.torn,
    }
