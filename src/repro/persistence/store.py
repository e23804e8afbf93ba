"""Durable session store: journaled turns, snapshot paging, durable ids.

:class:`DurableSessionStore` wraps the serving layer's in-memory
:class:`~repro.serving.session_store.SessionStore` with a data
directory::

    data_dir/
      session_ids.json      allocator high-water mark (atomic rewrite)
      sessions/
        <sid>.journal       framed JSONL, one record per committed turn
                            or thumbs mark
        <sid>.snapshot      atomic context snapshot (compaction point)

Life of a turn: the serving layer runs the pipeline under the session's
entry lock, then calls :meth:`commit_turn` — the journal append (with
the configured fsync policy) *is* the commit; only afterwards does the
HTTP response leave the process, so a ``kill -9`` never loses a turn a
client saw acknowledged.  Every ``snapshot_every`` journaled records
the session's context is snapshotted and the journal compacted down to
the suffix a recovery would still replay.  Thumbs feedback commits the
same way through :meth:`commit_feedback` (one journal record under the
entry lock before the reply); it does not count toward
``snapshot_every``.

Eviction (TTL idle, LRU pressure, explicit drop) snapshots-then-drops
via the inner store's ``on_evict`` hook, turning the bounded working
set into a page cache over the data directory: an evicted session's
next request pages it back in through
:func:`~repro.persistence.recovery.recover_session`.

:class:`DurableSessionIdAllocator` persists the id high-water mark in
reservation batches, so a restarted process can never re-issue an id —
recovered and new sessions cannot collide.  ``stride``/``offset`` carve
the id space into residue classes for the multi-worker router (worker
*i* of *N* allocates ids ≡ *i* (mod *N*), which is exactly the router's
affinity hash).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.atomic import atomic_write
from repro.engine.agent import ConversationAgent, Session, SessionIdAllocator
from repro.persistence import recovery
from repro.persistence.journal import (
    FSYNC_POLICIES,
    JournalError,
    SessionJournal,
    compact_journal,
)
from repro.persistence.snapshot import write_snapshot
from repro.serving.session_store import SessionEntry, SessionStore

#: Allocator ids persisted per high-water-mark write; one small atomic
#: file write amortized over this many session creations.
ID_RESERVE_BATCH = 128


class DurableSessionIdAllocator(SessionIdAllocator):
    """A :class:`SessionIdAllocator` whose high-water mark survives
    restarts.

    The persisted value is a *reservation*: ids below it may have been
    handed out, so a restart resumes past it.  Crashing forfeits at most
    ``ID_RESERVE_BATCH`` unissued ids per restart — a gap, never a
    collision.
    """

    def __init__(
        self,
        path: str | Path,
        offset: int = 1,
        stride: int = 1,
        reserve_batch: int = ID_RESERVE_BATCH,
    ) -> None:
        self.path = Path(path)
        self._reserve_batch = max(1, reserve_batch)
        self._reserved_to = 0
        start = self._aligned_start(self._load_reserved(), offset, stride)
        super().__init__(start=start, stride=stride)

    @staticmethod
    def _aligned_start(reserved: int, offset: int, stride: int) -> int:
        """First id >= ``reserved`` in the worker's residue class."""
        residue = offset % stride
        start = max(reserved, 1)
        remainder = start % stride
        if remainder != residue:
            start += (residue - remainder) % stride
        return start if start > 0 else stride

    def _load_reserved(self) -> int:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
            reserved = int(data["reserved"])
        except (FileNotFoundError, KeyError, TypeError, ValueError):
            return 0
        self._reserved_to = reserved
        return reserved

    def reserve(self, up_to: int) -> None:  # locks: SessionIdAllocator._lock
        """Persist a new high-water mark before ids past the current
        reservation are handed out (called under the allocator lock)."""
        if up_to <= self._reserved_to:
            return
        reserved = up_to + self._reserve_batch * self.stride
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(
            self.path,
            json.dumps({"reserved": reserved, "stride": self.stride})
            .encode("utf-8"),
        )
        self._reserved_to = reserved


class DurableSessionStore:
    """A drop-in session manager whose sessions survive the process.

    Exposes the same ``create``/``get``/``drop``/``sweep``/``clear``
    surface as :class:`SessionStore` (the serving layer is agnostic),
    plus :meth:`commit_turn` and recovery.  All persistence counters are
    plain ints guarded by ``_counter_lock`` and surfaced via
    :meth:`stats` / the serving layer's ``/metrics`` gauges.
    """

    def __init__(
        self,
        agent: ConversationAgent,
        data_dir: str | Path,
        *,
        max_sessions: int = 1024,
        ttl: float = 1800.0,
        clock: Callable[[], float] = time.monotonic,
        fsync: str = "always",
        fsync_interval: float = 1.0,
        snapshot_every: int = 64,
        id_stride: int = 1,
        id_offset: int = 1,
        recover_on_boot: bool = True,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"unknown fsync policy {fsync!r} (choose from {FSYNC_POLICIES})"
            )
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.agent = agent
        self.data_dir = Path(data_dir)
        self.sessions_dir = recovery.sessions_dir(self.data_dir)
        self.sessions_dir.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.fsync_interval = fsync_interval
        self.snapshot_every = snapshot_every
        # Durable ids must be installed before any session is created so
        # a recovered store can never hand a new conversation an id that
        # is already journaled on disk.
        self.allocator = DurableSessionIdAllocator(
            self.data_dir / "session_ids.json",
            offset=id_offset,
            stride=id_stride,
        )
        agent.id_allocator = self.allocator
        self.store = SessionStore(
            agent,
            max_sessions=max_sessions,
            ttl=ttl,
            clock=clock,
            on_evict=self._on_evict,
        )
        self._journal_lock = threading.Lock()
        self._journals: dict[str, SessionJournal] = {}
        self._since_snapshot: dict[str, int] = {}
        self._resume_lock = threading.Lock()
        self._resuming: dict[str, threading.Lock] = {}
        self._counter_lock = threading.Lock()
        self.counters: dict[str, int] = {
            "turns_journaled_total": 0,
            "journal_fsyncs_total": 0,
            "journal_bytes_total": 0,
            "snapshots_written_total": 0,
            "journal_compactions_total": 0,
            "sessions_evicted_persisted_total": 0,
            "sessions_resumed_from_disk_total": 0,
            "sessions_recovered_total": 0,
            "sessions_recovery_failed_total": 0,
            "recovery_turns_replayed_total": 0,
            "recovery_replay_mismatches_total": 0,
            "recovery_torn_records_total": 0,
        }
        if recover_on_boot:
            self.recover(limit=max_sessions)

    # -- counters ------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self.counters[name] += amount

    def counter(self, name: str) -> int:
        with self._counter_lock:
            return self.counters[name]

    # -- SessionStore surface ------------------------------------------------

    def __len__(self) -> int:
        return len(self.store)

    def ids(self) -> list[str]:
        return self.store.ids()

    @property
    def evicted_ttl(self) -> int:
        return self.store.eviction_counts()[0]

    @property
    def evicted_lru(self) -> int:
        return self.store.eviction_counts()[1]

    def create(self) -> tuple[str, SessionEntry]:
        return self.store.create()

    def get(self, session_id: str) -> SessionEntry | None:
        """A live session, or the session paged back in from disk."""
        entry = self.store.get(session_id)
        if entry is not None:
            return entry
        return self._resume_from_disk(session_id)

    def drop(self, session_id: str) -> bool:
        return self.store.drop(session_id)

    def sweep(self) -> int:
        return self.store.sweep()

    def clear(self) -> None:
        self.store.clear()

    def stats(self) -> dict[str, int]:
        stats = self.store.stats()
        with self._counter_lock:
            stats.update(self.counters)
        stats["durable_sessions"] = len(recovery.list_session_ids(self.data_dir))
        return stats

    # -- the commit path -----------------------------------------------------

    def _journal_for(self, sid: str) -> SessionJournal:
        with self._journal_lock:
            journal = self._journals.get(sid)
            if journal is None:
                journal = SessionJournal(
                    recovery.journal_path(self.data_dir, sid),
                    fsync=self.fsync_policy,
                    fsync_interval=self.fsync_interval,
                )
                self._journals[sid] = journal
            return journal

    def commit_turn(
        self,
        sid: str,
        entry: SessionEntry,
        utterance: str,
        result: dict[str, Any],
        client_turn_id: str | None = None,
    ) -> None:  # locks: SessionEntry.lock
        """Make one completed turn durable (called under the entry lock).

        When this returns, the turn is on disk per the fsync policy and
        the serving layer may acknowledge it to the client.
        """
        record = {
            "type": "turn",
            "turn": entry.session.context.turn_count,
            "utterance": utterance,
            "response": {
                "text": result["text"],
                "intent": result["intent"],
                "confidence": result["confidence"],
                "kind": result["kind"],
                "entities": dict(result["entities"]),
                "sql": result["sql"],
            },
        }
        if client_turn_id is not None:
            record["client_turn_id"] = client_turn_id
        self._append(sid, record)
        self._count("turns_journaled_total")
        if client_turn_id is not None:
            entry.last_commit = (client_turn_id, dict(result))
        with self._journal_lock:
            pending = self._since_snapshot.get(sid, 0) + 1
            self._since_snapshot[sid] = pending
        if pending >= self.snapshot_every:
            self._snapshot(sid, entry)

    def commit_feedback(self, sid: str, entry: SessionEntry) -> None:  # locks: SessionEntry.lock
        """Make the thumbs mark on the session's last turn durable
        (called under the entry lock, after the mark is applied)."""
        context = entry.session.context
        self._append(sid, {
            "type": "feedback",
            "turn": context.turn_count,
            "feedback": context.history[-1].feedback,
        })

    def _append(self, sid: str, record: dict[str, Any]) -> None:
        """Append one record to the session's journal, counting its
        bytes and fsyncs (the commit point of both commit methods)."""
        journal = self._journal_for(sid)
        fsyncs_before = journal.fsync_count()
        written = journal.append(record)
        self._count("journal_bytes_total", written)
        self._count("journal_fsyncs_total", journal.fsync_count() - fsyncs_before)

    def _snapshot(self, sid: str, entry: SessionEntry) -> None:  # locks: SessionEntry.lock
        """Snapshot the context and compact the journal (entry lock held
        by the caller, or the entry already unreachable)."""
        write_snapshot(
            recovery.snapshot_path(self.data_dir, sid),
            entry.session.id,
            entry.session.context,
            last_commit=entry.last_commit,
        )
        self._count("snapshots_written_total")
        with self._journal_lock:
            journal = self._journals.pop(sid, None)
            self._since_snapshot.pop(sid, None)
        if journal is not None:
            journal.close()
        compact_journal(
            recovery.journal_path(self.data_dir, sid),
            keep_after_turn=entry.session.context.turn_count,
        )
        self._count("journal_compactions_total")

    # -- eviction and paging -------------------------------------------------

    def _on_evict(self, sid: str, entry: SessionEntry, reason: str) -> None:
        """Snapshot-then-drop: eviction persists, never loses, state."""
        with entry.lock:
            self._snapshot(sid, entry)
        self._count("sessions_evicted_persisted_total")

    def _resume_from_disk(self, sid: str) -> SessionEntry | None:
        """Page a journaled session back into the live working set."""
        with self._resume_lock:
            gate = self._resuming.setdefault(sid, threading.Lock())
        try:
            with gate:
                # A concurrent resume may have won while we waited.
                entry = self.store.get(sid)
                if entry is not None:
                    return entry
                try:
                    recovered = recovery.recover_session(
                        self.agent, self.data_dir, sid
                    )
                except Exception as exc:
                    self._count("sessions_recovery_failed_total")
                    raise JournalError(
                        f"session {sid} could not be recovered: {exc}"
                    ) from exc
                if recovered is None:
                    return None
                self._absorb_recovery(recovered)
                self._count("sessions_resumed_from_disk_total")
                _sid, entry = self.store.adopt(
                    recovered.session,
                    turn_count=recovered.turn_count,
                    last_commit=recovered.last_commit,
                )
                return entry
        finally:
            with self._resume_lock:
                # Identity-checked: only the thread whose setdefault won
                # may retire the gate, so a late finisher can never pop a
                # newer gate out from under the threads queued on it.
                if self._resuming.get(sid) is gate:
                    self._resuming.pop(sid)

    def _absorb_recovery(self, recovered: recovery.RecoveredSession) -> None:
        self._count("sessions_recovered_total")
        self._count("recovery_turns_replayed_total", recovered.replayed)
        self._count("recovery_replay_mismatches_total", recovered.mismatches)
        self._count("recovery_torn_records_total", recovered.torn_records)

    def recover(self, limit: int | None = None) -> recovery.RecoveryReport:
        """Boot-time crash recovery: rebuild journaled sessions eagerly.

        Bounded by ``limit`` (sessions beyond it page in lazily); each
        recovered session is adopted into the live store, so a restarted
        worker answers its next request for any of them with zero
        additional replay.
        """
        recovered, report = recovery.recover_all(
            self.agent, self.data_dir, limit=limit
        )
        for _sid, result in recovered:
            self._absorb_recovery(result)
            self.store.adopt(
                result.session,
                turn_count=result.turn_count,
                last_commit=result.last_commit,
            )
        self._count("sessions_recovery_failed_total", report.sessions_failed)
        return report

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: snapshot every live session, close journals.

        After a clean close every session is a snapshot with an empty
        journal suffix — the next boot recovers with zero replay.
        """
        self.store.clear()  # evicts through _on_evict → snapshot each
        with self._journal_lock:
            journals = list(self._journals.values())
            self._journals.clear()
            self._since_snapshot.clear()
        for journal in journals:
            journal.close()
