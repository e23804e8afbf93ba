"""Durable, resumable conversation sessions and multi-worker serving.

The paper's system serves long-lived clinical conversations from an
always-on cloud deployment (§6–§7); this subsystem gives the
reproduction the same durability and horizontal-scale properties on top
of the in-memory serving layer:

* :mod:`repro.persistence.journal` — append-only per-session journal
  (length+CRC framed JSONL, configurable fsync policy, torn-tail
  tolerant reader, compaction),
* :mod:`repro.persistence.snapshot` — atomic
  :class:`~repro.dialogue.context.ConversationContext` snapshots
  (temp file + ``os.replace``) that double as journal compaction
  points,
* :mod:`repro.persistence.store` — :class:`DurableSessionStore`, the
  journaling wrapper around the serving layer's session store, plus
  the restart-safe :class:`DurableSessionIdAllocator`,
* :mod:`repro.persistence.recovery` — crash recovery by snapshot
  restore + deterministic journal replay through the turn pipeline,
* :mod:`repro.persistence.router` — the session-affine multi-process
  front end: N worker subprocesses, each with its own immutable KB
  replica, behind a hash router with restart-and-recover supervision.
"""

from repro._lazy import lazy_exports

# Resolved on first access: the router imports
# ``repro.persistence.router`` and must not load the model through here.
__getattr__ = lazy_exports(globals(), {
    "repro.persistence.journal": (
        "FSYNC_POLICIES", "JournalReadResult", "SessionJournal",
        "compact_journal", "frame_record", "read_journal",
    ),
    "repro.persistence.recovery": (
        "RecoveredSession", "RecoveryReport", "inspect_session",
        "list_session_ids", "recover_all", "recover_session",
    ),
    "repro.persistence.router": (
        "SessionRouter", "WorkerHandle", "affinity", "worker_dir",
    ),
    "repro.persistence.snapshot": (
        "SessionSnapshot", "load_snapshot", "write_snapshot",
    ),
    "repro.persistence.store": (
        "DurableSessionIdAllocator", "DurableSessionStore",
    ),
})

__all__ = [
    "FSYNC_POLICIES",
    "DurableSessionIdAllocator",
    "DurableSessionStore",
    "JournalReadResult",
    "RecoveredSession",
    "RecoveryReport",
    "SessionJournal",
    "SessionRouter",
    "SessionSnapshot",
    "WorkerHandle",
    "affinity",
    "compact_journal",
    "frame_record",
    "inspect_session",
    "list_session_ids",
    "load_snapshot",
    "read_journal",
    "recover_all",
    "recover_session",
    "worker_dir",
    "write_snapshot",
]
