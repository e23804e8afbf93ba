"""Crash recovery: byte-identical resume, torn tails, replay accounting."""

from __future__ import annotations

from repro.persistence.journal import SessionJournal, read_journal
from repro.persistence.recovery import (
    inspect_session,
    journal_path,
    list_session_ids,
    recover_all,
    recover_session,
)
from repro.persistence.store import DurableSessionStore
from tests.persistence.conftest import GOLDEN_SCRIPT, run_script
from tests.serving.conftest import build_toy_agent


def _crashy_conversation(tmp_path, turns: int) -> tuple[str, list[str]]:
    """Run ``turns`` committed turns, then 'crash' (never close the
    store); returns (sid, texts the client saw)."""
    agent = build_toy_agent()
    store = DurableSessionStore(agent, tmp_path, fsync="never")
    sid, entry = store.create()
    texts = []
    for utterance in GOLDEN_SCRIPT[:turns]:
        with entry.lock:
            response = entry.session.ask(utterance)
            entry.turn_count += 1
            store.commit_turn(sid, entry, utterance, {
                "session_id": sid, "text": response.text,
                "intent": response.intent, "confidence": response.confidence,
                "kind": response.kind, "entities": dict(response.entities),
                "sql": response.sql, "turn": entry.turn_count,
            })
        texts.append(response.text)
    # No close(): the process is gone, only journal bytes remain.
    return sid, texts


class TestByteIdenticalRecovery:
    def test_kill_then_resume_matches_uninterrupted_control(self, tmp_path):
        crash_after = 3
        sid, before = _crashy_conversation(tmp_path, turns=crash_after)

        # Control: the same conversation, never interrupted.
        control = run_script(build_toy_agent().session())

        # Crash recovery on a fresh process (fresh agent build).
        agent = build_toy_agent()
        recovered = recover_session(agent, tmp_path, sid)
        assert recovered is not None
        assert recovered.turn_count == crash_after
        assert recovered.replayed == crash_after
        assert recovered.mismatches == 0
        assert recovered.source == "replay"

        # The journaled prefix matches the control byte for byte...
        assert before == control[:crash_after]
        # ...and the *resumed* conversation continues identically, so
        # the restored context is indistinguishable from never crashing.
        after = run_script(recovered.session, GOLDEN_SCRIPT[crash_after:])
        assert after == control[crash_after:]

    def test_recovered_transcript_matches_history(self, tmp_path):
        sid, texts = _crashy_conversation(tmp_path, turns=3)
        agent = build_toy_agent()
        recovered = recover_session(agent, tmp_path, sid)
        history = recovered.session.context.history
        assert [t.agent for t in history] == texts
        assert [t.user for t in history] == GOLDEN_SCRIPT[:3]

    def test_snapshot_plus_suffix_replay(self, tmp_path):
        agent = build_toy_agent()
        store = DurableSessionStore(
            agent, tmp_path, fsync="never", snapshot_every=2
        )
        sid, entry = store.create()
        texts = []
        for utterance in GOLDEN_SCRIPT[:3]:
            with entry.lock:
                response = entry.session.ask(utterance)
                entry.turn_count += 1
                store.commit_turn(sid, entry, utterance, {
                    "session_id": sid, "text": response.text,
                    "intent": response.intent,
                    "confidence": response.confidence,
                    "kind": response.kind,
                    "entities": dict(response.entities),
                    "sql": response.sql, "turn": entry.turn_count,
                })
            texts.append(response.text)
        # Crash. Turns 1–2 live in the snapshot, turn 3 in the journal.
        recovered = recover_session(build_toy_agent(), tmp_path, sid)
        assert recovered.source == "snapshot+replay"
        assert recovered.replayed == 1
        assert recovered.turn_count == 3
        assert [t.agent for t in recovered.session.context.history] == texts

    def test_torn_tail_recovers_to_last_complete_turn(self, tmp_path):
        sid, texts = _crashy_conversation(tmp_path, turns=3)
        path = journal_path(tmp_path, sid)
        path.write_bytes(path.read_bytes()[:-9])  # tear turn 3 mid-record
        recovered = recover_session(build_toy_agent(), tmp_path, sid)
        assert recovered.turn_count == 2
        assert recovered.torn_records == 1
        assert [t.agent for t in recovered.session.context.history] == \
            texts[:2]

    def test_replay_mismatch_is_counted_not_fatal(self, tmp_path):
        sid, _texts = _crashy_conversation(tmp_path, turns=2)
        path = journal_path(tmp_path, sid)
        records = read_journal(path).records
        records[1]["response"]["text"] = "something the agent never said"
        path.unlink()
        with SessionJournal(path, fsync="never") as journal:
            for record in records:
                journal.append(record)
        recovered = recover_session(build_toy_agent(), tmp_path, sid)
        assert recovered.turn_count == 2
        assert recovered.mismatches == 1


def _commit_turn(store, sid, entry, utterance: str) -> None:
    with entry.lock:
        response = entry.session.ask(utterance)
        entry.turn_count += 1
        store.commit_turn(sid, entry, utterance, {
            "session_id": sid, "text": response.text,
            "intent": response.intent, "confidence": response.confidence,
            "kind": response.kind, "entities": dict(response.entities),
            "sql": response.sql, "turn": entry.turn_count,
        })


def _commit_mark(store, sid, entry, feedback: str) -> None:
    with entry.lock:
        entry.session.context.mark_last_turn(feedback)
        store.commit_feedback(sid, entry)


class TestFeedbackRecords:
    def test_mark_after_snapshot_applies_to_covered_turn(self, tmp_path):
        store = DurableSessionStore(
            build_toy_agent(), tmp_path, fsync="never", snapshot_every=2
        )
        sid, entry = store.create()
        for utterance in GOLDEN_SCRIPT[:2]:
            _commit_turn(store, sid, entry, utterance)
        # Turns 1–2 are in the snapshot; the mark on turn 2 lands after
        # it, so its turn is one the snapshot already covers.
        _commit_mark(store, sid, entry, "down")
        records = read_journal(journal_path(tmp_path, sid)).records
        assert records == [{"type": "feedback", "turn": 2, "feedback": "down"}]
        # Crash; the mark is re-applied to the snapshot's history.
        recovered = recover_session(build_toy_agent(), tmp_path, sid)
        assert recovered.source == "snapshot"
        assert recovered.replayed == 0
        history = recovered.session.context.history
        assert [t.feedback for t in history] == [None, "down"]
        detail = inspect_session(tmp_path, sid)
        assert detail["turn_count"] == 2
        assert detail["journal_suffix"] == 0
        assert [t.get("feedback") for t in detail["turns"]] == [None, "down"]

    def test_mark_in_journal_suffix_survives_crash(self, tmp_path):
        store = DurableSessionStore(build_toy_agent(), tmp_path, fsync="never")
        sid, entry = store.create()
        _commit_turn(store, sid, entry, GOLDEN_SCRIPT[0])
        _commit_mark(store, sid, entry, "up")
        _commit_turn(store, sid, entry, GOLDEN_SCRIPT[1])
        _commit_mark(store, sid, entry, "up")
        _commit_mark(store, sid, entry, "down")  # the last mark wins
        _commit_turn(store, sid, entry, GOLDEN_SCRIPT[2])
        # Crash: no snapshot, everything is replayed from the journal.
        recovered = recover_session(build_toy_agent(), tmp_path, sid)
        assert recovered.replayed == 3
        assert recovered.mismatches == 0
        history = recovered.session.context.history
        assert [t.feedback for t in history] == ["up", "down", None]
        detail = inspect_session(tmp_path, sid)
        assert detail["turn_count"] == 3
        assert detail["journal_suffix"] == 3
        assert [t.get("feedback") for t in detail["turns"]] == \
            ["up", "down", None]

    def test_marks_do_not_count_toward_snapshots(self, tmp_path):
        store = DurableSessionStore(
            build_toy_agent(), tmp_path, fsync="never", snapshot_every=2
        )
        sid, entry = store.create()
        _commit_turn(store, sid, entry, GOLDEN_SCRIPT[0])
        _commit_mark(store, sid, entry, "down")
        assert store.counter("snapshots_written_total") == 0
        _commit_turn(store, sid, entry, GOLDEN_SCRIPT[1])
        assert store.counter("snapshots_written_total") == 1


class TestRecoverAll:
    def test_recovers_every_session(self, tmp_path):
        sids = []
        agent = build_toy_agent()
        store = DurableSessionStore(agent, tmp_path, fsync="never")
        for _ in range(3):
            sid, entry = store.create()
            with entry.lock:
                response = entry.session.ask("dosage for Aspirin")
                entry.turn_count += 1
                store.commit_turn(sid, entry, "dosage for Aspirin", {
                    "session_id": sid, "text": response.text,
                    "intent": response.intent,
                    "confidence": response.confidence,
                    "kind": response.kind,
                    "entities": dict(response.entities),
                    "sql": response.sql, "turn": entry.turn_count,
                })
            sids.append(sid)
        # Crash; recover everything on a fresh agent.
        recovered, report = recover_all(build_toy_agent(), tmp_path)
        assert [sid for sid, _ in recovered] == sids
        assert report.sessions_recovered == 3
        assert report.turns_replayed == 3
        assert report.sessions_failed == 0

    def test_limit_keeps_most_recent(self, tmp_path):
        _crashy_conversation(tmp_path, turns=1)
        agent = build_toy_agent()
        all_ids = list_session_ids(tmp_path)
        recovered, _report = recover_all(agent, tmp_path, limit=0)
        assert recovered == [] and all_ids  # the rest pages in lazily

    def test_damaged_session_does_not_block_boot(self, tmp_path):
        sid, _ = _crashy_conversation(tmp_path, turns=1)
        # A session whose recovery raises outright (the journal reader
        # tolerates bad *bytes*, so break it at the filesystem level: a
        # directory where the journal file should be).
        journal_path(tmp_path, "99").mkdir(parents=True)
        recovered, report = recover_all(build_toy_agent(), tmp_path)
        assert report.sessions_failed == 1
        assert report.failures and report.failures[0][0] == "99"
        assert [s for s, _ in recovered] == [sid]
        assert report.sessions_recovered == 1


class TestInspect:
    def test_inspect_merges_snapshot_and_suffix(self, tmp_path):
        agent = build_toy_agent()
        store = DurableSessionStore(
            agent, tmp_path, fsync="never", snapshot_every=2
        )
        sid, entry = store.create()
        texts = []
        for utterance in GOLDEN_SCRIPT[:3]:
            with entry.lock:
                response = entry.session.ask(utterance)
                entry.turn_count += 1
                store.commit_turn(sid, entry, utterance, {
                    "session_id": sid, "text": response.text,
                    "intent": response.intent,
                    "confidence": response.confidence,
                    "kind": response.kind,
                    "entities": dict(response.entities),
                    "sql": response.sql, "turn": entry.turn_count,
                })
            texts.append(response.text)
        detail = inspect_session(tmp_path, sid)
        assert detail["turn_count"] == 3
        assert detail["snapshot_turns"] == 2
        assert detail["journal_suffix"] == 1
        assert [t["agent"] for t in detail["turns"]] == texts
        assert [t["user"] for t in detail["turns"]] == GOLDEN_SCRIPT[:3]
        assert not detail["journal_torn"]
        store.close()

    def test_inspect_absent_session(self, tmp_path):
        assert inspect_session(tmp_path, "404") is None

    def test_list_session_ids_sorts_numerically(self, tmp_path):
        for sid in ("10", "2", "1"):
            with SessionJournal(
                journal_path(tmp_path, sid), fsync="never"
            ) as journal:
                journal.append({"turn": 1, "utterance": "hi"})
        assert list_session_ids(tmp_path) == ["1", "2", "10"]
