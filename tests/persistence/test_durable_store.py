"""DurableSessionStore: commit path, paging eviction, durable ids, dedup."""

from __future__ import annotations

import pytest

from repro.persistence.journal import read_journal
from repro.persistence.recovery import journal_path, snapshot_path
from repro.persistence.store import (
    DurableSessionIdAllocator,
    DurableSessionStore,
)
from repro.serving.server import ConversationApp
from tests.persistence.conftest import GOLDEN_SCRIPT
from tests.serving.conftest import FakeClock, build_toy_agent


def _commit(store: DurableSessionStore, sid: str, entry, utterance: str,
            client_turn_id: str | None = None) -> str:
    """One committed turn, the way the serving layer drives it."""
    with entry.lock:
        response = entry.session.ask(utterance)
        entry.turn_count += 1
        result = {
            "session_id": sid, "text": response.text,
            "intent": response.intent, "confidence": response.confidence,
            "kind": response.kind, "entities": dict(response.entities),
            "sql": response.sql, "turn": entry.turn_count,
        }
        store.commit_turn(sid, entry, utterance, result, client_turn_id)
    return response.text


class TestCommitPath:
    def test_commit_journals_every_turn(self, tmp_path, agent):
        store = DurableSessionStore(agent, tmp_path, fsync="never")
        sid, entry = store.create()
        for utterance in GOLDEN_SCRIPT[:3]:
            _commit(store, sid, entry, utterance)
        result = read_journal(journal_path(tmp_path, sid))
        assert [r["turn"] for r in result.records] == [1, 2, 3]
        assert [r["utterance"] for r in result.records] == GOLDEN_SCRIPT[:3]
        assert all(r["response"]["text"] for r in result.records)
        assert store.counter("turns_journaled_total") == 3
        store.close()

    def test_snapshot_every_compacts(self, tmp_path, agent):
        store = DurableSessionStore(
            agent, tmp_path, fsync="never", snapshot_every=2
        )
        sid, entry = store.create()
        for utterance in GOLDEN_SCRIPT[:3]:
            _commit(store, sid, entry, utterance)
        assert store.counter("snapshots_written_total") == 1
        assert store.counter("journal_compactions_total") == 1
        assert snapshot_path(tmp_path, sid).exists()
        # Turns 1–2 are covered by the snapshot; only turn 3 remains.
        result = read_journal(journal_path(tmp_path, sid))
        assert [r["turn"] for r in result.records] == [3]
        store.close()

    def test_close_snapshots_everything(self, tmp_path, agent):
        store = DurableSessionStore(agent, tmp_path, fsync="never")
        sids = []
        for _ in range(2):
            sid, entry = store.create()
            _commit(store, sid, entry, "dosage for Aspirin")
            sids.append(sid)
        store.close()
        for sid in sids:
            assert snapshot_path(tmp_path, sid).exists()
            assert not read_journal(journal_path(tmp_path, sid)).records
        # A clean restart recovers every session with zero replay.
        agent2 = build_toy_agent()
        store2 = DurableSessionStore(agent2, tmp_path, fsync="never")
        assert store2.counter("sessions_recovered_total") == 2
        assert store2.counter("recovery_turns_replayed_total") == 0
        assert sorted(store2.ids()) == sorted(sids)
        store2.close()


class TestEvictionPaging:
    def test_lru_eviction_persists_then_pages_back(self, tmp_path, agent):
        store = DurableSessionStore(
            agent, tmp_path, max_sessions=1, fsync="never"
        )
        first, entry = store.create()
        text = _commit(store, first, entry, "dosage for Aspirin")
        second, _ = store.create()  # LRU-evicts `first` through the hook
        assert store.counter("sessions_evicted_persisted_total") == 1
        assert first not in store.ids()
        assert snapshot_path(tmp_path, first).exists()
        # Touching the evicted session pages it back in, state intact
        # (which evicts `second` in turn — the cap is 1).
        paged = store.get(first)
        assert paged is not None
        assert paged.session.context.turn_count == 1
        assert store.counter("sessions_resumed_from_disk_total") == 1
        follow = _commit(store, first, paged, "how about for Ibuprofen?")
        assert follow and follow != text
        del second
        store.close()

    def test_ttl_sweep_persists(self, tmp_path, agent):
        clock = FakeClock()
        store = DurableSessionStore(
            agent, tmp_path, ttl=60.0, clock=clock, fsync="never"
        )
        sid, entry = store.create()
        _commit(store, sid, entry, "dosage for Aspirin")
        clock.advance(61.0)
        assert store.sweep() == 1
        assert store.counter("sessions_evicted_persisted_total") == 1
        assert store.get(sid) is not None  # paged back from disk
        store.close()

    def test_get_unknown_session_is_none(self, tmp_path, agent):
        store = DurableSessionStore(agent, tmp_path, fsync="never")
        assert store.get("424242") is None
        store.close()


class TestDurableIds:
    def test_restart_never_reissues_ids(self, tmp_path):
        path = tmp_path / "session_ids.json"
        first = DurableSessionIdAllocator(path)
        issued = [first.allocate() for _ in range(5)]
        # A crash loses the in-memory cursor; the reservation on disk
        # still fences everything that might have been handed out.
        reborn = DurableSessionIdAllocator(path)
        fresh = [reborn.allocate() for _ in range(5)]
        assert not set(issued) & set(fresh)
        assert min(fresh) > max(issued)

    def test_residue_classes_partition_workers(self, tmp_path):
        allocators = [
            DurableSessionIdAllocator(
                tmp_path / f"w{i}.json", offset=i, stride=3
            )
            for i in range(3)
        ]
        for i, allocator in enumerate(allocators):
            ids = [allocator.allocate() for _ in range(4)]
            assert all(sid % 3 == i for sid in ids)
            assert all(sid > 0 for sid in ids)

    def test_residue_class_survives_restart(self, tmp_path):
        path = tmp_path / "w1.json"
        first = DurableSessionIdAllocator(path, offset=1, stride=2)
        issued = [first.allocate() for _ in range(3)]
        reborn = DurableSessionIdAllocator(path, offset=1, stride=2)
        fresh = [reborn.allocate() for _ in range(3)]
        assert all(sid % 2 == 1 for sid in issued + fresh)
        assert min(fresh) > max(issued)

    def test_store_installs_allocator_on_agent(self, tmp_path, agent):
        store = DurableSessionStore(agent, tmp_path, fsync="never")
        assert agent.id_allocator is store.allocator
        sid, _entry = store.create()
        agent2 = build_toy_agent()
        store2 = DurableSessionStore(agent2, tmp_path, fsync="never")
        sid2, _entry2 = store2.create()
        assert int(sid2) > int(sid)
        store.close()
        store2.close()


class TestIdempotentRetries:
    def test_client_turn_id_deduplicates(self, tmp_path, agent):
        app = ConversationApp(agent, data_dir=tmp_path, fsync="never")
        status, first = app.handle("POST", "/chat", {
            "utterance": "dosage for Aspirin", "client_turn_id": "c-1",
        })
        assert status == 200
        status, retry = app.handle("POST", "/chat", {
            "utterance": "dosage for Aspirin", "client_turn_id": "c-1",
            "session_id": first["session_id"],
        })
        assert status == 200
        assert retry == first
        assert app.metrics.counter("turns_deduplicated_total").value == 1
        # The journal holds ONE committed turn, not two.
        result = read_journal(journal_path(tmp_path, first["session_id"]))
        assert len(result.records) == 1
        app.close()

    def test_dedup_survives_restart(self, tmp_path):
        agent = build_toy_agent()
        app = ConversationApp(agent, data_dir=tmp_path, fsync="never")
        _status, first = app.handle("POST", "/chat", {
            "utterance": "dosage for Aspirin", "client_turn_id": "c-1",
        })
        app.close()  # snapshot carries last_commit across the restart
        agent2 = build_toy_agent()
        app2 = ConversationApp(agent2, data_dir=tmp_path, fsync="never")
        status, retry = app2.handle("POST", "/chat", {
            "utterance": "dosage for Aspirin", "client_turn_id": "c-1",
            "session_id": first["session_id"],
        })
        assert status == 200
        assert retry["text"] == first["text"]
        assert retry["turn"] == first["turn"] == 1
        app2.close()


class TestFeedbackDurability:
    def test_feedback_after_clean_restart(self, tmp_path):
        app = ConversationApp(build_toy_agent(), data_dir=tmp_path,
                              fsync="never")
        _status, first = app.handle("POST", "/chat", {
            "utterance": "dosage for Aspirin",
        })
        sid = first["session_id"]
        status, _body = app.handle("POST", "/feedback", {
            "session_id": sid, "feedback": "down",
        })
        assert status == 200
        app.close()
        app2 = ConversationApp(build_toy_agent(), data_dir=tmp_path,
                               fsync="never")
        status, detail = app2.handle("GET", f"/session?session_id={sid}", {})
        assert status == 200
        assert [t.get("feedback") for t in detail["turns"]] == ["down"]
        status, body = app2.handle("POST", "/feedback", {
            "session_id": sid, "feedback": "up",
        })
        assert status == 200, body
        status, detail = app2.handle("GET", f"/session?session_id={sid}", {})
        assert status == 200
        assert [t.get("feedback") for t in detail["turns"]] == ["up"]
        app2.close()

    def test_feedback_on_session_without_turns_is_409(self, tmp_path, agent):
        app = ConversationApp(agent, data_dir=tmp_path, fsync="never")
        sid, _entry = app.sessions.create()
        status, body = app.handle("POST", "/feedback", {
            "session_id": sid, "feedback": "down",
        })
        assert status == 409
        assert body["error"] == "no_interaction"
        assert not journal_path(tmp_path, sid).exists()
        app.close()


class TestValidation:
    def test_bad_fsync_policy_rejected(self, tmp_path, agent):
        from repro.errors import JournalError
        with pytest.raises(JournalError):
            DurableSessionStore(agent, tmp_path, fsync="sometimes")

    def test_bad_snapshot_every_rejected(self, tmp_path, agent):
        with pytest.raises(ValueError):
            DurableSessionStore(agent, tmp_path, snapshot_every=0)
