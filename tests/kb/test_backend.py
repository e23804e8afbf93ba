"""The KBBackend seam: protocol conformance, snapshots, the swap handle."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from repro.errors import KBError
from repro.kb.backend import (
    EPOCH_STRIDE,
    KBBackend,
    KBHandle,
    KBSnapshot,
    wrap_database,
)
from repro.kb.database import Database
from repro.kb.io import load_sqlite, save_sqlite
from tests.conftest import make_toy_database


def reloaded(db: Database) -> KBSnapshot:
    """``db`` written to a kb.db and read back, as ``check --kb`` does."""
    with tempfile.TemporaryDirectory() as directory:
        return KBSnapshot(load_sqlite(save_sqlite(db, Path(directory) / "kb.db")))


class TestProtocolConformance:
    """Every shipped implementation satisfies KBBackend structurally."""

    @pytest.mark.parametrize("build", [
        lambda db: db,
        lambda db: KBSnapshot(db),
        lambda db: KBHandle(KBSnapshot(db)),
        reloaded,
    ], ids=["database", "snapshot", "handle", "sqlite"])
    def test_satisfies_protocol(self, build):
        backend = build(make_toy_database())
        assert isinstance(backend, KBBackend)


class TestKBSnapshot:
    def test_reads_delegate(self, toy_db):
        snap = KBSnapshot(toy_db)
        assert snap.name == toy_db.name
        assert snap.table_names() == toy_db.table_names()
        assert snap.generation == toy_db.generation
        assert snap.schema_generation == toy_db.schema_generation
        reference = toy_db.query("SELECT name FROM drug ORDER BY name")
        assert snap.query("SELECT name FROM drug ORDER BY name") == reference

    def test_mutators_raise(self, toy_db):
        snap = KBSnapshot(toy_db)
        with pytest.raises(KBError, match="immutable"):
            snap.insert("drug", {"drug_id": 99, "name": "X"})
        with pytest.raises(KBError, match="immutable"):
            snap.insert_many("drug", [])
        with pytest.raises(KBError, match="immutable"):
            snap.create_table(None)

    def test_snapshot_of_snapshot_unwraps(self, toy_db):
        snap = KBSnapshot(KBSnapshot(toy_db))
        assert snap.wrapped is toy_db

    def test_rejects_non_database(self):
        with pytest.raises(KBError, match="KBSnapshot wraps"):
            KBSnapshot(object())


class TestKBHandle:
    def test_initial_state(self, toy_db):
        handle = KBHandle(KBSnapshot(toy_db))
        assert handle.epoch == 0
        assert handle.refreshes == 0
        assert handle.generation == toy_db.generation
        assert handle.schema_generation == toy_db.schema_generation

    def test_swap_installs_new_backend(self):
        first = make_toy_database()
        handle = KBHandle(KBSnapshot(first))
        before = handle.query("SELECT name FROM drug ORDER BY name")

        second = make_toy_database()
        second.insert("drug", {"drug_id": 99, "name": "Zafirlukast"})
        epoch = handle.swap(KBSnapshot(second))

        assert epoch == 1
        assert handle.epoch == 1
        assert handle.refreshes == 1
        after = handle.query("SELECT name FROM drug ORDER BY name")
        assert len(after.rows) == len(before.rows) + 1
        assert handle.backend.wrapped is second

    def test_generation_is_strictly_monotonic_across_swaps(self):
        big = make_toy_database()
        handle = KBHandle(KBSnapshot(big))
        old_generation = handle.generation

        # The replacement KB is *smaller*, so its own local generation
        # counter is lower — the naive comparison would go backwards.
        small = Database("toy")
        assert small.generation < big.generation
        handle.swap(KBSnapshot(small))

        assert handle.generation > old_generation
        assert handle.generation == EPOCH_STRIDE + small.generation
        assert handle.schema_generation == EPOCH_STRIDE + small.schema_generation

    def test_handle_cannot_nest(self, toy_db):
        handle = KBHandle(KBSnapshot(toy_db))
        with pytest.raises(KBError, match="cannot wrap"):
            KBHandle(handle)
        with pytest.raises(KBError, match="cannot swap"):
            handle.swap(KBHandle(KBSnapshot(toy_db)))

    def test_inflight_plan_keeps_old_backend_after_swap(self):
        first = make_toy_database()
        handle = KBHandle(KBSnapshot(first))
        plan = handle.prepare("SELECT name FROM drug ORDER BY name")
        before = plan.execute({})

        second = make_toy_database()
        second.insert("drug", {"drug_id": 99, "name": "Zafirlukast"})
        handle.swap(KBSnapshot(second))

        # The already-prepared plan captured the old backend and keeps
        # returning the old snapshot's rows; new prepares see the new KB.
        assert plan.execute({}) == before
        after = handle.query("SELECT name FROM drug ORDER BY name")
        assert len(after.rows) == len(before.rows) + 1


class TestFactories:
    def test_wrap_memory(self, toy_db):
        backend = wrap_database(toy_db)
        assert isinstance(backend, KBSnapshot)
        assert backend.wrapped is toy_db

    def test_export_then_open_round_trip(self, tmp_path):
        db = make_toy_database()
        reopened = KBSnapshot(load_sqlite(save_sqlite(db, tmp_path / "toy.db")))
        assert reopened.name == "toy"  # the file's stem
        assert reopened.table_names() == db.table_names()
        reference = db.query("SELECT name, brand FROM drug ORDER BY name")
        assert reopened.query(
            "SELECT name, brand FROM drug ORDER BY name"
        ) == reference
