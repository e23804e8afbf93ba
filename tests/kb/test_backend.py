"""The swap handle and the rule it serves under: a served KB is frozen.

Freezing is permanent, so these tests build their own databases rather
than freeze the session-wide ``toy_db``.
"""

from __future__ import annotations

import pytest

from repro.errors import KBError
from repro.kb import Column, DataType, TableSchema
from repro.kb.backend import KBHandle, wrap_database
from repro.kb.database import Database
from repro.kb.io import load_sqlite, save_sqlite
from tests.conftest import make_toy_database

ALL_DRUGS = "SELECT name FROM drug ORDER BY name"


def assert_every_mutator_raises(db: Database) -> None:
    rows = list(db.table("drug").rows)
    with pytest.raises(KBError, match="frozen"):
        db.insert("drug", {"drug_id": 99, "name": "X"})
    with pytest.raises(KBError, match="frozen"):
        db.insert_many("drug", [{"drug_id": 99, "name": "X"}])
    with pytest.raises(KBError, match="frozen"):
        db.insert_many("drug", [])
    with pytest.raises(KBError, match="frozen"):
        db.create_table(TableSchema("extra", [Column("a", DataType.INTEGER)]))
    # A raw table handle bypasses Database.insert; it is frozen too.
    with pytest.raises(KBError, match="frozen"):
        db.table("drug").insert({"drug_id": 99, "name": "X"})
    assert db.table("drug").rows == rows
    assert not db.has_table("extra")


class TestFreeze:
    def test_mutators_raise(self):
        served = make_toy_database()
        handle = KBHandle(served)
        assert_every_mutator_raises(served)
        swapped_in = make_toy_database()
        handle.swap(swapped_in)
        assert_every_mutator_raises(swapped_in)

    def test_frozen_database_still_answers(self):
        db = make_toy_database()
        reference = db.query(ALL_DRUGS)
        assert db.freeze() is db
        assert db.freeze() is db  # idempotent
        assert db.query(ALL_DRUGS) == reference
        # Lazily built indexes are a cache, not a write.
        assert db.table("drug").secondary_index("name")


class TestKBHandle:
    def test_initial_state(self):
        db = make_toy_database()
        handle = KBHandle(db)
        assert handle.epoch == 0
        assert handle.backend is db

    def test_swap_installs_new_backend(self):
        first = make_toy_database()
        handle = KBHandle(first)
        before = handle.query(ALL_DRUGS)

        second = make_toy_database()
        second.insert("drug", {"drug_id": 99, "name": "Zafirlukast"})
        epoch = handle.swap(second)

        assert epoch == 1
        assert handle.epoch == 1
        after = handle.query(ALL_DRUGS)
        assert len(after.rows) == len(before.rows) + 1
        assert handle.backend is second

    def test_generation_is_strictly_monotonic_across_swaps(self):
        # Each swap installs the next KB generation and bumps the epoch
        # by one, whatever the size of the replacement: a smaller KB
        # (fewer tables and rows) never moves the tag backwards.
        handle = KBHandle(make_toy_database())
        epochs = [handle.epoch]
        for replacement in (Database("toy"), make_toy_database()):
            epochs.append(handle.swap(replacement))
            assert handle.epoch == epochs[-1]
        assert epochs == [0, 1, 2]

    def test_handle_cannot_nest(self):
        db = make_toy_database()
        handle = KBHandle(db)
        with pytest.raises(KBError, match="serves a Database; got KBHandle"):
            KBHandle(handle)
        with pytest.raises(KBError, match="serves a Database; got KBHandle"):
            handle.swap(KBHandle(make_toy_database()))
        assert handle.epoch == 0

    def test_rejects_non_database(self):
        db = make_toy_database()
        with pytest.raises(KBError, match="serves a Database; got object"):
            KBHandle(object())
        handle = KBHandle(db)
        with pytest.raises(KBError, match="serves a Database; got object"):
            handle.swap(object())

    def test_inflight_plan_keeps_old_backend_after_swap(self):
        first = make_toy_database()
        handle = KBHandle(first)
        plan = handle.prepare(ALL_DRUGS)
        before = plan.execute({})

        second = make_toy_database()
        second.insert("drug", {"drug_id": 99, "name": "Zafirlukast"})
        handle.swap(second)

        # The already-prepared plan captured the old database and keeps
        # returning its rows; new prepares see the new KB.
        assert plan.execute({}) == before
        after = handle.query(ALL_DRUGS)
        assert len(after.rows) == len(before.rows) + 1


class TestFactories:
    def test_wrap_memory(self):
        db = make_toy_database()
        assert wrap_database(db) is db
        assert_every_mutator_raises(db)

    def test_export_then_open_round_trip(self, tmp_path):
        db = make_toy_database()
        reopened = load_sqlite(save_sqlite(db, tmp_path / "toy.db")).freeze()
        assert reopened.name == "toy"  # the file's stem
        assert reopened.table_names() == db.table_names()
        reference = db.query("SELECT name, brand FROM drug ORDER BY name")
        assert reopened.query(
            "SELECT name, brand FROM drug ORDER BY name"
        ) == reference
