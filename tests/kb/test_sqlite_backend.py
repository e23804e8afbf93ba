"""The SQLite KB backend: round-trip fidelity, lowering, fallback rules."""

from __future__ import annotations

import math
import sqlite3

import pytest

from repro.errors import (
    AmbiguousColumnError,
    BindingError,
    KBError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.kb import Column, Database, DataType, TableSchema
from repro.kb.backend import wrap_database
from repro.kb.sqlite_backend import META_TABLE, POSITION_COLUMN, SQLiteBackend
from tests.conftest import make_toy_database

HAS_WINDOW_FUNCTIONS = sqlite3.sqlite_version_info >= (3, 25, 0)


def make_typed_database() -> Database:
    """A KB exercising every data type plus NULLs and duplicate keys."""
    db = Database("typed")
    db.create_table(TableSchema(
        "item",
        [Column("item_id", DataType.INTEGER, nullable=False),
         Column("label", DataType.TEXT),
         Column("score", DataType.FLOAT),
         Column("active", DataType.BOOLEAN)],
        primary_key="item_id",
    ))
    rows = [
        (1, "Alpha", 1.5, True),
        (2, "beta", None, False),
        (3, None, 2.25, True),
        (4, "ALPHA", 0.5, None),
        (5, "gamma", 2.25, False),
    ]
    for item_id, label, score, active in rows:
        db.insert("item", {
            "item_id": item_id, "label": label,
            "score": score, "active": active,
        })
    return db


@pytest.fixture(scope="module")
def toy_sqlite():
    return SQLiteBackend.from_database(make_toy_database(), ":memory:")


@pytest.fixture(scope="module")
def typed_sqlite():
    return SQLiteBackend.from_database(make_typed_database(), ":memory:")


class TestRoundTrip:
    def test_schema_and_metadata_survive(self, toy_db, toy_sqlite):
        assert toy_sqlite.name == toy_db.name
        assert toy_sqlite.generation == toy_db.generation
        assert toy_sqlite.schema_generation == toy_db.schema_generation
        assert sorted(toy_sqlite.table_names()) == sorted(toy_db.table_names())
        for name in toy_db.table_names():
            assert toy_sqlite.has_table(name)
            assert (
                toy_sqlite.schema()[name.lower()].column_names()
                == toy_db.table(name).schema.column_names()
            )

    def test_rows_identical_per_table(self, toy_db, toy_sqlite):
        for name in toy_db.table_names():
            assert toy_sqlite.table(name).rows == toy_db.table(name).rows

    def test_types_survive_exactly(self, typed_sqlite):
        result = typed_sqlite.query(
            "SELECT item_id, label, score, active FROM item ORDER BY item_id"
        )
        reference = make_typed_database().query(
            "SELECT item_id, label, score, active FROM item ORDER BY item_id"
        )
        typed = [[(type(v).__name__, v) for v in row] for row in result.rows]
        expected = [[(type(v).__name__, v) for v in row] for row in reference.rows]
        assert typed == expected  # bools are bools again, not 0/1

    def test_statistics_match(self, toy_db, toy_sqlite):
        assert (
            toy_sqlite.statistics("drug").row_count
            == toy_db.statistics("drug").row_count
        )
        assert set(toy_sqlite.all_statistics()) == set(toy_db.all_statistics())

    def test_file_round_trip(self, tmp_path):
        db = make_typed_database()
        path = tmp_path / "kb.db"
        SQLiteBackend.from_database(db, path).close()
        reopened = SQLiteBackend(path)
        assert reopened.query(
            "SELECT label FROM item WHERE active = TRUE ORDER BY item_id"
        ) == db.query(
            "SELECT label FROM item WHERE active = TRUE ORDER BY item_id"
        )
        reopened.close()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(KBError, match="no SQLite KB database"):
            SQLiteBackend(tmp_path / "absent.db")

    def test_foreign_file_raises(self, tmp_path):
        path = tmp_path / "foreign.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        with pytest.raises(KBError, match="not a repro KB"):
            SQLiteBackend(path)


class TestReservedNames:
    def test_reserved_table_name(self):
        db = Database("bad")
        db.create_table(TableSchema(
            META_TABLE, [Column("x", DataType.INTEGER)]
        ))
        with pytest.raises(KBError, match="reserved"):
            SQLiteBackend.from_database(db, ":memory:")

    def test_reserved_column_name(self):
        db = Database("bad")
        db.create_table(TableSchema(
            "t", [Column(POSITION_COLUMN, DataType.INTEGER)]
        ))
        with pytest.raises(KBError, match="reserved"):
            SQLiteBackend.from_database(db, ":memory:")


class TestExecutionPaths:
    def path_of(self, backend, sql: str) -> str:
        explain = backend.explain(sql)
        assert "backend sqlite" in explain.splitlines()[0]
        return "lowered" if "path=lowered" in explain else explain

    def test_simple_select_lowers(self, toy_sqlite):
        assert self.path_of(
            toy_sqlite, "SELECT name FROM drug WHERE drug_id = :id"
        ) == "lowered"

    def test_join_lowers(self, toy_sqlite):
        assert self.path_of(
            toy_sqlite,
            "SELECT d.name, i.name FROM drug d "
            "JOIN treats t ON t.drug_id = d.drug_id "
            "JOIN indication i ON i.ind_id = t.ind_id "
            "WHERE d.name = :drug",
        ) == "lowered"

    @pytest.mark.skipif(not HAS_WINDOW_FUNCTIONS,
                        reason="DISTINCT lowering needs SQLite >= 3.25")
    def test_distinct_lowers(self, toy_sqlite):
        assert self.path_of(
            toy_sqlite, "SELECT DISTINCT description FROM precaution"
        ) == "lowered"

    def test_group_by_falls_back(self, toy_sqlite):
        plan = toy_sqlite.prepare(
            "SELECT description, COUNT(*) AS n FROM precaution "
            "GROUP BY description ORDER BY n DESC"
        )
        assert plan.lowered_sql is None
        assert "GROUP BY" in plan.fallback_reason
        assert "path=fallback" in plan.explain()

    def test_aggregate_falls_back(self, toy_sqlite):
        plan = toy_sqlite.prepare("SELECT COUNT(*) FROM drug")
        assert plan.lowered_sql is None
        assert "aggregation" in plan.fallback_reason

    def test_like_over_boolean_falls_back(self, typed_sqlite):
        plan = typed_sqlite.prepare(
            "SELECT item_id FROM item WHERE active LIKE '%t%'"
        )
        assert plan.lowered_sql is None
        assert "boolean" in plan.fallback_reason

    def test_cross_type_comparison_falls_back(self, typed_sqlite):
        plan = typed_sqlite.prepare(
            "SELECT item_id FROM item WHERE label = 5"
        )
        assert plan.lowered_sql is None
        assert "cross-type" in plan.fallback_reason

    def test_param_to_param_falls_back(self, toy_sqlite):
        plan = toy_sqlite.prepare(
            "SELECT name FROM drug WHERE :a = :b"
        )
        assert plan.lowered_sql is None
        assert "parameter-to-parameter" in plan.fallback_reason

    def test_fallback_matches_reference(self, toy_db, toy_sqlite):
        sql = (
            "SELECT description, COUNT(*) AS n FROM precaution "
            "GROUP BY description ORDER BY n DESC"
        )
        assert toy_sqlite.query(sql) == toy_db.query(sql)

    def test_paths_counter(self):
        backend = SQLiteBackend.from_database(make_toy_database(), ":memory:")
        backend.query("SELECT name FROM drug", {})
        backend.query("SELECT COUNT(*) FROM drug", {})
        assert backend.execution_paths() == {"sql": 1, "fallback": 1}


class TestExecuteTimeReroutes:
    """Per-call fallbacks: the plan is lowered but this binding is not."""

    def reference(self):
        return make_typed_database()

    def test_mistyped_param_reroutes(self, typed_sqlite):
        plan = typed_sqlite.prepare(
            "SELECT item_id FROM item WHERE item_id = :id"
        )
        assert plan.lowered_sql is not None
        # '3' vs integer column: SQLite affinity would coerce to a match,
        # the reference says a text/number comparison is simply false.
        result = plan.execute({"id": "3"})
        assert result.rows == []
        assert result == self.reference().query(
            "SELECT item_id FROM item WHERE item_id = :id", {"id": "3"}
        )
        assert plan.fallback_executions == 1
        assert plan.execute({"id": 3}).rows == [(3,)]
        assert plan.lowered_executions == 1

    def test_missing_param_raises_like_reference(self, typed_sqlite):
        plan = typed_sqlite.prepare(
            "SELECT item_id FROM item WHERE item_id = :id"
        )
        with pytest.raises(BindingError, match="missing parameter"):
            plan.execute({})
        with pytest.raises(BindingError, match="missing parameter"):
            self.reference().query("SELECT item_id FROM item WHERE item_id = :id")

    def test_nan_param_reroutes(self, typed_sqlite):
        plan = typed_sqlite.prepare(
            "SELECT item_id FROM item WHERE score = :s"
        )
        assert plan.lowered_sql is not None
        result = plan.execute({"s": math.nan})
        assert result == self.reference().query(
            "SELECT item_id FROM item WHERE score = :s", {"s": math.nan}
        )
        assert plan.fallback_executions == 1

    def test_bool_param_binds_on_lowered_path(self, typed_sqlite):
        plan = typed_sqlite.prepare(
            "SELECT item_id FROM item WHERE active = :a ORDER BY item_id"
        )
        result = plan.execute({"a": True})
        assert result.rows == [(1,), (3,)]
        assert plan.lowered_executions == 1
        assert plan.execute({"a": 1}).rows == []  # int 1 is not True here
        assert plan.fallback_executions == 1


class TestErrorParity:
    def test_unknown_table_at_prepare(self, toy_sqlite):
        with pytest.raises(UnknownTableError):
            toy_sqlite.prepare("SELECT x FROM nothing")

    def test_ambiguous_column_same_phase_as_reference(self, toy_db, toy_sqlite):
        # Every column reference binds at prepare, the projection too,
        # so both backends reject the query before it ever executes.
        sql = (
            "SELECT drug_id FROM drug d "
            "JOIN treats t ON t.drug_id = d.drug_id"
        )
        for backend in (toy_db, toy_sqlite):
            with pytest.raises(AmbiguousColumnError):
                backend.prepare(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT nope FROM drug",
        "SELECT d.name FROM drug d ORDER BY d.nope",
        "SELECT d.name FROM drug d JOIN treats t ON d.nope = t.drug_id",
        "SELECT COUNT(nope) FROM drug",
        "SELECT name FROM drug GROUP BY nope",
    ], ids=["projection", "order-by", "join-condition", "aggregate", "group-by"])
    def test_unknown_column_at_prepare_on_both_backends(
        self, toy_db, toy_sqlite, sql
    ):
        for backend in (toy_db, toy_sqlite):
            with pytest.raises(UnknownColumnError, match="nope"):
                backend.prepare(sql)

    def test_first_failure_follows_clause_order(self, toy_db, toy_sqlite):
        # WHERE, then JOIN conditions, then projection, GROUP BY, ORDER BY.
        sql = (
            "SELECT p_bad FROM drug d JOIN treats t ON d.j_bad = t.drug_id "
            "WHERE w_bad = 1 ORDER BY o_bad"
        )
        for backend in (toy_db, toy_sqlite):
            with pytest.raises(UnknownColumnError, match="w_bad"):
                backend.prepare(sql)
        sql = "SELECT p_bad FROM drug d JOIN treats t ON d.j_bad = t.drug_id"
        for backend in (toy_db, toy_sqlite):
            with pytest.raises(UnknownColumnError, match="j_bad"):
                backend.prepare(sql)

    def test_ambiguous_where_column_at_prepare(self, toy_sqlite):
        with pytest.raises(AmbiguousColumnError):
            toy_sqlite.prepare(
                "SELECT d.name FROM drug d "
                "JOIN treats t ON t.drug_id = d.drug_id "
                "WHERE drug_id = :id"
            )


class TestReadOnly:
    def test_mutators_raise(self, toy_sqlite):
        with pytest.raises(KBError, match="read-only"):
            toy_sqlite.insert("drug", {"drug_id": 99, "name": "X"})
        with pytest.raises(KBError, match="read-only"):
            toy_sqlite.insert_many("drug", [])
        with pytest.raises(KBError, match="read-only"):
            toy_sqlite.create_table(None)
