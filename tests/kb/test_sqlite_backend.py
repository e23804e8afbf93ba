"""The SQLite KB file (``kb.db``): ``save_sqlite``/``load_sqlite`` round trips.

SQLite is the KB's file format, not an executor: a database written by
:func:`save_sqlite` loads back through :func:`load_sqlite` into the
in-memory engine with the same schema, the same rows in the same order
and the same runtime types.  Any SQLite file with declared column types
loads, whoever wrote it.
"""

from __future__ import annotations

import importlib.util
import sqlite3
from pathlib import Path

import pytest

from repro.errors import (
    AmbiguousColumnError,
    KBError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.kb import Column, Database, DataType, TableSchema
from repro.kb.io import load_sqlite, save_sqlite
from repro.medical import build_mdx_database
from tests.conftest import make_toy_database

REPO_ROOT = Path(__file__).resolve().parents[2]


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
        (5, "gamma", 2.0, False),
    ]
    for item_id, label, score, active in rows:
        db.insert("item", {
            "item_id": item_id, "label": label,
            "score": score, "active": active,
        })
    return db


def typed(rows) -> list[list[tuple[str, object]]]:
    return [[(type(v).__name__, v) for v in row] for row in rows]


def round_trip(db: Database, directory: Path) -> Database:
    return load_sqlite(save_sqlite(db, directory / "kb.db"))


def schemas(db: Database) -> list[TableSchema]:
    """Every table's schema (columns, types, keys), in creation order."""
    return [table.schema for table in db.tables()]


def assert_same_database(original: Database, loaded: Database) -> None:
    """Equal schemas in the same order; equal typed rows in order."""
    assert schemas(loaded) == schemas(original)
    for table in original.tables():
        assert typed(loaded.table(table.name).rows) == typed(table.rows)


def write_plain_file(path: Path, *statements: str) -> Path:
    """A SQLite file made with plain DDL and DML, not written by repro."""
    connection = sqlite3.connect(path)
    with connection:
        for statement in statements:
            connection.execute(statement)
    connection.close()
    return path


@pytest.fixture(scope="module")
def toy_loaded(tmp_path_factory) -> Database:
    return round_trip(make_toy_database(), tmp_path_factory.mktemp("toy"))


class TestRoundTrip:
    def test_schema_and_metadata_survive(self, toy_db, toy_loaded):
        assert toy_loaded.name == "kb"  # the file's stem
        assert toy_loaded.table_names() == toy_db.table_names()
        assert schemas(toy_loaded) == schemas(toy_db)

    def test_rows_identical_per_table(self, toy_db, toy_loaded):
        for name in toy_db.table_names():
            assert toy_loaded.table(name).rows == toy_db.table(name).rows

    def test_types_survive_exactly(self, tmp_path):
        loaded = round_trip(make_typed_database(), tmp_path)
        # Booleans are bools again, not 0/1; 2.0 stays a float.
        assert typed(loaded.table("item").rows) == typed(
            make_typed_database().table("item").rows
        )

    def test_statistics_match(self, toy_db, toy_loaded):
        assert toy_loaded.all_statistics() == toy_db.all_statistics()

    def test_file_round_trip(self, tmp_path):
        db = make_typed_database()
        reopened = round_trip(db, tmp_path)
        sql = "SELECT label FROM item WHERE active = TRUE ORDER BY item_id"
        assert reopened.query(sql) == db.query(sql)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(KBError, match="no SQLite KB file"):
            load_sqlite(tmp_path / "absent.db")

    def test_foreign_file_raises(self, tmp_path):
        path = tmp_path / "kb.db"
        path.write_text("drug_id,name\n1,Aspirin\n", encoding="utf-8")
        with pytest.raises(KBError, match="could not read"):
            load_sqlite(path)

    def test_mdx_kb_round_trips(self, tmp_path):
        db = build_mdx_database()
        assert_same_database(db, round_trip(db, tmp_path))

    def test_movie_example_kb_round_trips(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "movie_kb", REPO_ROOT / "examples" / "movie_kb.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        db = module.build_movie_database()
        assert_same_database(db, round_trip(db, tmp_path))

    def test_file_holds_only_the_tables_as_declared(self, tmp_path):
        path = save_sqlite(make_typed_database(), tmp_path / "kb.db")
        connection = sqlite3.connect(path)
        names = connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchall()
        columns = connection.execute(
            "SELECT name, type, \"notnull\", pk FROM pragma_table_info('item')"
        ).fetchall()
        connection.close()
        assert names == [("item",)]
        assert columns == [
            ("item_id", "INT", 1, 1), ("label", "TEXT", 0, 0),
            ("score", "REAL", 0, 0), ("active", "BOOLEAN", 0, 0),
        ]


class TestWriteOrder:
    def test_out_of_order_integer_keys_keep_write_order(self, tmp_path):
        db = Database("order")
        db.create_table(TableSchema(
            "t", [Column("id", DataType.INTEGER, nullable=False),
                  Column("name", DataType.TEXT)],
            primary_key="id",
        ))
        for key in (30, 10, 20, -5):
            db.insert("t", {"id": key, "name": f"n{key}"})
        loaded = round_trip(db, tmp_path)
        assert [row[0] for row in loaded.table("t").rows] == [30, 10, 20, -5]


class TestForeignFiles:
    def test_plain_ddl_file_loads_with_keys(self, tmp_path):
        path = write_plain_file(
            tmp_path / "shop.db",
            # Created child first: FK targets need not precede them.
            "CREATE TABLE item (item_id INTEGER PRIMARY KEY, "
            "maker_id INTEGER REFERENCES maker, price DOUBLE, "
            "title VARCHAR(40) NOT NULL, in_stock BOOL)",
            "CREATE TABLE maker (maker_id BIGINT PRIMARY KEY, name TEXT)",
            "INSERT INTO maker VALUES (2, 'Acme'), (1, 'Bolt')",
            "INSERT INTO item VALUES (7, 2, 3, 'Anvil', 1), "
            "(5, 1, 2.5, 'Nut', 0), (6, NULL, NULL, 'Gift', NULL)",
        )
        db = load_sqlite(path)
        assert db.name == "shop"
        assert db.table_names() == ["maker", "item"]
        item = db.table("item").schema
        assert item.primary_key == "item_id"
        fk = item.foreign_key_for("maker_id")
        assert (fk.referenced_table, fk.referenced_column) == (
            "maker", "maker_id"
        )
        assert [(c.name, c.data_type, c.nullable) for c in item.columns] == [
            ("item_id", DataType.INTEGER, True),
            ("maker_id", DataType.INTEGER, True),
            ("price", DataType.FLOAT, True),
            ("title", DataType.TEXT, False),
            ("in_stock", DataType.BOOLEAN, True),
        ]
        # INTEGER PRIMARY KEY aliases rowid: the file's order is key order.
        assert typed(db.table("item").rows) == typed([
            (5, 1, 2.5, "Nut", False),
            (6, None, None, "Gift", None),
            (7, 2, 3.0, "Anvil", True),
        ])
        assert db.query(
            "SELECT m.name FROM item i JOIN maker m ON i.maker_id = m.maker_id "
            "WHERE i.title = :t", {"t": "anvil"}
        ).rows == [("Acme",)]

    def test_untyped_column_raises(self, tmp_path):
        path = write_plain_file(
            tmp_path / "old.db", "CREATE TABLE drug (drug_id INT, name)"
        )
        with pytest.raises(KBError, match=r"drug\.name has no declared type.*re-export"):
            load_sqlite(path)


class TestErrorParity:
    """The built KB and its kb.db reload reject bad SQL alike, at prepare."""

    @pytest.fixture(scope="class")
    def both(self, toy_db, toy_loaded):
        return toy_db, toy_loaded.freeze()

    def test_unknown_table_at_prepare(self, both):
        for backend in both:
            with pytest.raises(UnknownTableError):
                backend.prepare("SELECT x FROM nothing")

    def test_ambiguous_column_same_phase_as_reference(self, both):
        # Every column reference binds at prepare, the projection too.
        sql = (
            "SELECT drug_id FROM drug d "
            "JOIN treats t ON t.drug_id = d.drug_id"
        )
        for backend in both:
            with pytest.raises(AmbiguousColumnError):
                backend.prepare(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT nope FROM drug",
        "SELECT d.name FROM drug d ORDER BY d.nope",
        "SELECT d.name FROM drug d JOIN treats t ON d.nope = t.drug_id",
        "SELECT COUNT(nope) FROM drug",
        "SELECT name FROM drug GROUP BY nope",
    ], ids=["projection", "order-by", "join-condition", "aggregate", "group-by"])
    def test_unknown_column_at_prepare_on_both_backends(self, both, sql):
        for backend in both:
            with pytest.raises(UnknownColumnError, match="nope"):
                backend.prepare(sql)

    def test_first_failure_follows_clause_order(self, both):
        # WHERE, then JOIN conditions, then projection, GROUP BY, ORDER BY.
        sql = (
            "SELECT p_bad FROM drug d JOIN treats t ON d.j_bad = t.drug_id "
            "WHERE w_bad = 1 ORDER BY o_bad"
        )
        for backend in both:
            with pytest.raises(UnknownColumnError, match="w_bad"):
                backend.prepare(sql)
        sql = "SELECT p_bad FROM drug d JOIN treats t ON d.j_bad = t.drug_id"
        for backend in both:
            with pytest.raises(UnknownColumnError, match="j_bad"):
                backend.prepare(sql)

    def test_ambiguous_where_column_at_prepare(self, both):
        for backend in both:
            with pytest.raises(AmbiguousColumnError):
                backend.prepare(
                    "SELECT d.name FROM drug d "
                    "JOIN treats t ON t.drug_id = d.drug_id "
                    "WHERE drug_id = :id"
                )


class TestReservedNames:
    """The file reserves no names; SQL keywords survive through quoting."""

    def test_reserved_table_name(self, tmp_path):
        db = Database("keywords")
        db.create_table(TableSchema("order", [Column("x", DataType.INTEGER)]))
        db.insert("order", {"x": 1})
        assert round_trip(db, tmp_path).table("order").rows == [(1,)]

    def test_reserved_column_name(self, tmp_path):
        db = Database("keywords")
        db.create_table(TableSchema(
            "t", [Column("select", DataType.TEXT),
                  Column("_repro_pos_", DataType.INTEGER)]
        ))
        db.insert("t", {"select": "a", "_repro_pos_": 9})
        loaded = round_trip(db, tmp_path)
        assert loaded.table("t").schema.column_names() == ["select", "_repro_pos_"]
        assert loaded.table("t").rows == [("a", 9)]


class TestWriteErrors:
    def test_oversized_integer_raises(self, tmp_path):
        db = Database("big")
        db.create_table(TableSchema("t", [Column("x", DataType.INTEGER)]))
        db.insert("t", {"x": 2**70})
        with pytest.raises(KBError, match="could not write"):
            save_sqlite(db, tmp_path / "kb.db")
        assert not (tmp_path / "kb.db").exists()


class TestReadOnly:
    def test_mutators_raise(self, tmp_path):
        # ``check --artifacts`` checks a loaded file frozen, as a server
        # serves it.
        loaded = round_trip(make_toy_database(), tmp_path).freeze()
        with pytest.raises(KBError, match="frozen"):
            loaded.insert("drug", {"drug_id": 99, "name": "X"})
        with pytest.raises(KBError, match="frozen"):
            loaded.insert_many("drug", [])
        with pytest.raises(KBError, match="frozen"):
            loaded.create_table(None)
        with pytest.raises(KBError, match="frozen"):
            loaded.table("drug").insert({"drug_id": 99, "name": "X"})
