"""Tests for the database catalog and referential integrity."""

import pytest

from repro.errors import IntegrityError, KBError, SchemaError, UnknownTableError
from repro.kb import Column, Database, DataType, ForeignKey, TableSchema


@pytest.fixture
def db() -> Database:
    database = Database()
    database.create_table(TableSchema(
        "drug",
        [Column("drug_id", DataType.INTEGER, nullable=False),
         Column("name", DataType.TEXT)],
        primary_key="drug_id",
    ))
    database.create_table(TableSchema(
        "precaution",
        [Column("p_id", DataType.INTEGER, nullable=False),
         Column("drug_id", DataType.INTEGER),
         Column("description", DataType.TEXT)],
        primary_key="p_id",
        foreign_keys=[ForeignKey("drug_id", "drug", "drug_id")],
    ))
    return database


class TestCatalog:
    def test_duplicate_table_rejected(self, db):
        with pytest.raises(SchemaError, match="already exists"):
            db.create_table(TableSchema("DRUG", [Column("x", DataType.INTEGER)]))

    def test_unknown_table_lookup(self, db):
        with pytest.raises(UnknownTableError):
            db.table("nope")

    def test_table_names_in_creation_order(self, db):
        assert db.table_names() == ["drug", "precaution"]

    def test_has_table_case_insensitive(self, db):
        assert db.has_table("Drug")

    def test_fk_to_unknown_table_rejected(self, db):
        with pytest.raises(SchemaError, match="unknown"):
            db.create_table(TableSchema(
                "bad",
                [Column("x", DataType.INTEGER)],
                foreign_keys=[ForeignKey("x", "ghost", "id")],
            ))

    def test_fk_must_reference_primary_key(self, db):
        with pytest.raises(SchemaError, match="primary key"):
            db.create_table(TableSchema(
                "bad",
                [Column("x", DataType.INTEGER)],
                foreign_keys=[ForeignKey("x", "drug", "name")],
            ))

    def test_self_referencing_fk_allowed(self):
        db = Database()
        db.create_table(TableSchema(
            "node",
            [Column("node_id", DataType.INTEGER, nullable=False),
             Column("parent_id", DataType.INTEGER)],
            primary_key="node_id",
            foreign_keys=[ForeignKey("parent_id", "node", "node_id")],
        ))
        db.insert("node", {"node_id": 1, "parent_id": None})
        db.insert("node", {"node_id": 2, "parent_id": 1})


class TestIntegrity:
    def test_fk_violation_rejected(self, db):
        with pytest.raises(IntegrityError, match="foreign key violation"):
            db.insert("precaution", {"p_id": 1, "drug_id": 99, "description": "x"})

    def test_fk_null_allowed(self, db):
        db.insert("precaution", {"p_id": 1, "drug_id": None, "description": "x"})

    def test_fk_satisfied(self, db):
        db.insert("drug", {"drug_id": 1, "name": "Aspirin"})
        db.insert("precaution", {"p_id": 1, "drug_id": 1, "description": "x"})
        assert len(db.table("precaution")) == 1

    def test_failed_insert_leaves_table_unchanged(self, db):
        with pytest.raises(IntegrityError):
            db.insert("precaution", {"p_id": 1, "drug_id": 99})
        assert len(db.table("precaution")) == 0

    def test_insert_many(self, db):
        count = db.insert_many("drug", [
            {"drug_id": 1, "name": "A"},
            {"drug_id": 2, "name": "B"},
        ])
        assert count == 2


# -- insert semantics, pinned through every insert entry point ---------------

_ITEM_COLUMNS = ("item_id", "qty", "price", "name", "active", "drug_id")


def _item_db() -> Database:
    """``drug`` (row 1) and ``item`` (row 1, FK to ``drug``).  The PK
    column is nullable so that the primary-key NULL check is reached."""
    database = Database()
    database.create_table(TableSchema(
        "drug", [Column("drug_id", DataType.INTEGER, nullable=False)],
        primary_key="drug_id",
    ))
    database.create_table(TableSchema(
        "item",
        [Column("item_id", DataType.INTEGER),
         Column("qty", DataType.INTEGER),
         Column("price", DataType.FLOAT),
         Column("name", DataType.TEXT, nullable=False),
         Column("active", DataType.BOOLEAN),
         Column("drug_id", DataType.INTEGER)],
        primary_key="item_id",
        foreign_keys=[ForeignKey("drug_id", "drug", "drug_id")],
    ))
    database.insert("drug", {"drug_id": 1})
    database.insert("item", (1, 1, 1.0, "one", True, 1))
    return database


def _stored(*values):
    return ("ok", [(type(v).__name__, v) for v in values])


_VALID = {"item_id": 5, "qty": 2, "price": 2.5, "name": "x",
          "active": False, "drug_id": 1}

# (case id, row, expected); a row given as a dict is also inserted
# positionally (values in column order, missing ones NULL) unless it has
# keys that are not columns, and a tuple is inserted as given.  An
# expected value keyed by "db"/"table" differs between the database's
# inserts (which check foreign keys) and Table.insert (which does not).
_INSERT_CASES = [
    ("valid", _VALID, _stored(5, 2, 2.5, "x", False, 1)),
    ("mixed_case_keys", {"ITEM_ID": 5, "Name": "x"},
     _stored(5, None, None, "x", None, None)),
    ("unknown_columns", {"item_id": 5, "zeta": 1, "name": "x", "Alpha": 2},
     (IntegrityError, "table 'item': unknown columns ['zeta', 'Alpha']")),
    ("wrong_arity", (5, 2, "x"),
     (IntegrityError, "table 'item': expected 6 values, got 3")),
    ("not_null", {**_VALID, "name": None},
     (IntegrityError, "table 'item': column 'name' is NOT NULL")),
    ("bool_into_integer", {**_VALID, "qty": True},
     (IntegrityError, "column 'qty': expected integer, got bool")),
    ("first_bad_column_wins", {**_VALID, "qty": True, "name": None},
     (IntegrityError, "column 'qty': expected integer, got bool")),
    ("non_integral_float", {**_VALID, "qty": 2.5},
     (IntegrityError, "column 'qty': cannot coerce 2.5 to integer")),
    ("integral_float", {**_VALID, "qty": 4.0},
     _stored(5, 4, 2.5, "x", False, 1)),
    ("numeric_strings", {**_VALID, "qty": "7", "price": "2.5"},
     _stored(5, 7, 2.5, "x", False, 1)),
    ("non_numeric_string", {**_VALID, "price": "cheap"},
     (IntegrityError, "column 'price': cannot coerce 'cheap' to float")),
    ("int_widens_to_float", {**_VALID, "price": 3},
     _stored(5, 2, 3.0, "x", False, 1)),
    ("bool_into_float", {**_VALID, "price": False},
     (IntegrityError, "column 'price': expected float, got bool")),
    ("int_into_text", {**_VALID, "name": 3},
     (IntegrityError, "column 'name': expected text, got int")),
    ("one_to_boolean", {**_VALID, "active": 1},
     _stored(5, 2, 2.5, "x", True, 1)),
    ("zero_to_boolean", {**_VALID, "active": 0},
     _stored(5, 2, 2.5, "x", False, 1)),
    ("two_to_boolean", {**_VALID, "active": 2},
     (IntegrityError, "column 'active': cannot coerce 2 to boolean")),
    ("null_primary_key", {**_VALID, "item_id": None},
     (IntegrityError, "table 'item': primary key must not be NULL")),
    ("duplicate_primary_key", {**_VALID, "item_id": 1},
     (IntegrityError, "table 'item': duplicate primary key 1")),
    ("fk_violation", {**_VALID, "drug_id": 99}, {
        "db": (IntegrityError, "table 'item': foreign key violation — "
               "drug_id=99 not found in drug.drug_id"),
        "table": _stored(5, 2, 2.5, "x", False, 99)}),
    ("fk_checked_before_duplicate_key",
     {**_VALID, "item_id": 1, "drug_id": 99}, {
         "db": (IntegrityError, "table 'item': foreign key violation — "
                "drug_id=99 not found in drug.drug_id"),
         "table": (IntegrityError, "table 'item': duplicate primary key 1")}),
    ("null_fk", {**_VALID, "drug_id": None},
     _stored(5, 2, 2.5, "x", False, None)),
]

_FROZEN_MESSAGES = {
    "db.insert": "KB 'kb' is frozen: insert is not allowed",
    "db.insert_many": "KB 'kb' is frozen: insert_many is not allowed",
    "table.insert": "table 'item' is frozen: insert is not allowed",
}


def _insert_via(database: Database, path: str, row):
    if path == "db.insert":
        return database.insert("item", row)
    if path == "db.insert_many":
        assert database.insert_many("item", iter([row])) == 1
        return database.table("item").rows[-1]
    return database.table("item").insert(row)


def _insert_params():
    for path in _FROZEN_MESSAGES:
        for case, row, expected in _INSERT_CASES:
            if isinstance(expected, dict):
                expected = expected["table" if path == "table.insert" else "db"]
            forms = [("tuple", row)]
            if isinstance(row, dict):
                forms = [("dict", row)]
                if all(key.lower() in _ITEM_COLUMNS for key in row):
                    lowered = {key.lower(): value for key, value in row.items()}
                    forms.append(("positional", tuple(
                        lowered.get(column) for column in _ITEM_COLUMNS)))
            for form, values in forms:
                yield pytest.param(path, values, expected,
                                   id=f"{path}-{case}-{form}")
        yield pytest.param(
            path, {**_VALID, "qty": True}, "frozen",
            id=f"{path}-frozen_rejects_invalid_row_first-dict")


@pytest.mark.parametrize("path,row,expected", list(_insert_params()))
def test_insert_semantics(path, row, expected):
    database = _item_db()
    table = database.table("item")
    if expected == "frozen":
        database.freeze()
        expected = (KBError, _FROZEN_MESSAGES[path])
    rows_before = list(table.rows)
    pk_before = dict(table._pk_index)
    if expected[0] == "ok":
        stored = _insert_via(database, path, row)
        assert [(type(v).__name__, v) for v in stored] == expected[1]
        assert table.rows == rows_before + [stored]
        assert table.lookup_pk(stored[0]) is stored
        return
    error, message = expected
    with pytest.raises(error) as raised:
        _insert_via(database, path, row)
    assert type(raised.value) is error
    assert str(raised.value) == message
    assert table.rows == rows_before
    assert table._pk_index == pk_before


class TestStatistics:
    def test_statistics_entry_point(self, db):
        db.insert("drug", {"drug_id": 1, "name": "A"})
        db.insert("drug", {"drug_id": 2, "name": "A"})
        stats = db.statistics("drug")
        assert stats.row_count == 2
        assert stats.column("name").distinct_count == 1

    def test_all_statistics(self, db):
        stats = db.all_statistics()
        assert set(stats) == {"drug", "precaution"}


def test_query_entry_point(db):
    db.insert("drug", {"drug_id": 1, "name": "Aspirin"})
    result = db.query("SELECT name FROM drug WHERE drug_id = :id", {"id": 1})
    assert result.rows == [("Aspirin",)]
