"""``kb.db`` round trips: tables, rows and schema, NULL against the
empty string, queries on a reloaded KB, and a generated MDX KB."""

from repro.kb.io import load_sqlite, save_sqlite


def round_trip(db, tmp_path):
    return load_sqlite(save_sqlite(db, tmp_path / "kb.db"))


class TestRoundTrip:
    def test_all_tables_and_rows_preserved(self, toy_db, tmp_path):
        restored = round_trip(toy_db, tmp_path)
        assert restored.table_names() == toy_db.table_names()
        for name in toy_db.table_names():
            assert restored.table(name).rows == toy_db.table(name).rows

    def test_schema_preserved(self, toy_db, tmp_path):
        restored = round_trip(toy_db, tmp_path)
        schema = restored.table("precaution").schema
        assert schema.primary_key == "p_id"
        assert schema.foreign_key_for("drug_id").referenced_table == "drug"

    def test_nulls_and_types_preserved(self, tmp_path):
        from repro.kb import Column, Database, DataType, TableSchema
        db = Database("typed")
        db.create_table(TableSchema("t", [
            Column("i", DataType.INTEGER),
            Column("f", DataType.FLOAT),
            Column("s", DataType.TEXT),
            Column("b", DataType.BOOLEAN),
        ]))
        db.insert("t", {"i": 1, "f": 2.5, "s": "x", "b": True})
        db.insert("t", {"i": None, "f": None, "s": None, "b": False})
        db.insert("t", {"s": ""})  # empty string is not NULL
        rows = round_trip(db, tmp_path).table("t").rows
        assert rows[0] == (1, 2.5, "x", True)
        assert rows[1] == (None, None, None, False)
        assert rows[2] == (None, None, "", None)

    def test_queries_work_after_reload(self, toy_db, tmp_path):
        restored = round_trip(toy_db, tmp_path)
        result = restored.query(
            "SELECT name FROM drug WHERE drug_id = :id", {"id": 1}
        )
        assert result.rows == [("Aspirin",)]

    def test_mdx_round_trips(self, mdx_small_db, tmp_path):
        restored = round_trip(mdx_small_db, tmp_path)
        assert restored.table_names() == mdx_small_db.table_names()
        for table in mdx_small_db.tables():
            assert restored.table(table.name).rows == table.rows
