"""The knowledge base's file format: a plain SQLite file, ``kb.db``.

A database round-trips through :func:`save_sqlite` and
:func:`load_sqlite`: ordinary DDL with declared types and keys, rows in
write order.  SQLite is only the file format; every query still runs on
the in-memory engine.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.atomic import atomic_write
from repro.errors import KBError
from repro.kb.database import Database
from repro.kb.schema import Column, ForeignKey, TableSchema
from repro.kb.types import DataType


#: Declared SQLite column types.  Integers are declared ``INT``: a
#: single-column primary key declared exactly ``INTEGER`` would become an
#: alias of ``rowid``, and rows would then read back in key order rather
#: than in write order.
_SQLITE_TYPES = {
    DataType.INTEGER: "INT",
    DataType.FLOAT: "REAL",
    DataType.TEXT: "TEXT",
    DataType.BOOLEAN: "BOOLEAN",
}


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _table_ddl(schema: TableSchema) -> str:
    parts = [
        f"{_quote(col.name)} {_SQLITE_TYPES[col.data_type]}"
        + ("" if col.nullable else " NOT NULL")
        for col in schema.columns
    ]
    if schema.primary_key is not None:
        parts.append(f"PRIMARY KEY ({_quote(schema.primary_key)})")
    parts.extend(
        f"FOREIGN KEY ({_quote(fk.column)}) REFERENCES "
        f"{_quote(fk.referenced_table)} ({_quote(fk.referenced_column)})"
        for fk in schema.foreign_keys
    )
    return f"CREATE TABLE {_quote(schema.name)} ({', '.join(parts)})"


def save_sqlite(database: Database, path: str | Path) -> Path:
    """Write ``database`` as a SQLite file at ``path``.

    The file is built in a scratch directory and then replaces ``path``
    atomically (:func:`repro.atomic.atomic_write`), so a failed write
    leaves ``path`` as it was.  Booleans are stored as 0/1; tables are
    created in creation order, so every foreign key's target exists.
    """
    import sqlite3

    path = Path(path)
    with tempfile.TemporaryDirectory() as scratch:
        built = Path(scratch) / "kb.db"
        try:
            connection = sqlite3.connect(built)
            try:
                with connection:
                    for table in database.tables():
                        connection.execute(_table_ddl(table.schema))
                        marks = ", ".join("?" * len(table.schema.columns))
                        connection.executemany(
                            f"INSERT INTO {_quote(table.name)} "
                            f"VALUES ({marks})",
                            table.rows,
                        )
            finally:
                connection.close()
        except (sqlite3.Error, OverflowError) as exc:
            raise KBError(f"could not write {path}: {exc}") from exc
        atomic_write(path, built.read_bytes())
    return path


def _affinity_type(declared: str, table: str, column: str) -> DataType:
    """Map a declared SQLite type to a :class:`DataType` by affinity rules."""
    text = declared.upper()
    if not text:
        raise KBError(
            f"{table}.{column} has no declared type; a kb.db written by an "
            "older repro stores untyped columns: re-export it with "
            "`repro export`"
        )
    if "BOOL" in text:
        return DataType.BOOLEAN
    if "INT" in text:
        return DataType.INTEGER
    if any(word in text for word in ("CHAR", "CLOB", "TEXT")):
        return DataType.TEXT
    if "BLOB" in text:
        raise KBError(f"{table}.{column}: BLOB columns are not supported")
    return DataType.FLOAT  # REAL and NUMERIC affinity


def _primary_key(connection, table: str) -> str | None:
    keys = [name for name, in connection.execute(
        "SELECT name FROM pragma_table_info(?) WHERE pk", (table,)
    )]
    if len(keys) > 1:
        raise KBError(f"{table}: composite primary keys are not supported")
    return keys[0] if keys else None


def _read_schema(connection, table: str) -> TableSchema:
    return TableSchema(
        name=table,
        columns=[
            Column(name, _affinity_type(declared, table, name),
                   nullable=not notnull)
            for name, declared, notnull in connection.execute(
                'SELECT name, type, "notnull" FROM pragma_table_info(?) '
                "ORDER BY cid", (table,)
            )
        ],
        primary_key=_primary_key(connection, table),
        foreign_keys=[
            # SQLite numbers foreign keys last-declared first.  A
            # REFERENCES clause without a column names the target's key.
            ForeignKey(column, target, to or _primary_key(connection, target))
            for target, column, to in connection.execute(
                'SELECT "table", "from", "to" FROM pragma_foreign_key_list(?) '
                "ORDER BY id DESC", (table,)
            )
        ],
    )


def load_sqlite(path: str | Path) -> Database:
    """Load any SQLite file into a :class:`Database` named after its stem.

    Tables, primary keys and foreign keys come from ``PRAGMA table_info``
    and ``PRAGMA foreign_key_list``; rows load in ``rowid`` (write)
    order.  Tables are created so that foreign-key targets come first.
    """
    import sqlite3

    path = Path(path)
    if not path.is_file():
        raise KBError(f"no SQLite KB file at {path}")
    connection = sqlite3.connect(f"{path.resolve().as_uri()}?mode=ro", uri=True)
    try:
        names = [row[0] for row in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite\\_%' ESCAPE '\\' ORDER BY rowid"
        )]
        pending = [_read_schema(connection, name) for name in names]
        database = Database(path.stem)
        while pending:
            # The first table whose foreign-key targets all exist; on a
            # cycle, the first table, so that create_table names it.
            schema = next((
                schema for schema in pending
                if all(database.has_table(fk.referenced_table)
                       or fk.referenced_table.lower() == schema.name.lower()
                       for fk in schema.foreign_keys)
            ), pending[0])
            pending.remove(schema)
            database.create_table(schema)
            columns = ", ".join(_quote(c) for c in schema.column_names())
            database.insert_many(schema.name, connection.execute(
                f"SELECT {columns} FROM {_quote(schema.name)} ORDER BY rowid"
            ))
    except sqlite3.Error as exc:
        raise KBError(f"could not read {path}: {exc}") from exc
    finally:
        connection.close()
    return database
