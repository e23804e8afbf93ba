"""The knowledge base's two file formats: a CSV directory and ``kb.db``.

A database round-trips through a directory of one CSV file per table
plus a ``schema.json`` manifest (columns, types, keys, creation order).
NULL is written as ``\\N`` (the Postgres COPY convention), so empty
strings stay distinguishable.

It also round-trips through a plain SQLite file (:func:`save_sqlite`,
:func:`load_sqlite`): ordinary DDL with declared types and keys, rows in
write order.  SQLite is only the file format; every query still runs on
the in-memory engine.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.errors import KBError
from repro.kb.database import Database
from repro.kb.schema import Column, ForeignKey, TableSchema
from repro.kb.types import DataType

_NULL = "\\N"
MANIFEST_NAME = "schema.json"


def _encode(value) -> str:
    if value is None:
        return _NULL
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _decode(text: str, data_type: DataType):
    if text == _NULL:
        return None
    if data_type is DataType.INTEGER:
        return int(text)
    if data_type is DataType.FLOAT:
        return float(text)
    if data_type is DataType.BOOLEAN:
        return text == "true"
    return text


def database_manifest(database: Database) -> dict:
    """The JSON-safe schema manifest for ``database``.

    The CSV round-trip writes it as ``schema.json``; a ``kb.db`` written
    by :func:`save_sqlite` loads back to the same manifest, apart from
    the database name (the file's stem).
    """
    return {
        "database": database.name,
        "tables": [
            {
                "name": table.schema.name,
                "primary_key": table.schema.primary_key,
                "columns": [
                    {
                        "name": col.name,
                        "type": col.data_type.value,
                        "nullable": col.nullable,
                    }
                    for col in table.schema.columns
                ],
                "foreign_keys": [
                    {
                        "column": fk.column,
                        "referenced_table": fk.referenced_table,
                        "referenced_column": fk.referenced_column,
                    }
                    for fk in table.schema.foreign_keys
                ],
            }
            for table in database.tables()
        ],
    }


def table_schema_from_manifest(tdata: dict) -> TableSchema:
    """Rebuild one :class:`TableSchema` from its manifest entry."""
    return TableSchema(
        name=tdata["name"],
        columns=[
            Column(
                c["name"],
                DataType(c["type"]),
                nullable=c.get("nullable", True),
            )
            for c in tdata["columns"]
        ],
        primary_key=tdata.get("primary_key"),
        foreign_keys=[
            ForeignKey(
                fk["column"], fk["referenced_table"], fk["referenced_column"]
            )
            for fk in tdata.get("foreign_keys", [])
        ],
    )


def save_database(database: Database, directory: str | Path) -> Path:
    """Write ``database`` to ``directory`` (created if needed).

    Returns the manifest path.  Layout: ``schema.json`` plus one
    ``<table>.csv`` per table with a header row.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = database_manifest(database)
    manifest_path = directory / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    for table in database.tables():
        with open(directory / f"{table.name}.csv", "w", newline="",
                  encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(table.schema.column_names())
            for row in table.rows:
                writer.writerow([_encode(v) for v in row])
    return manifest_path


def load_database(directory: str | Path) -> Database:
    """Load a database written by :func:`save_database`.

    Tables are created and filled in manifest order, so foreign keys
    validate as rows stream in.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise KBError(f"no {MANIFEST_NAME} manifest in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise KBError(f"invalid manifest: {exc}") from exc

    database = Database(manifest.get("database", "kb"))
    for tdata in manifest.get("tables", []):
        schema = table_schema_from_manifest(tdata)
        database.create_table(schema)
        csv_path = directory / f"{schema.name}.csv"
        if not csv_path.exists():
            continue  # an empty table need not ship a CSV
        with open(csv_path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                continue
            expected = [c.lower() for c in schema.column_names()]
            if [h.lower() for h in header] != expected:
                raise KBError(
                    f"{csv_path.name}: header {header} does not match the "
                    f"manifest columns {schema.column_names()}"
                )
            types = [col.data_type for col in schema.columns]
            for line_number, raw in enumerate(reader, start=2):
                if len(raw) != len(types):
                    raise KBError(
                        f"{csv_path.name}: line {line_number} has "
                        f"{len(raw)} fields, expected {len(types)}"
                    )
                try:
                    values = [
                        _decode(text, data_type)
                        for text, data_type in zip(raw, types)
                    ]
                except ValueError as exc:
                    raise KBError(
                        f"{csv_path.name}: line {line_number}: {exc}"
                    ) from exc
                database.insert(schema.name, values)
    return database


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
    """Write ``database`` to a new SQLite file at ``path``.

    An existing file is replaced.  Booleans are stored as 0/1; tables
    are created in creation order, so every foreign key's target exists.
    """
    import sqlite3

    path = Path(path)
    path.unlink(missing_ok=True)
    try:
        connection = sqlite3.connect(path)
        try:
            with connection:
                for table in database.tables():
                    connection.execute(_table_ddl(table.schema))
                    marks = ", ".join("?" * len(table.schema.columns))
                    connection.executemany(
                        f"INSERT INTO {_quote(table.name)} VALUES ({marks})",
                        table.rows,
                    )
        finally:
            connection.close()
    except (sqlite3.Error, OverflowError) as exc:
        path.unlink(missing_ok=True)
        raise KBError(f"could not write {path}: {exc}") from exc
    return path


def _affinity_type(declared: str, table: str, column: str) -> DataType:
    """Map a declared SQLite type to a :class:`DataType` by affinity rules."""
    text = declared.upper()
    if not text:
        raise KBError(
            f"{table}.{column} has no declared type; a kb.db written by an "
            "older repro stores untyped columns: re-export it with "
            "`repro export --sqlite`"
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
