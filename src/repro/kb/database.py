"""The database catalog: tables, constraint enforcement, query entry point."""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import IntegrityError, KBError, SchemaError, UnknownTableError
from repro.kb.schema import ForeignKey, TableSchema
from repro.kb.statistics import TableStatistics, compute_table_statistics
from repro.kb.table import Table
from repro.kb.sql.planner import CompiledPlan, PlanCache
from repro.kb.sql.result import ResultSet


class Database:
    """An in-memory relational database.

    A :class:`Database` owns a set of :class:`~repro.kb.table.Table` objects,
    enforces foreign keys on insert, computes the statistics that the
    ontology-generation step consumes, and executes SQL through compiled
    plans (:meth:`prepare`).

    A database is built, then :meth:`freeze` makes it read-only for
    good; the :class:`~repro.kb.backend.KBHandle` that serves it freezes
    it on the way in.
    """

    def __init__(self, name: str = "kb") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._frozen = False
        self._plan_cache = PlanCache()

    # -- freezing -------------------------------------------------------------

    def freeze(self) -> "Database":
        """Make this database and its tables read-only; returns it.

        Afterwards :meth:`create_table`, :meth:`insert`,
        :meth:`insert_many` and :meth:`Table.insert
        <repro.kb.table.Table.insert>` raise ``KBError``, so a cached
        plan or result can never go stale under it.
        """
        self._frozen = True
        for table in self._tables.values():
            table._frozen = True
        return self

    def _check_writable(self, operation: str) -> None:
        if self._frozen:
            raise KBError(
                f"KB {self.name!r} is frozen: {operation} is not allowed"
            )

    # -- catalog ------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from ``schema`` and register it."""
        self._check_writable("create_table")
        key = schema.name.lower()
        if key in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        table = Table(schema)
        # Resolved once: each insert checks a foreign key with one
        # lookup in the target's primary-key index.
        table._foreign_keys = [
            (schema.column_index(fk.column),
             self._foreign_key_target(table, fk)._pk_index, fk)
            for fk in schema.foreign_keys
        ]
        self._tables[key] = table
        # Cached plans resolved names against the old catalog.
        self._plan_cache.clear()
        return table

    def _foreign_key_target(self, table: Table, fk: ForeignKey) -> Table:
        """The table ``fk`` of the new ``table`` references, after
        checking that the reference names its primary key."""
        schema = table.schema
        # Self-references are allowed; other targets must already exist.
        if fk.referenced_table.lower() == schema.name.lower():
            target = table
        else:
            target = self._tables.get(fk.referenced_table.lower())
            if target is None:
                raise SchemaError(
                    f"table {schema.name!r}: foreign key references unknown "
                    f"table {fk.referenced_table!r}"
                )
        target_schema = target.schema
        if not target_schema.has_column(fk.referenced_column):
            raise SchemaError(
                f"table {schema.name!r}: foreign key references unknown column "
                f"{fk.referenced_table}.{fk.referenced_column}"
            )
        if target_schema.primary_key is None or (
            target_schema.primary_key.lower() != fk.referenced_column.lower()
        ):
            raise SchemaError(
                f"table {schema.name!r}: foreign key must reference the "
                f"primary key of {fk.referenced_table!r}"
            )
        return target

    def has_table(self, name: str) -> bool:
        """Return True if a table named ``name`` exists (case-insensitive)."""
        return name.lower() in self._tables

    def table(self, name: str) -> Table:
        """Return the table named ``name`` or raise :class:`UnknownTableError`."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise UnknownTableError(name) from None

    def tables(self) -> list[Table]:
        """All tables, in creation order."""
        return list(self._tables.values())

    def table_names(self) -> list[str]:
        """Declared table names, in creation order."""
        return [t.name for t in self._tables.values()]

    def schema(self) -> dict[str, TableSchema]:
        """Every table schema, keyed by lowercase name, in creation order."""
        return {name: table.schema for name, table in self._tables.items()}

    # -- data ----------------------------------------------------------------

    def insert(
        self, table_name: str, values: dict[str, Any] | Iterable[Any]
    ) -> tuple[Any, ...]:
        """Insert one row, enforcing foreign keys against referenced tables."""
        self._check_writable("insert")
        return self._insert(self.table(table_name), values)

    def insert_many(
        self, table_name: str, rows: Iterable[dict[str, Any] | Iterable[Any]]
    ) -> int:
        """Insert many rows; returns the number inserted."""
        self._check_writable("insert_many")
        count = 0
        for values in rows:
            self._insert(self.table(table_name), values)
            count += 1
        return count

    @staticmethod
    def _insert(
        table: Table, values: dict[str, Any] | Iterable[Any]
    ) -> tuple[Any, ...]:
        """Build the row once, check its foreign keys, then store it."""
        row = table._build_row(values)
        for position, target_keys, fk in table._foreign_keys:
            value = row[position]
            if value is not None and value not in target_keys:
                raise IntegrityError(
                    f"table {table.name!r}: foreign key violation — "
                    f"{fk.column}={value!r} not found in "
                    f"{fk.referenced_table}.{fk.referenced_column}"
                )
        return table._append(row)

    # -- queries -----------------------------------------------------------------

    def query(self, sql: str, params: dict[str, Any] | None = None) -> ResultSet:
        """Parse and execute ``sql`` with optional named parameters.

        SQL text is routed through the compiled-plan cache, so repeated
        queries (the serving hot path) skip parse/resolve/plan entirely.
        """
        return self.prepare(sql).execute(params)

    def prepare(self, sql: str, *, use_indexes: bool = True) -> "CompiledPlan":
        """Parse, resolve and plan ``sql`` once; returns a reusable plan.

        Plans are cached per SQL text, so calling this repeatedly with
        the same template string is cheap.  ``use_indexes=False``
        compiles the reference full-scan plan (results are identical;
        used by differential tests and the executor benchmark).
        """
        return self._plan_cache.get_or_compile(self, sql, use_indexes=use_indexes)

    def explain(self, sql: str) -> str:
        """The EXPLAIN-style plan description for ``sql``."""
        return self.prepare(sql).explain()

    def plan_stats(self) -> dict[str, int]:
        """Plan-cache observability: plans, hits, misses, executions, probes."""
        return self._plan_cache.stats()

    # -- statistics ----------------------------------------------------------------

    def statistics(self, table_name: str) -> TableStatistics:
        """Compute statistics for one table."""
        return compute_table_statistics(self.table(table_name))

    def all_statistics(self) -> dict[str, TableStatistics]:
        """Compute statistics for every table, keyed by lowercase name."""
        return {
            name: compute_table_statistics(table)
            for name, table in self._tables.items()
        }
