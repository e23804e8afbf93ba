"""Row storage with constraint enforcement and secondary hash indexes."""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Iterator

from repro.errors import IntegrityError, KBError
from repro.kb.schema import ForeignKey, TableSchema
from repro.kb.types import coerce_value, normalize_key


class Table:
    """An in-memory table: a schema plus a list of row tuples.

    Rows are stored as tuples in column-declaration order.  A primary-key
    index (value -> row position) is maintained when the schema declares a
    primary key, giving O(1) point lookups for foreign-key validation and
    for the SQL executor's hash joins.

    Secondary hash indexes (:meth:`secondary_index`) are built lazily the
    first time the query planner asks for one, and invalidated wholesale
    on any mutation.  Once the owning database is frozen
    (:meth:`~repro.kb.database.Database.freeze`), :meth:`insert` raises
    ``KBError``.
    """

    def __init__(
        self,
        schema: TableSchema,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.schema = schema
        # Injected so the build-time stats below never read the wall
        # clock on the turn path (replay determinism, P001).
        self._clock = clock
        self._rows: list[tuple[Any, ...]] = []
        self._pk_index: dict[Any, int] | None = (
            {} if schema.primary_key is not None else None
        )
        self._pk_pos = (
            schema.column_index(schema.primary_key)
            if schema.primary_key is not None
            else None
        )
        # The row builder, compiled once: per column its name, type,
        # nullability and the Python type coerce_value stores unchanged.
        self._column_specs = [
            (col.name, col.data_type, col.nullable, col.data_type.python_type())
            for col in schema.columns
        ]
        # (column position, the target's PK index, fk), set by the
        # owning Database, which can see the referenced tables.
        self._foreign_keys: list[tuple[int, dict[Any, int], ForeignKey]] = []
        self._frozen = False
        # column position -> {normalized value -> ascending row positions}
        self._indexes: dict[int, dict[Any, list[int]]] = {}
        self._index_builds = 0
        self._index_build_seconds = 0.0

    # -- basic properties ---------------------------------------------------

    @property
    def name(self) -> str:
        """The table name from the schema."""
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._rows)

    @property
    def rows(self) -> list[tuple[Any, ...]]:
        """The stored rows (do not mutate)."""
        return self._rows

    # -- mutation -------------------------------------------------------------

    def insert(self, values: dict[str, Any] | Iterable[Any]) -> tuple[Any, ...]:
        """Insert one row given as a column->value dict or positional iterable.

        Returns the stored (coerced) row tuple.  Raises
        :class:`IntegrityError` on type, nullability or primary-key
        violations.  Foreign keys are validated by the owning
        :class:`~repro.kb.database.Database`, which can see other tables.
        """
        if self._frozen:
            raise KBError(f"table {self.name!r} is frozen: insert is not allowed")
        return self._append(self._build_row(values))

    def _build_row(self, values: dict[str, Any] | Iterable[Any]) -> tuple[Any, ...]:
        if isinstance(values, dict):
            positions = self.schema._positions
            raw: list[Any] = [None] * len(self._column_specs)
            unknown = []
            for key, value in values.items():
                position = positions.get(key.lower())
                if position is None:
                    unknown.append(key)
                else:
                    raw[position] = value
            if unknown:
                raise IntegrityError(
                    f"table {self.name!r}: unknown columns {unknown!r}"
                )
        else:
            raw = list(values)
            if len(raw) != len(self._column_specs):
                raise IntegrityError(
                    f"table {self.name!r}: expected {len(self._column_specs)} "
                    f"values, got {len(raw)}"
                )
        out = []
        for value, (name, data_type, nullable, stored_type) in zip(
            raw, self._column_specs
        ):
            # coerce_value returns a value of its stored type unchanged.
            if type(value) is not stored_type:
                value = coerce_value(value, data_type, column=name)
                if value is None and not nullable:
                    raise IntegrityError(
                        f"table {self.name!r}: column {name!r} is NOT NULL"
                    )
            out.append(value)
        return tuple(out)

    def _append(self, row: tuple[Any, ...]) -> tuple[Any, ...]:
        """Store a built row: the primary-key checks, then the append."""
        if self._pk_index is not None:
            key = row[self._pk_pos]
            if key is None:
                raise IntegrityError(
                    f"table {self.name!r}: primary key must not be NULL"
                )
            if key in self._pk_index:
                raise IntegrityError(
                    f"table {self.name!r}: duplicate primary key {key!r}"
                )
            self._pk_index[key] = len(self._rows)
        self._rows.append(row)
        if self._indexes:
            # Lazily rebuilt on next use; clearing keeps mutation O(1).
            self._indexes.clear()
        return row

    # -- lookups ----------------------------------------------------------------

    def lookup_pk(self, key: Any) -> tuple[Any, ...] | None:
        """Return the row whose primary key equals ``key``, or None."""
        if self._pk_index is None:
            raise IntegrityError(f"table {self.name!r} has no primary key")
        pos = self._pk_index.get(key)
        return self._rows[pos] if pos is not None else None

    def has_pk(self, key: Any) -> bool:
        """Return True if a row with primary key ``key`` exists."""
        if self._pk_index is None:
            raise IntegrityError(f"table {self.name!r} has no primary key")
        return key in self._pk_index

    def column_values(self, column: str) -> list[Any]:
        """Return all values of ``column`` in row order (including NULLs)."""
        idx = self.schema.column_index(column)
        return [row[idx] for row in self._rows]

    def secondary_index(self, column: str | int) -> dict[Any, list[int]]:
        """The lazily-built hash index for ``column``.

        Maps :func:`~repro.kb.types.normalize_key` of each non-NULL value
        to the ascending row positions holding it, so index probes return
        rows in exactly the order a full scan would.  NULLs are excluded:
        NULL never equals anything, so an index probe can never match a
        NULL cell — this keeps the index path in agreement with the
        executor's two-valued NULL semantics.

        The index is cached until the next mutation.  Callers must treat
        the returned mapping as read-only.
        """
        position = (
            column if isinstance(column, int)
            else self.schema.column_index(column)
        )
        cached = self._indexes.get(position)
        if cached is not None:
            return cached
        start = self._clock()
        index: dict[Any, list[int]] = {}
        for row_pos, row in enumerate(self._rows):
            value = row[position]
            if value is None:
                continue
            index.setdefault(normalize_key(value), []).append(row_pos)
        self._indexes[position] = index
        self._index_builds += 1
        self._index_build_seconds += self._clock() - start
        return index

    def index_stats(self) -> dict[str, float]:
        """Observability: live index count, total builds, build time."""
        return {
            "indexes": float(len(self._indexes)),
            "builds": float(self._index_builds),
            "build_seconds": self._index_build_seconds,
        }

    def distinct_values(self, column: str) -> list[Any]:
        """Return the distinct non-NULL values of ``column``, in first-seen order."""
        idx = self.schema.column_index(column)
        seen: dict[Any, None] = {}
        for row in self._rows:
            value = row[idx]
            if value is not None and value not in seen:
                seen[value] = None
        return list(seen)
