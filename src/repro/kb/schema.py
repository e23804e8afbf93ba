"""Table schemas: columns, primary keys and foreign keys.

The schema layer carries the metadata that the data-driven ontology
generation step (paper §3, reference [18]) relies on: primary-key and
foreign-key constraints are the signals from which concepts and
relationships are inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.kb.types import DataType

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _validate_identifier(name: str, kind: str) -> None:
    if not name:
        raise SchemaError(f"{kind} name must be non-empty")
    if name[0].isdigit():
        raise SchemaError(f"{kind} name {name!r} must not start with a digit")
    if not set(name) <= _IDENT_CHARS:
        raise SchemaError(f"{kind} name {name!r} contains invalid characters")


@dataclass(frozen=True)
class Column:
    """A single column definition.

    Parameters
    ----------
    name:
        Column name (valid SQL identifier).
    data_type:
        One of :class:`repro.kb.types.DataType`.
    nullable:
        Whether NULL values are accepted (default True).
    """

    name: str
    data_type: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        _validate_identifier(self.name, "column")
        if not isinstance(self.data_type, DataType):
            raise SchemaError(f"column {self.name!r}: data_type must be a DataType")


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint from one column to another table's column.

    Foreign keys are single-column: the synthetic medical KB, like the
    paper's, uses surrogate integer keys throughout.
    """

    column: str
    referenced_table: str
    referenced_column: str

    def __post_init__(self) -> None:
        _validate_identifier(self.column, "foreign-key column")
        _validate_identifier(self.referenced_table, "referenced table")
        _validate_identifier(self.referenced_column, "referenced column")


@dataclass
class TableSchema:
    """Schema for one table: ordered columns, primary key, foreign keys."""

    name: str
    columns: list[Column]
    primary_key: str | None = None
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        _validate_identifier(self.name, "table")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        seen: set[str] = set()
        for col in self.columns:
            low = col.name.lower()
            if low in seen:
                raise SchemaError(f"table {self.name!r}: duplicate column {col.name!r}")
            seen.add(low)
        if self.primary_key is not None:
            if self.primary_key.lower() not in seen:
                raise SchemaError(
                    f"table {self.name!r}: primary key {self.primary_key!r} "
                    "is not a column"
                )
        for fk in self.foreign_keys:
            if fk.column.lower() not in seen:
                raise SchemaError(
                    f"table {self.name!r}: foreign-key column {fk.column!r} "
                    "is not a column"
                )
        # lower-cased column name -> position
        self._positions = {
            col.name.lower(): i for i, col in enumerate(self.columns)
        }

    # -- lookups ----------------------------------------------------------

    def column(self, name: str) -> Column:
        """Return the column named ``name`` (case-insensitive)."""
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        """Return True if a column named ``name`` exists (case-insensitive)."""
        return name.lower() in self._positions

    def column_index(self, name: str) -> int:
        """Return the positional index of column ``name``."""
        try:
            return self._positions[name.lower()]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def column_names(self) -> list[str]:
        """Return the column names in declaration order."""
        return [col.name for col in self.columns]

    def foreign_key_for(self, column: str) -> ForeignKey | None:
        """Return the foreign key declared on ``column``, if any."""
        low = column.lower()
        for fk in self.foreign_keys:
            if fk.column.lower() == low:
                return fk
        return None
