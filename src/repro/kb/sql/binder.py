"""Column binding: resolve and type every column reference of a SELECT once.

:func:`bind` is the one name-resolution pass over a parsed
:class:`~repro.kb.sql.ast.Select`.  It lays FROM and each JOIN's table
out as consecutive segments of the combined join row, then resolves
every column reference — WHERE, each JOIN condition against the tables
joined so far, the projection and aggregate arguments, GROUP BY, and
ORDER BY when the query is not grouped (grouped ORDER BY names output
columns) — to a :class:`BoundColumn` carrying its binding, table,
column, :class:`~repro.kb.types.DataType` and row position.  The result
is the same ``Select`` with those references replaced: the planner reads
row positions from it, the space checker its failures (C002/C003) and
the type checker column types and (table, column) statistics.

Failures are collected in the order the executor raises them: unknown
tables and duplicate bindings first, then WHERE, JOIN conditions in
join order, the projection, GROUP BY and ORDER BY.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.errors import (
    AmbiguousColumnError,
    KBError,
    SQLExecutionError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.kb.schema import TableSchema
from repro.kb.sql import ast
from repro.kb.types import DataType

#: Type classes: two types compare meaningfully iff their classes match.
#: The type checker's T001 (type-mismatch) rule reads them.
TYPE_CLASS = {
    DataType.INTEGER: "number",
    DataType.FLOAT: "number",
    DataType.TEXT: "text",
    DataType.BOOLEAN: "bool",
}


def comparable(left: DataType, right: DataType) -> bool:
    """Whether two types can meaningfully compare (numeric widening ok)."""
    return TYPE_CLASS[left] == TYPE_CLASS[right]


def literal_type(value: Any) -> DataType | None:
    """The DataType of a SQL literal (None for NULL)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.TEXT
    return None


@dataclass(frozen=True, kw_only=True)
class BoundColumn(ast.ColumnRef):
    """A column reference resolved against the query's tables.

    ``column``/``table`` keep the reference as written (messages,
    EXPLAIN and output names use them); the rest is what it resolved to.
    """

    binding: str  # lowercased alias or table name
    table_name: str  # the schema's table name
    name: str  # the schema's column name
    data_type: DataType
    position: int  # index into the combined join row


def operand_type(node: ast.Expression) -> DataType | None:
    """The type of a value operand, None when unknown (NULL, a parameter
    or an unresolved column)."""
    if isinstance(node, BoundColumn):
        return node.data_type
    if isinstance(node, ast.Literal):
        return literal_type(node.value)
    return None


@dataclass(frozen=True)
class BoundTable:
    """One FROM/JOIN table and its segment of the combined join row."""

    ref: ast.TableRef
    schema: TableSchema
    offset: int
    binding: str  # lowercased alias or table name

    @property
    def width(self) -> int:
        return len(self.schema.columns)


@dataclass(frozen=True)
class BindFailure:
    """One table or column reference :func:`bind` could not resolve."""

    ref: ast.ColumnRef | ast.TableRef
    error: KBError
    #: The tables in scope that own the reference's qualifier (a
    #: qualified column) or its column name (an ambiguous one).
    owners: tuple[BoundTable, ...] = ()


@dataclass(frozen=True)
class BoundSelect:
    """A SELECT whose resolvable column references are BoundColumns."""

    select: ast.Select
    tables: tuple[BoundTable, ...]
    failures: tuple[BindFailure, ...] = ()


def is_grouped(select: ast.Select) -> bool:
    """True when the query groups: GROUP BY or any aggregate item."""
    return bool(select.group_by) or any(
        isinstance(item.expression, ast.Aggregate) for item in select.items
    )


def bind(
    select: ast.Select,
    schemas: Mapping[str, TableSchema],
    *,
    collect: bool = False,
) -> BoundSelect:
    """Resolve and type every column reference of ``select``.

    ``schemas`` maps lowercased table names to schemas (a KB's
    ``schema()``).  Raises the first failure —
    :class:`~repro.errors.UnknownTableError`,
    :class:`~repro.errors.UnknownColumnError`,
    :class:`~repro.errors.AmbiguousColumnError`, or
    :class:`~repro.errors.SQLExecutionError` for a table bound twice
    under one name — unless ``collect`` is
    set, in which case every failure is returned in
    :attr:`BoundSelect.failures` and the unresolved references stay
    plain ``ColumnRef`` nodes.
    """
    tables: list[BoundTable] = []
    failures: list[BindFailure] = []

    def add_table(ref: ast.TableRef) -> int:
        """Lay out one FROM/JOIN table; returns how many tables are bound."""
        schema = schemas.get(ref.table.lower())
        binding = ref.binding.lower()
        if schema is None:
            failures.append(BindFailure(ref, UnknownTableError(ref.table)))
        elif any(table.binding == binding for table in tables):
            failures.append(BindFailure(ref, SQLExecutionError(
                f"duplicate table binding {ref.binding!r}"
            )))
        else:
            offset = sum(table.width for table in tables)
            tables.append(BoundTable(ref, schema, offset, binding))
        return len(tables)

    def column(ref: ast.ColumnRef, visible: int | None = None) -> ast.ColumnRef:
        """Resolve ``ref`` against the first ``visible`` tables; an
        unresolvable reference is recorded and returned unchanged."""
        if ref.table is not None:
            qualifier = ref.table.lower()
            owners = tuple(t for t in tables[:visible] if t.binding == qualifier)
            if owners and owners[0].schema.has_column(ref.column):
                return _bound(ref, owners[0])
            error: KBError = UnknownColumnError(ref.column, table=ref.table)
        else:
            owners = tuple(
                t for t in tables[:visible] if t.schema.has_column(ref.column)
            )
            if len(owners) == 1:
                return _bound(ref, owners[0])
            error = UnknownColumnError(ref.column) if not owners else (
                AmbiguousColumnError(ref.column, tuple(
                    f"{table.binding}.{ref.column}" for table in owners
                ))
            )
        failures.append(BindFailure(ref, error, owners))
        return ref

    def expr(node: ast.Expression, visible: int | None = None) -> ast.Expression:
        if isinstance(node, ast.ColumnRef):
            return column(node, visible)
        if isinstance(node, ast.Comparison):
            return ast.Comparison(
                node.op, expr(node.left, visible), expr(node.right, visible)
            )
        if isinstance(node, (ast.And, ast.Or)):
            return type(node)(expr(node.left, visible), expr(node.right, visible))
        if isinstance(node, ast.Not):
            return ast.Not(expr(node.operand, visible))
        if isinstance(node, ast.IsNullPredicate):
            return ast.IsNullPredicate(expr(node.operand, visible), node.negated)
        if isinstance(node, ast.LikePredicate):
            return ast.LikePredicate(
                expr(node.operand, visible), expr(node.pattern, visible), node.negated
            )
        if isinstance(node, ast.InPredicate):
            return ast.InPredicate(
                expr(node.operand, visible),
                tuple(expr(value, visible) for value in node.values),
                node.negated,
            )
        return node  # Literal, Parameter

    def projected(item: ast.SelectItem) -> ast.SelectItem:
        value = item.expression
        if isinstance(value, ast.ColumnRef):
            return ast.SelectItem(column(value), item.alias)
        if value.argument is None:  # COUNT(*)
            return item
        return ast.SelectItem(ast.Aggregate(
            value.function, column(value.argument), value.distinct
        ), item.alias)

    add_table(select.source)
    visible_at_join = [add_table(join.table) for join in select.joins]
    where = expr(select.where) if select.where is not None else None
    joins = tuple(
        ast.Join(join.kind, join.table, expr(join.condition, visible))
        for join, visible in zip(select.joins, visible_at_join)
    )
    items = tuple(projected(item) for item in select.items)
    group_by = tuple(column(col) for col in select.group_by)
    order_by = select.order_by
    if not is_grouped(select):
        order_by = tuple(
            ast.OrderItem(column(o.column), o.descending) for o in select.order_by
        )
    bound = BoundSelect(
        replace(
            select, items=items, joins=joins, where=where,
            group_by=group_by, order_by=order_by,
        ),
        tuple(tables),
        tuple(failures),
    )
    if bound.failures and not collect:
        raise bound.failures[0].error
    return bound


def _bound(ref: ast.ColumnRef, table: BoundTable) -> BoundColumn:
    column = table.schema.column(ref.column)
    return BoundColumn(
        ref.column,
        ref.table,
        binding=table.binding,
        table_name=table.schema.name,
        name=column.name,
        data_type=column.data_type,
        position=table.offset + table.schema.column_index(ref.column),
    )
