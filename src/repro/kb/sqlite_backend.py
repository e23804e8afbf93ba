"""A stdlib-``sqlite3`` KB backend behind the ``KBBackend`` protocol.

The backend stores every table of a built
:class:`~repro.kb.database.Database` in a real SQLite database (a file
or ``:memory:``), and compiles the repo's parsed SQL AST two ways:

* **lowered**: rendered into genuine SQLite SQL and executed by the
  SQLite engine, *when the dialect gap can be closed exactly*, or
* **fallback**: the ordinary in-memory :class:`CompiledPlan` compiled
  against a row-for-row mirror of the SQLite contents.

"Exactly" is a strong word because the reference engine deliberately
deviates from standard SQL:

* two-valued NULL logic (any comparison with NULL is *false*, and
  ``NOT`` negates that false to true),
* case-insensitive string equality/ordering via ``str.lower()``,
* booleans are a real type that never equals the integers 0/1,
* results come back in a deterministic order — stable sorts layered
  over insertion-order scans and match-order joins.

The lowering closes each gap head-on instead of approximating:

* every atomic predicate is wrapped ``COALESCE(<pred>, 0)`` so the
  rendered expression is always 0/1, making ``AND``/``OR``/``NOT``
  compose exactly like the reference's Python ``and``/``or``/``not``;
* a Python collation (``repro_nocase``) and LIKE function
  (``repro_like``) reuse the reference comparison code itself;
* booleans are stored as 0/1 in columns created *without declared
  affinity* (so ints stay ints and floats stay floats bit-for-bit) and
  converted back to ``bool`` after fetch; known cross-type comparisons
  refuse to lower;
* a hidden ``_repro_pos_`` column records each row's insertion
  position, and every lowered query appends ``ORDER BY …, b0._repro_pos_,
  b1._repro_pos_, …`` reproducing the reference's scan/join enumeration
  order and stable sort ties;
* ``DISTINCT`` (keep the first occurrence of each case-folded key in
  enumeration order, NULLs equal) lowers to a window-function dedup:
  ``ROW_NUMBER() OVER (PARTITION BY <keys> ORDER BY <positions>) = 1``.

What cannot be reproduced in SQLite declines to lower and runs on the
fallback plan — the explicit dialect-gap rules are:

* GROUP BY / aggregates (first-seen group order, case-folded group keys)
* LIKE over boolean operands (``str(True)`` is ``'true'``, not ``'1'``)
* cross-type comparisons with both sides' types known (affinity rules
  would coerce where the reference compares False)
* parameter-to-parameter comparisons (no type anchor at prepare time)
* out-of-range (non-64-bit) integer or non-finite float literals

plus two *execute-time* reroutes decided per call: a bound parameter
whose runtime type contradicts the column type it is compared against
(SQLite affinity would coerce ``'5' = 5`` to true; the reference says
false), and a missing parameter (the reference binds lazily, so an OR
short-circuit may legally never read it).  ``EXPLAIN`` names the path:
lowered plans start with ``backend sqlite (path=lowered)``, fallback
plans with ``path=fallback`` and the blocking rule.
"""

from __future__ import annotations

import json
import math
import os
import re
import sqlite3
import threading
from typing import Any, Mapping, NamedTuple

from repro.errors import KBError, SQLExecutionError
from repro.kb.database import Database
from repro.kb.io import database_manifest, table_schema_from_manifest
from repro.kb.schema import TableSchema
from repro.kb.sql import ast
from repro.kb.sql.binder import (
    TYPE_CLASS,
    BoundColumn,
    BoundSelect,
    comparable,
    literal_type,
)
from repro.kb.sql.executor import _like_match
from repro.kb.sql.parser import parse
from repro.kb.sql.planner import PlanCache, PlanStep, QueryPlan, compile_plan
from repro.kb.sql.result import ResultSet
from repro.kb.statistics import TableStatistics, compute_table_statistics
from repro.kb.table import Table
from repro.kb.types import DataType

__all__ = ["SQLiteBackend", "SQLitePlan", "POSITION_COLUMN", "META_TABLE"]

#: Hidden per-row insertion-position column appended to every table.
POSITION_COLUMN = "_repro_pos_"

#: Embedded metadata table carrying the schema manifest + generations.
META_TABLE = "_repro_meta_"

_INT64_MAX = 2**63

_PARAM_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _column_sql(binding: str, column: str) -> str:
    return f"{_quote_ident(binding)}.{_quote_ident(column)}"


def _quote_text(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _nocase_collation(left: str, right: str) -> int:
    """SQLite collation mirroring the reference's ``str.lower()`` compares."""
    low_left = left.lower()
    low_right = right.lower()
    if low_left < low_right:
        return -1
    if low_left > low_right:
        return 1
    return 0


def _sql_like(value: Any, pattern: Any) -> int:
    """SQLite function wrapping the reference LIKE matcher (never NULL)."""
    return 1 if _like_match(value, pattern) else 0


class _NotLowerable(Exception):
    """Raised during lowering when a dialect-gap rule blocks real SQL."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Lowered(NamedTuple):
    """A successfully lowered query: SQL text + output/bind metadata."""

    sql: str
    columns: list[str]
    bool_positions: tuple[int, ...]
    param_expectations: dict[str, frozenset[str]]


class _Lowerer:
    """Renders one bound SELECT into SQLite SQL, or raises _NotLowerable.

    Operands carry their :class:`DataType` (None for parameters and
    NULL); rules compare the binder's type classes (``TYPE_CLASS``).
    """

    def __init__(self, bound: BoundSelect) -> None:
        self.bound = bound
        self.expectations: dict[str, set[str]] = {}

    # -- operands ------------------------------------------------------------

    def _expect(self, node: ast.Expression, cls: str) -> None:
        if isinstance(node, ast.Parameter):
            self.expectations.setdefault(node.name, set()).add(cls)

    def _operand(self, node: ast.Expression) -> tuple[str, DataType | None]:
        if isinstance(node, ast.Literal):
            return self._literal(node.value), literal_type(node.value)
        if isinstance(node, BoundColumn):
            return _column_sql(node.binding, node.name), node.data_type
        if isinstance(node, ast.Parameter):
            if not _PARAM_NAME.match(node.name):
                raise _NotLowerable(f"parameter name {node.name!r} not SQLite-safe")
            return f":{node.name}", None
        raise _NotLowerable(f"unsupported operand {type(node).__name__}")

    @staticmethod
    def _literal(value: Any) -> str:
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, int):
            if abs(value) >= _INT64_MAX:
                raise _NotLowerable("integer literal outside SQLite's 64-bit range")
            return repr(value)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise _NotLowerable("non-finite float literal")
            return repr(value)
        if isinstance(value, str):
            return _quote_text(value)
        raise _NotLowerable(f"unsupported literal type {type(value).__name__}")

    # -- predicates ----------------------------------------------------------

    def _predicate(self, node: ast.Expression) -> str:
        """Render ``node`` as an expression that is always 0 or 1.

        Atomic predicates are COALESCE-wrapped so NULL collapses to 0
        (the reference's two-valued logic); AND/OR/NOT then compose over
        0/1 exactly like Python ``and``/``or``/``not`` over bools.
        """
        if isinstance(node, ast.And):
            return f"({self._predicate(node.left)} AND {self._predicate(node.right)})"
        if isinstance(node, ast.Or):
            return f"({self._predicate(node.left)} OR {self._predicate(node.right)})"
        if isinstance(node, ast.Not):
            return f"(NOT {self._predicate(node.operand)})"
        if isinstance(node, ast.Comparison):
            return self._comparison(node)
        if isinstance(node, ast.LikePredicate):
            return self._like(node)
        if isinstance(node, ast.InPredicate):
            return self._in(node)
        if isinstance(node, ast.IsNullPredicate):
            operand_sql, _ = self._operand(node.operand)
            self._expect(node.operand, "null")
            test = "IS NOT NULL" if node.negated else "IS NULL"
            return f"({operand_sql} {test})"
        raise _NotLowerable(f"unsupported predicate {type(node).__name__}")

    def _comparison(self, node: ast.Comparison) -> str:
        left_sql, left_type = self._operand(node.left)
        right_sql, right_type = self._operand(node.right)
        if isinstance(node.left, ast.Parameter) and isinstance(
            node.right, ast.Parameter
        ):
            raise _NotLowerable("parameter-to-parameter comparison")
        if left_type and right_type and not comparable(left_type, right_type):
            raise _NotLowerable(
                f"cross-type comparison ({TYPE_CLASS[left_type]} vs "
                f"{TYPE_CLASS[right_type]})"
            )
        known = left_type or right_type
        cls = TYPE_CLASS[known] if known else "null"
        self._expect(node.left, cls)
        self._expect(node.right, cls)
        if cls == "text":
            right_sql = f"({right_sql} COLLATE repro_nocase)"
        return f"COALESCE(({left_sql} {node.op} {right_sql}), 0)"

    def _like(self, node: ast.LikePredicate) -> str:
        operand_sql, operand_type = self._operand(node.operand)
        pattern_sql, pattern_type = self._operand(node.pattern)
        if DataType.BOOLEAN in (operand_type, pattern_type):
            # str(True) is 'true' in the reference but the store holds 1.
            raise _NotLowerable("LIKE over a boolean operand")
        self._expect(node.operand, "like")
        self._expect(node.pattern, "like")
        core = f"repro_like({operand_sql}, {pattern_sql})"
        return f"(NOT {core})" if node.negated else core

    def _in(self, node: ast.InPredicate) -> str:
        operand_sql, operand_type = self._operand(node.operand)
        rendered = [(item, *self._operand(item)) for item in node.values]
        item_classes = {TYPE_CLASS[t] for _, _, t in rendered if t}
        if operand_type:
            target = TYPE_CLASS[operand_type]
        elif len(item_classes) == 1:
            target = next(iter(item_classes))
        elif not item_classes:
            if isinstance(node.operand, ast.Parameter):
                raise _NotLowerable("parameter-to-parameter comparison")
            target = "null"
        else:
            raise _NotLowerable("mixed-type IN list")
        for item, _, item_type in rendered:
            if item_type and target != "null" and TYPE_CLASS[item_type] != target:
                raise _NotLowerable(
                    f"cross-type comparison ({target} vs {TYPE_CLASS[item_type]})"
                )
            self._expect(item, target)
        self._expect(node.operand, target)
        if target == "text":
            operand_sql = f"({operand_sql} COLLATE repro_nocase)"
        items_sql = ", ".join(sql for _, sql, _ in rendered)
        core = f"COALESCE(({operand_sql} IN ({items_sql})), 0)"
        return f"(NOT {core})" if node.negated else core

    # -- the statement -------------------------------------------------------

    def lower(self) -> _Lowered:
        select = self.bound.select
        if select.group_by:
            raise _NotLowerable(
                "GROUP BY (first-seen group order and case-folded keys)"
            )
        for item in select.items:
            if isinstance(item.expression, ast.Aggregate):
                raise _NotLowerable("aggregation (first-seen group order)")
        if select.distinct and sqlite3.sqlite_version_info < (3, 25, 0):
            raise _NotLowerable(
                "DISTINCT needs SQLite window functions (>= 3.25)"
            )

        # FROM / JOIN, in the binder's table order.
        from_parts: list[str] = []
        for table, join in zip(self.bound.tables, (None,) + select.joins):
            clause = (
                f"{_quote_ident(table.schema.name)} AS "
                f"{_quote_ident(table.binding)}"
            )
            if join is None:
                from_parts.append(f"FROM {clause}")
            else:
                keyword = "LEFT JOIN" if join.kind == "left" else "JOIN"
                condition = self._predicate(join.condition)
                from_parts.append(f"{keyword} {clause} ON {condition}")

        # SELECT list (never ``*``: the hidden position column must stay
        # hidden, so star expands to explicit schema columns).
        if select.is_star():
            outputs = [
                (col.name, _column_sql(table.binding, col.name), col.data_type)
                for table in self.bound.tables
                for col in table.schema.columns
            ]
        else:
            outputs = [
                (
                    item.output_name(),
                    _column_sql(item.expression.binding, item.expression.name),
                    item.expression.data_type,
                )
                for item in select.items
            ]
        out_names, out_sqls, out_types = (list(part) for part in zip(*outputs))
        bool_positions = tuple(
            i for i, data_type in enumerate(out_types)
            if data_type is DataType.BOOLEAN
        )

        where_sql = ""
        if select.where is not None:
            where_sql = f" WHERE {self._predicate(select.where)}"

        # ORDER BY: requested keys first, then every binding's hidden
        # position column — this reproduces the reference's stable sort
        # over scan/join enumeration order, byte for byte.
        order_items = [
            (
                _column_sql(item.column.binding, item.column.name),
                item.column.data_type,
                item.descending,
            )
            for item in select.order_by
        ]
        position_columns = [
            _column_sql(table.binding, POSITION_COLUMN)
            for table in self.bound.tables
        ]

        limit_sql = ""
        offset = select.offset or 0
        if select.limit is not None or offset:
            limit = -1 if select.limit is None else select.limit
            limit_sql = f" LIMIT {limit}"
            if offset:
                limit_sql += f" OFFSET {offset}"

        if select.distinct:
            sql = self._render_distinct(
                out_sqls, out_types, from_parts, where_sql,
                order_items, position_columns, limit_sql,
            )
        else:
            order_parts = []
            for sql_expr, data_type, descending in order_items:
                if data_type is DataType.TEXT:
                    sql_expr = f"{sql_expr} COLLATE repro_nocase"
                if descending:
                    sql_expr = f"{sql_expr} DESC"
                order_parts.append(sql_expr)
            order_parts.extend(position_columns)
            sql = (
                f"SELECT {', '.join(out_sqls)} "
                + " ".join(from_parts)
                + where_sql
                + f" ORDER BY {', '.join(order_parts)}"
                + limit_sql
            )
        expectations = {
            name: frozenset(classes) for name, classes in self.expectations.items()
        }
        return _Lowered(sql, out_names, bool_positions, expectations)

    def _render_distinct(
        self,
        out_sqls: list[str],
        out_types: list[DataType],
        from_parts: list[str],
        where_sql: str,
        order_items: list[tuple[str, DataType, bool]],
        position_columns: list[str],
        limit_sql: str,
    ) -> str:
        """DISTINCT with reference semantics, via a window-function dedup.

        The reference keeps the *first* occurrence of each projected row
        (keys case-folded per :func:`~repro.kb.types.normalize_key`, with
        NULLs equal to each other) in join-enumeration order, then sorts
        the survivors.  ``ROW_NUMBER() OVER (PARTITION BY <key exprs>
        ORDER BY <position columns>)`` reproduces exactly that: text keys
        partition under the comparison collation, NULLs share a
        partition, and ``rn = 1`` is the first-enumerated row of each
        group — whose own position columns then break ORDER BY ties the
        same way the reference's stable sort does.
        """
        inner: list[str] = []
        keys: list[str] = []
        for index, (expr, data_type) in enumerate(zip(out_sqls, out_types)):
            inner.append(f"{expr} AS {_quote_ident(f'_repro_c{index}_')}")
            keys.append(
                f"{expr} COLLATE repro_nocase"
                if data_type is DataType.TEXT else expr
            )
        for index, (expr, _type, _descending) in enumerate(order_items):
            inner.append(f"{expr} AS {_quote_ident(f'_repro_o{index}_')}")
        for index, expr in enumerate(position_columns):
            inner.append(f"{expr} AS {_quote_ident(f'_repro_p{index}_')}")
        inner.append(
            f"ROW_NUMBER() OVER (PARTITION BY {', '.join(keys)} "
            f"ORDER BY {', '.join(position_columns)}) AS "
            f"{_quote_ident('_repro_rn_')}"
        )
        outer_order: list[str] = []
        for index, (_expr, data_type, descending) in enumerate(order_items):
            rendered = _quote_ident(f"_repro_o{index}_")
            if data_type is DataType.TEXT:
                rendered = f"{rendered} COLLATE repro_nocase"
            if descending:
                rendered = f"{rendered} DESC"
            outer_order.append(rendered)
        outer_order.extend(
            _quote_ident(f"_repro_p{index}_")
            for index in range(len(position_columns))
        )
        outer_columns = ", ".join(
            _quote_ident(f"_repro_c{index}_") for index in range(len(out_sqls))
        )
        return (
            f"SELECT {outer_columns} FROM ("
            f"SELECT {', '.join(inner)} "
            + " ".join(from_parts)
            + where_sql
            + f") WHERE {_quote_ident('_repro_rn_')} = 1"
            + f" ORDER BY {', '.join(outer_order)}"
            + limit_sql
        )


def _admit_param(value: Any, classes: frozenset[str]) -> tuple[bool, Any]:
    """Can ``value`` bind directly into the lowered SQL?

    Returns ``(ok, converted)``.  A rejection is not an error — the call
    reroutes to the in-memory fallback, which implements the reference
    semantics for mistyped parameters (comparisons are simply false).
    """
    if value is None:
        return True, None
    if isinstance(value, float) and math.isnan(value):
        return False, None  # sqlite3 binds NaN as NULL
    if isinstance(value, int) and not isinstance(value, bool):
        if abs(value) >= _INT64_MAX:
            return False, None
    for cls in classes:
        if cls == "text" and not isinstance(value, str):
            return False, None
        if cls == "number" and (
            isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            return False, None
        if cls == "bool" and not isinstance(value, bool):
            return False, None
        if cls == "like" and isinstance(value, bool):
            return False, None
        if cls == "null":
            continue
    if isinstance(value, bool):
        return True, int(value)
    if not isinstance(value, (str, int, float)):
        return False, None
    return True, value


class _SQLiteRunner:
    """The connection, and its execution-path counters, that a backend
    shares with its plans.

    Plans hold this rather than the backend, so backend → plan cache →
    plan never leads back to the backend, and a backend swapped out by
    a refresh is freed as soon as nothing else holds it.
    """

    def __init__(self, connection: sqlite3.Connection) -> None:
        self.connection = connection
        # sqlite3 serializes on its own for safety, but the module-level
        # threadsafety varies by build; one explicit lock keeps the
        # execute+fetch pair atomic under concurrent serving threads.
        self.lock = threading.Lock()
        # Best-effort (unlocked) telemetry, like the table index counters.
        self.lowered_total = 0
        self.fallback_total = 0

    def execute(self, sql: str, bound: Mapping[str, Any]) -> list[tuple[Any, ...]]:
        try:
            with self.lock:
                cursor = self.connection.execute(sql, dict(bound))
                rows = cursor.fetchall()
        except sqlite3.Error as exc:
            raise SQLExecutionError(f"sqlite execution failed: {exc}") from exc
        return rows


class SQLitePlan:
    """A compiled plan against :class:`SQLiteBackend`.

    Carries both the lowered SQL (when the dialect allows) and the
    always-available in-memory fallback plan compiled against the
    backend's row mirror; ``execute`` picks per call.  Exposes the same
    observability surface as :class:`CompiledPlan` (``executions``,
    ``index_probes``, ``schema_generation``, ``plan()``/``explain()``)
    so the shared :class:`PlanCache` and serving metrics need no
    special-casing.
    """

    def __init__(self, backend: "SQLiteBackend", sql: str, use_indexes: bool = True) -> None:
        self._runner = backend._runner
        self.sql = sql
        self.use_indexes = use_indexes
        self.schema_generation = backend.schema_generation
        select = parse(sql)
        # Compile the reference plan first: prepare-time errors (unknown
        # tables/columns, ambiguity) surface identically on both backends.
        self.fallback = compile_plan(
            backend._mirror(), select, sql=sql, use_indexes=use_indexes
        )
        self.select = select
        self.executions = 0
        self.lowered_executions = 0
        self.fallback_executions = 0
        try:
            self._lowered: _Lowered | None = _Lowerer(self.fallback.bound).lower()
            self.fallback_reason: str | None = None
        except _NotLowerable as exc:
            self._lowered = None
            self.fallback_reason = exc.reason

    @property
    def lowered_sql(self) -> str | None:
        return self._lowered.sql if self._lowered is not None else None

    @property
    def index_probes(self) -> int:
        return self.fallback.index_probes

    def execute(self, params: Mapping[str, Any] | None = None) -> ResultSet:
        self.executions += 1
        lowered = self._lowered
        if lowered is None:
            return self._run_fallback(params)
        supplied = dict(params or {})
        bound: dict[str, Any] = {}
        for name, classes in lowered.param_expectations.items():
            if name not in supplied:
                # The reference binds parameters lazily (an OR
                # short-circuit may never read one); its path decides
                # whether this is a BindingError.
                return self._run_fallback(params)
            ok, converted = _admit_param(supplied[name], classes)
            if not ok:
                # Runtime type contradicts the compared column's type;
                # SQLite affinity would coerce where the reference
                # compares false.  Reroute, don't guess.
                return self._run_fallback(params)
            bound[name] = converted
        rows = self._runner.execute(lowered.sql, bound)
        if lowered.bool_positions:
            bool_set = set(lowered.bool_positions)
            rows = [
                tuple(
                    bool(value) if index in bool_set and value is not None else value
                    for index, value in enumerate(row)
                )
                for row in rows
            ]
        self.lowered_executions += 1
        self._runner.lowered_total += 1
        return ResultSet(columns=list(lowered.columns), rows=rows)

    def _run_fallback(self, params: Mapping[str, Any] | None) -> ResultSet:
        self.fallback_executions += 1
        self._runner.fallback_total += 1
        return self.fallback.execute(params)

    def plan(self) -> QueryPlan:
        if self._lowered is not None:
            steps = [
                PlanStep("backend", "sqlite", "path=lowered"),
                PlanStep("sqlite-sql", self.select.source.table, self._lowered.sql),
            ]
            return QueryPlan(steps=tuple(steps))
        steps = [
            PlanStep(
                "backend",
                "sqlite",
                f"path=fallback ({self.fallback_reason})",
            )
        ]
        return QueryPlan(steps=tuple(steps) + tuple(self.fallback.plan().steps))

    def explain(self) -> str:
        return self.plan().explain()


class SQLiteBackend:
    """Read-only :class:`KBBackend` over a SQLite file built from a KB.

    Construction is two-phase: :meth:`from_database` materialises a
    built in-memory database into SQLite (rows, hidden position column,
    schema manifest, generation counters, pk/fk indexes), while the
    constructor opens an already-materialised file.  The backend itself
    is immutable — refresh replaces the whole backend behind a
    :class:`~repro.kb.backend.KBHandle`, never mutates one in place.
    """

    backend_name = "sqlite"

    def __init__(self, path: str | os.PathLike[str], *, _connection: sqlite3.Connection | None = None) -> None:
        self.path = str(path)
        if _connection is not None:
            connection = _connection
        else:
            if self.path != ":memory:" and not os.path.exists(self.path):
                raise KBError(f"no SQLite KB database at {self.path!r}")
            connection = sqlite3.connect(self.path, check_same_thread=False)
        self._runner = _SQLiteRunner(connection)
        connection.create_collation("repro_nocase", _nocase_collation)
        connection.create_function("repro_like", 2, _sql_like, deterministic=True)
        meta = self._read_meta()
        self.name = meta.get("database", "kb")
        self._generation = int(meta.get("generation", 0))
        self._schema_generation = int(meta.get("schema_generation", 0))
        self._schemas: dict[str, TableSchema] = {}
        for tdata in meta.get("tables", []):
            schema = table_schema_from_manifest(tdata)
            self._schemas[schema.name.lower()] = schema
        self._mirror_db: Database | None = None
        self._mirror_lock = threading.Lock()
        self._plan_cache = PlanCache(compile_factory=SQLitePlan)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_database(
        cls, database: Any, path: str | os.PathLike[str] = ":memory:"
    ) -> "SQLiteBackend":
        """Materialise ``database`` (any memory-backed KB view) into SQLite."""
        source = database
        for attr in ("backend", "wrapped"):  # unwrap KBHandle / KBSnapshot
            while hasattr(source, attr):
                source = getattr(source, attr)
        tables = list(source.tables())
        for table in tables:
            if table.name.lower() == META_TABLE:
                raise KBError(f"table name {META_TABLE!r} is reserved")
            for col in table.schema.column_names():
                if col.lower() == POSITION_COLUMN:
                    raise KBError(
                        f"column name {POSITION_COLUMN!r} is reserved "
                        f"(table {table.name!r})"
                    )
        manifest = database_manifest(source)
        manifest["generation"] = int(source.generation)
        manifest["schema_generation"] = int(source.schema_generation)

        target = str(path)
        connection = sqlite3.connect(target, check_same_thread=False)
        try:
            with connection:
                connection.execute(f"DROP TABLE IF EXISTS {_quote_ident(META_TABLE)}")
                connection.execute(
                    f"CREATE TABLE {_quote_ident(META_TABLE)} "
                    '("key" TEXT PRIMARY KEY, "value" TEXT)'
                )
                connection.execute(
                    f"INSERT INTO {_quote_ident(META_TABLE)} VALUES ('manifest', ?)",
                    (json.dumps(manifest),),
                )
                for table in tables:
                    cls._write_table(connection, table)
        except (sqlite3.Error, OverflowError) as exc:
            connection.close()
            raise KBError(f"could not materialise SQLite KB: {exc}") from exc
        return cls(target, _connection=connection)

    @staticmethod
    def _write_table(connection: sqlite3.Connection, table: Table) -> None:
        schema = table.schema
        quoted = _quote_ident(schema.name)
        connection.execute(f"DROP TABLE IF EXISTS {quoted}")
        # Columns carry *no declared type*: BLOB (none) affinity stores
        # every value exactly as bound — ints stay ints, floats stay
        # floats — so fetched rows reproduce the reference byte-for-byte.
        column_defs = [_quote_ident(col.name) for col in schema.columns]
        column_defs.append(f"{_quote_ident(POSITION_COLUMN)} INTEGER")
        connection.execute(f"CREATE TABLE {quoted} ({', '.join(column_defs)})")
        names = [col.name for col in schema.columns] + [POSITION_COLUMN]
        placeholders = ", ".join("?" for _ in names)
        insert_sql = (
            f"INSERT INTO {quoted} "
            f"({', '.join(_quote_ident(n) for n in names)}) "
            f"VALUES ({placeholders})"
        )
        connection.executemany(
            insert_sql,
            (
                tuple(
                    int(value) if isinstance(value, bool) else value
                    for value in row
                )
                + (position,)
                for position, row in enumerate(table.rows)
            ),
        )
        # Index the key columns the reference planner would probe.  Text
        # keys are indexed under the comparison collation so lowered
        # equality predicates can actually use them.
        indexed: set[str] = set()
        key_columns = []
        if schema.primary_key is not None:
            key_columns.append(schema.primary_key)
        key_columns.extend(fk.column for fk in schema.foreign_keys)
        for column_name in key_columns:
            low = column_name.lower()
            if low in indexed:
                continue
            indexed.add(low)
            column = schema.column(column_name)
            collate = (
                " COLLATE repro_nocase"
                if column.data_type is DataType.TEXT
                else ""
            )
            connection.execute(
                f"CREATE INDEX {_quote_ident(f'idx_{schema.name}_{column.name}')} "
                f"ON {quoted} ({_quote_ident(column.name)}{collate})"
            )

    def _read_meta(self) -> dict:
        runner = self._runner
        try:
            with runner.lock:
                rows = runner.connection.execute(
                    f'SELECT "value" FROM {_quote_ident(META_TABLE)} '
                    "WHERE \"key\" = 'manifest'"
                ).fetchall()
        except sqlite3.Error as exc:
            raise KBError(
                f"{self.path!r} is not a repro KB SQLite database: {exc}"
            ) from exc
        if not rows:
            raise KBError(f"{self.path!r} has no KB manifest")
        try:
            return json.loads(rows[0][0])
        except (TypeError, json.JSONDecodeError) as exc:
            raise KBError(f"{self.path!r} has a corrupt KB manifest: {exc}") from exc

    # -- the row mirror ------------------------------------------------------

    def _mirror(self) -> Database:
        """The in-memory mirror powering fallback plans and statistics.

        Built lazily (double-checked under a lock) by fetching every
        table ``ORDER BY _repro_pos_``, so mirror row order — and hence
        every fallback result — matches the original database exactly.
        """
        mirror = self._mirror_db
        if mirror is not None:
            return mirror
        with self._mirror_lock:
            if self._mirror_db is None:
                self._mirror_db = self._load_mirror()
            return self._mirror_db

    def _load_mirror(self) -> Database:
        mirror = Database(self.name)
        for schema in self._schemas.values():
            mirror.create_table(schema)
        for schema in self._schemas.values():
            columns = ", ".join(
                _quote_ident(col.name) for col in schema.columns
            )
            sql = (
                f"SELECT {columns} FROM {_quote_ident(schema.name)} "
                f"ORDER BY {_quote_ident(POSITION_COLUMN)}"
            )
            rows = self._runner.execute(sql, {})
            table = mirror.table(schema.name)
            for row in rows:
                # Table coercion restores booleans from their 0/1
                # storage; FK re-validation is skipped (the source
                # database already enforced it).
                table.insert(list(row))
        return mirror

    # -- KBBackend protocol --------------------------------------------------

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def schema_generation(self) -> int:
        return self._schema_generation

    def schema(self) -> dict[str, TableSchema]:
        return dict(self._schemas)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._schemas

    def table(self, name: str) -> Table:
        return self._mirror().table(name)

    def tables(self) -> list[Table]:
        return self._mirror().tables()

    def table_names(self) -> list[str]:
        return [schema.name for schema in self._schemas.values()]

    def prepare(self, sql: str, *, use_indexes: bool = True) -> SQLitePlan:
        return self._plan_cache.get_or_compile(self, sql, use_indexes=use_indexes)

    def query(
        self, sql: str, params: Mapping[str, Any] | None = None
    ) -> ResultSet:
        return self.prepare(sql).execute(params)

    def explain(self, sql: str) -> str:
        return self.prepare(sql).explain()

    def plan_stats(self) -> dict[str, int]:
        return self._plan_cache.stats()

    def execution_paths(self) -> dict[str, int]:
        """Executions by physical path (``sql`` = lowered, ``fallback``)."""
        runner = self._runner
        return {"sql": runner.lowered_total, "fallback": runner.fallback_total}

    def statistics(self, table_name: str) -> TableStatistics:
        return compute_table_statistics(self._mirror().table(table_name))

    def all_statistics(self) -> dict[str, TableStatistics]:
        return self._mirror().all_statistics()

    # -- immutability guards -------------------------------------------------

    def insert(self, *args: Any, **kwargs: Any) -> Any:
        raise KBError("SQLite KB backend is read-only: insert is not allowed")

    def insert_many(self, *args: Any, **kwargs: Any) -> Any:
        raise KBError("SQLite KB backend is read-only: insert_many is not allowed")

    def create_table(self, *args: Any, **kwargs: Any) -> Any:
        raise KBError("SQLite KB backend is read-only: create_table is not allowed")

    def close(self) -> None:
        self._runner.connection.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SQLiteBackend({self.path!r}, tables={len(self._schemas)})"
