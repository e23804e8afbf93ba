"""Query planning: compile a parsed SELECT into a reusable execution plan.

The paper's per-intent structured query templates are executed on every
conversation turn, so the serving hot path must not re-parse, re-resolve
or re-plan SQL per request.  :func:`compile_plan` does all of that once:

* binds the query once (:func:`~repro.kb.sql.binder.bind`), so every
  unknown or ambiguous table/column reference fails at prepare time
  and every column becomes a precomputed row position,
* picks a join strategy per JOIN (index-backed hash join for equality
  keys, nested loop otherwise),
* pushes sargable WHERE conjuncts (``col = ?`` / ``col IN (...)``) down
  to the table they constrain, so execution probes a lazily-built
  :meth:`~repro.kb.table.Table.secondary_index` instead of scanning,
* reduces the base (FROM) table through its filtered joins: an inner
  equi-join with pushed filters whose left key is a base-table column
  probes its filtered side first, maps those keys through the base
  table's index on the join column, and intersects the results, so
  execution reads only the base rows some join could still match.

The resulting :class:`CompiledPlan` executes with bindings only, and its
:meth:`CompiledPlan.plan` method renders an EXPLAIN-style description of
the index-vs-scan decisions that tests and audits can assert against.

Correctness contract: a plan compiled with ``use_indexes=False`` (the
reference scan path) and one with ``use_indexes=True`` return
byte-identical result sets.  The pushdown filters are re-applied as part
of the full WHERE evaluation, and index probes share the executor's
equality normalization (NULL never matches, booleans never match
integers), so the index path can only skip rows the scan path would have
discarded — in particular, pushing a null-rejecting filter below a LEFT
JOIN is safe because any extra padded rows it creates are dropped when
the full WHERE is evaluated.

:class:`PlanCache` memoizes compiled plans per SQL text behind a lock so
many serving threads can share one cache; ``create_table`` clears it,
and a served (frozen) database has no ``create_table``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import (
    AmbiguousColumnError,
    SQLExecutionError,
    UnknownColumnError,
)
from repro.kb.sql import ast
from repro.kb.sql.binder import BoundColumn, BoundTable, bind, is_grouped
from repro.kb.sql.executor import _eval_operand, _eval_predicate, _group, _sort_key
from repro.kb.sql.result import ResultSet
from repro.kb.types import normalize_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kb.database import Database
    from repro.kb.table import Table


# ---------------------------------------------------------------------------
# EXPLAIN-style plan description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    """One step of a query plan, for observability and tests."""

    op: str            # scan | index-lookup | semi-join | hash-join | ...
    target: str = ""   # table or binding the step operates on
    detail: str = ""   # human-readable specifics (keys, pushed filters)

    def render(self) -> str:
        parts = [self.op]
        if self.target:
            parts.append(self.target)
        text = " ".join(parts)
        return f"{text} ({self.detail})" if self.detail else text


@dataclass(frozen=True)
class QueryPlan:
    """An EXPLAIN-style, parameter-independent description of a plan."""

    steps: tuple[PlanStep, ...]

    def ops(self) -> list[str]:
        return [step.op for step in self.steps]

    @property
    def uses_index(self) -> bool:
        """True when any step probes a secondary index."""
        return any(
            step.op in ("index-lookup", "semi-join") or "index" in step.detail
            for step in self.steps
        )

    def explain(self) -> str:
        return "\n".join(
            f"{i + 1}. {step.render()}" for i, step in enumerate(self.steps)
        )


def _expr_label(node: ast.Expression) -> str:
    if isinstance(node, ast.Literal):
        return repr(node.value)
    if isinstance(node, ast.Parameter):
        return f":{node.name}"
    if isinstance(node, ast.ColumnRef):
        return str(node)
    return type(node).__name__


# ---------------------------------------------------------------------------
# Pushdown analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PushedFilter:
    """A sargable WHERE conjunct bound to one table segment.

    ``column_position`` indexes into that table's own row tuple;
    ``values`` are the Literal/Parameter expressions the column must
    equal (one for ``=``, several for ``IN``).  Only null-rejecting
    forms are pushed, which is what makes pushdown below LEFT JOIN safe.
    """

    column_position: int
    values: tuple[ast.Expression, ...]
    label: str


def _conjuncts(node: ast.Expression) -> list[ast.Expression]:
    if isinstance(node, ast.And):
        return _conjuncts(node.left) + _conjuncts(node.right)
    return [node]


def _sargable(conjunct: ast.Expression) -> tuple[
    BoundColumn, tuple[ast.Expression, ...]
] | None:
    """``col = value`` / ``col IN (values)`` → (col, values), else None."""
    if isinstance(conjunct, ast.Comparison) and conjunct.op == "=":
        for col, value in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if isinstance(col, BoundColumn) and isinstance(
                value, (ast.Literal, ast.Parameter)
            ):
                return col, (value,)
        return None
    if isinstance(conjunct, ast.InPredicate) and not conjunct.negated:
        if isinstance(conjunct.operand, BoundColumn) and all(
            isinstance(value, (ast.Literal, ast.Parameter))
            for value in conjunct.values
        ):
            return conjunct.operand, tuple(conjunct.values)
    return None


def _equi_left_label(step: "_JoinStep") -> str:
    """The written form of an equi-join's left-side key column."""
    cond = step.join.condition
    left = cond.left if cond.left.position == step.equi[0] else cond.right
    return _expr_label(left)


def _split_equi_join(
    condition: ast.Expression, right: BoundTable
) -> tuple[int, int] | None:
    """If ``condition`` is ``left.col = right.col``, return their indices.

    Returns (index into the left rows, index into ``right``'s own rows)
    or None when the condition is not a simple cross-side equality.
    """
    if not isinstance(condition, ast.Comparison) or condition.op != "=":
        return None
    for first, second in (
        (condition.left, condition.right),
        (condition.right, condition.left),
    ):
        if (
            isinstance(first, BoundColumn)
            and isinstance(second, BoundColumn)
            and first.position < right.offset <= second.position
        ):
            return first.position, second.position - right.offset
    return None


# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------


@dataclass
class _JoinStep:
    """Precompiled strategy for one JOIN clause."""

    join: ast.Join
    table: "Table"
    equi: tuple[int, int] | None   # (left row index, right column position)
    pushed: tuple[_PushedFilter, ...]
    #: An inner equi-join with pushed filters keyed on a base-table
    #: column: its filtered side reduces the base table (semi-join).
    reduces_base: bool = False


class CompiledPlan:
    """A parsed, resolved, strategy-selected SELECT, ready to execute.

    Compile once via :func:`compile_plan` (or
    :meth:`~repro.kb.database.Database.prepare`), then call
    :meth:`execute` with parameter bindings only.  Plans are shared
    between serving threads; the ``executions``/``index_probes``
    counters are best-effort (unlocked) telemetry.
    """

    def __init__(
        self,
        database: "Database",
        select: ast.Select,
        sql: str | None = None,
        use_indexes: bool = True,
    ) -> None:
        self.select = select
        self.sql = sql
        self.use_indexes = use_indexes
        self.executions = 0
        self.index_probes = 0
        self._compile(database)

    # -- compilation ---------------------------------------------------------

    def _compile(self, database: "Database") -> None:
        self.bound = bind(self.select, database.schema())
        select = self.bound.select
        tables = [database.table(t.schema.name) for t in self.bound.tables]
        self.base_table: "Table" = tables[0]

        # Pushdown: bind each sargable conjunct to its table segment.
        pushed: list[list[_PushedFilter]] = [[] for _ in tables]
        conjuncts = _conjuncts(select.where) if select.where is not None else []
        for conjunct in conjuncts:
            sarg = _sargable(conjunct)
            if sarg is None:
                continue
            col, values = sarg
            segment = next(
                i for i, t in enumerate(self.bound.tables)
                if t.offset <= col.position < t.offset + t.width
            )
            label = "{} = {}".format(
                _expr_label(col), _expr_label(values[0])
            ) if len(values) == 1 else "{} IN ({})".format(
                _expr_label(col), ", ".join(_expr_label(v) for v in values),
            )
            pushed[segment].append(_PushedFilter(
                col.position - self.bound.tables[segment].offset, values, label
            ))
        self.base_pushed: tuple[_PushedFilter, ...] = tuple(pushed[0])
        base_width = self.bound.tables[0].width
        self.join_steps = []
        for join, table, bound_table, filters in zip(
            select.joins, tables[1:], self.bound.tables[1:], pushed[1:]
        ):
            equi = _split_equi_join(join.condition, bound_table)
            self.join_steps.append(_JoinStep(
                join=join,
                table=table,
                equi=equi,
                pushed=tuple(filters),
                reduces_base=(
                    self.use_indexes and join.kind == "inner" and bool(filters)
                    and equi is not None and equi[0] < base_width
                ),
            ))
        self._compile_projection(select)

    def _compile_projection(self, select: ast.Select) -> None:
        """Output names, projected positions and sort keys, all static."""
        self._grouped = is_grouped(select)
        if select.is_star():
            if self._grouped:
                raise SQLExecutionError(
                    "SELECT * cannot be combined with GROUP BY/aggregates"
                )
            self.columns = [
                name for t in self.bound.tables for name in t.schema.column_names()
            ]
            self._projection: tuple[int, ...] | None = None
        else:
            self.columns = [item.output_name() for item in self.select.items]
            self._projection = tuple(
                item.expression.position for item in select.items
                if isinstance(item.expression, BoundColumn)
            )
        if self._grouped:
            self._group_positions = tuple(col.position for col in select.group_by)
            for item in select.items:
                expr = item.expression
                if isinstance(expr, ast.Aggregate):
                    continue
                if not select.group_by:
                    raise SQLExecutionError(
                        f"column {expr} mixed with aggregates requires GROUP BY"
                    )
                if expr.position not in self._group_positions:
                    raise SQLExecutionError(
                        f"column {expr} must appear in GROUP BY"
                    )
            self._outputs = tuple(
                item.expression if isinstance(item.expression, ast.Aggregate)
                else item.expression.position
                for item in select.items
            )
        # Sort keys: a row position before grouping, an output column
        # index after it (grouped ORDER BY names output columns).
        self._order: list[tuple[int, bool]] = []
        lowered = [name.lower() for name in self.columns]
        for item in select.order_by:
            if not self._grouped:
                self._order.append((item.column.position, item.descending))
                continue
            name = item.column.column.lower()
            matches = [i for i, c in enumerate(lowered) if c == name]
            if not matches:
                raise UnknownColumnError(item.column.column)
            if len(matches) > 1:
                raise AmbiguousColumnError(
                    item.column.column,
                    tuple(f"output column {i + 1}" for i in matches),
                )
            self._order.append((matches[0], item.descending))

    # -- observability -------------------------------------------------------

    def plan(self) -> QueryPlan:
        """The EXPLAIN-style description of this plan's decisions."""
        steps: list[PlanStep] = []
        base_name = self.base_table.name
        base_filters = ", ".join(f.label for f in self.base_pushed)
        reducers = [step for step in self.join_steps if step.reduces_base]
        if reducers:
            parts = [f"index-lookup {base_filters}"] if base_filters else []
            parts.extend(
                "{} IN {} ({})".format(
                    _equi_left_label(step), step.table.name,
                    ", ".join(f.label for f in step.pushed),
                )
                for step in reducers
            )
            steps.append(PlanStep("semi-join", base_name, "; ".join(parts)))
        elif self.use_indexes and self.base_pushed:
            steps.append(PlanStep("index-lookup", base_name, base_filters))
        else:
            steps.append(PlanStep("scan", base_name))
        for step in self.join_steps:
            pushed = ", ".join(f.label for f in step.pushed)
            if step.equi is not None:
                op = "hash-join"
                cond = step.join.condition
                detail = "{} = {}".format(
                    _expr_label(cond.left), _expr_label(cond.right)
                )
                if self.use_indexes:
                    detail += (
                        f"; index-lookup push: {pushed}" if pushed
                        else "; index on join key"
                    )
            else:
                op = "nested-loop-join"
                detail = _expr_label(step.join.condition)
                if self.use_indexes and pushed:
                    detail += f"; index-lookup push: {pushed}"
            steps.append(PlanStep(op, step.table.name, detail))
        if self.select.where is not None:
            steps.append(PlanStep("filter", detail="WHERE"))
        if self._grouped:
            steps.append(PlanStep("aggregate"))
        if self.select.distinct:
            steps.append(PlanStep("distinct"))
        if self.select.order_by:
            steps.append(PlanStep("sort", detail=", ".join(
                str(item.column) + (" DESC" if item.descending else "")
                for item in self.select.order_by
            )))
        if self.select.limit is not None or self.select.offset:
            steps.append(PlanStep("limit", detail=(
                f"limit={self.select.limit} offset={self.select.offset or 0}"
            )))
        return QueryPlan(tuple(steps))

    def explain(self) -> str:
        return self.plan().explain()

    # -- execution -----------------------------------------------------------

    def _probe_positions(
        self,
        table: "Table",
        filters: tuple[_PushedFilter, ...],
        params: dict[str, Any],
    ) -> list[int]:
        """Row positions matching every pushed filter, ascending."""
        result: set[int] | None = None
        for pushed in filters:
            index = table.secondary_index(pushed.column_position)
            self.index_probes += 1
            positions: set[int] = set()
            for value_expr in pushed.values:
                value = _eval_operand(value_expr, (), params)
                if value is None:
                    continue  # NULL never equals anything
                positions.update(index.get(normalize_key(value), ()))
            result = positions if result is None else result & positions
            if not result:
                break
        return sorted(result or ())

    def _base_rows(
        self, params: dict[str, Any], probed: dict[int, list[tuple]]
    ) -> list[tuple]:
        """The base rows the joins and WHERE can still keep, in scan order.

        A reducing join becomes one more filter on the base table: its
        left key must equal a key of the join's filtered right rows.
        Those rows are recorded in ``probed`` (by step position) for
        :meth:`_apply_join` to reuse.
        """
        stored = self.base_table.rows
        if not self.use_indexes:
            return list(stored)
        filters = list(self.base_pushed)
        for number, step in enumerate(self.join_steps):
            if step.reduces_base:
                right_rows = probed[number] = self._right_rows(step, params)
                left_idx, right_col = step.equi
                filters.append(_PushedFilter(
                    left_idx,
                    tuple(ast.Literal(row[right_col]) for row in right_rows),
                    "",
                ))
        if not filters:
            return list(stored)
        positions = self._probe_positions(self.base_table, tuple(filters), params)
        return [stored[p] for p in positions]

    def _right_rows(self, step: _JoinStep, params: dict[str, Any]) -> list[tuple]:
        if self.use_indexes and step.pushed:
            positions = self._probe_positions(step.table, step.pushed, params)
            stored = step.table.rows
            return [stored[p] for p in positions]
        return list(step.table.rows)

    def _apply_join(
        self,
        step: _JoinStep,
        rows: list[tuple],
        params: dict[str, Any],
        right_rows: list[tuple] | None = None,
    ) -> list[tuple]:
        if not rows:
            return []
        join = step.join
        right_width = len(step.table.schema.columns)
        new_rows: list[tuple] = []
        if step.equi is not None:
            left_idx, right_col = step.equi
            if self.use_indexes and not step.pushed:
                # Probe the table's persistent index: no per-execution
                # hash build.  Positions are ascending, so matches come
                # out in the same order the scan-path hash join yields.
                index = step.table.secondary_index(right_col)
                self.index_probes += 1
                stored = step.table.rows
                for lrow in rows:
                    key = lrow[left_idx]
                    matches = (
                        index.get(normalize_key(key), ())
                        if key is not None else ()
                    )
                    if matches:
                        for position in matches:
                            new_rows.append(lrow + stored[position])
                    elif join.kind == "left":
                        new_rows.append(lrow + (None,) * right_width)
                return new_rows
            # Per-execution hash join over the (possibly prefiltered)
            # right rows.  NULL keys are excluded on both sides — NULL
            # never equals NULL.
            if right_rows is None:
                right_rows = self._right_rows(step, params)
            index_map: dict[Any, list[tuple]] = {}
            for rrow in right_rows:
                key = rrow[right_col]
                if key is not None:
                    index_map.setdefault(normalize_key(key), []).append(rrow)
            for lrow in rows:
                key = lrow[left_idx]
                matches = (
                    index_map.get(normalize_key(key), [])
                    if key is not None else []
                )
                if matches:
                    for rrow in matches:
                        new_rows.append(lrow + rrow)
                elif join.kind == "left":
                    new_rows.append(lrow + (None,) * right_width)
            return new_rows
        # Nested loop: arbitrary join condition.
        right_rows = self._right_rows(step, params)
        for lrow in rows:
            matched = False
            for rrow in right_rows:
                candidate = lrow + rrow
                if _eval_predicate(join.condition, candidate, params):
                    new_rows.append(candidate)
                    matched = True
            if not matched and join.kind == "left":
                new_rows.append(lrow + (None,) * right_width)
        return new_rows

    def execute(self, params: dict[str, Any] | None = None) -> ResultSet:
        """Run the plan with ``params`` bound and return the result set."""
        params = params or {}
        self.executions += 1
        select = self.select

        probed: dict[int, list[tuple]] = {}
        rows = self._base_rows(params, probed)
        for number, step in enumerate(self.join_steps):
            rows = self._apply_join(step, rows, params, probed.get(number))

        where = self.bound.select.where
        if where is not None:
            rows = [row for row in rows if _eval_predicate(where, row, params)]

        if self._grouped:
            out_rows = _group(rows, self._group_positions, self._outputs)
        elif self._projection is None:
            out_rows = list(rows)
        else:
            projection = self._projection
            out_rows = [tuple(row[i] for i in projection) for row in rows]

        if select.distinct:
            seen: set = set()
            deduped = []
            kept_source_rows = []
            for position, row in enumerate(out_rows):
                key = tuple(normalize_key(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
                    if position < len(rows):
                        kept_source_rows.append(rows[position])
            out_rows = deduped
            # Keep ORDER BY's source rows aligned with the deduplicated output.
            if len(kept_source_rows) == len(out_rows):
                rows = kept_source_rows

        # Stable sorts, last key first, apply each key's direction.
        for idx, descending in reversed(self._order):
            if self._grouped:
                out_rows.sort(key=lambda r: _sort_key(r[idx]), reverse=descending)
            else:
                paired = sorted(
                    zip(rows, out_rows),
                    key=lambda pair: _sort_key(pair[0][idx]),
                    reverse=descending,
                )
                rows = [p[0] for p in paired]
                out_rows = [p[1] for p in paired]

        if select.offset:
            out_rows = out_rows[select.offset:]
        if select.limit is not None:
            out_rows = out_rows[: select.limit]

        return ResultSet(columns=list(self.columns), rows=out_rows)


def compile_plan(
    database: "Database",
    select: ast.Select,
    sql: str | None = None,
    use_indexes: bool = True,
) -> CompiledPlan:
    """Compile ``select`` against ``database`` into a reusable plan."""
    return CompiledPlan(database, select, sql=sql, use_indexes=use_indexes)


# ---------------------------------------------------------------------------
# The plan cache
# ---------------------------------------------------------------------------


class PlanCache:
    """A thread-safe LRU cache of compiled plans, keyed by SQL text.

    The owning database clears it in ``create_table`` (new tables change
    what a SQL text can resolve to).  Data mutations do *not* invalidate
    plans: plans read rows and secondary indexes live at execution time,
    and the tables themselves rebuild stale indexes.
    """

    def __init__(self, max_plans: int = 256) -> None:
        if max_plans < 1:
            raise ValueError("max_plans must be >= 1")
        self.max_plans = max_plans
        self._lock = threading.Lock()
        self._plans: "OrderedDict[tuple[str, bool], CompiledPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __getstate__(self) -> dict[str, Any]:
        # Locks can't be copied/pickled; a copied database starts with a
        # fresh, empty cache (cached plans point at the original tables).
        return {"max_plans": self.max_plans}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(state["max_plans"])

    def get_or_compile(
        self, database: "Database", sql: str, use_indexes: bool = True
    ) -> CompiledPlan:
        from repro.kb.sql.parser import parse

        key = (sql, use_indexes)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.misses += 1
        # Compile outside the lock: parsing + resolution can be slow and
        # must not serialize unrelated queries.  A concurrent duplicate
        # compile is harmless — last writer wins.
        plan = CompiledPlan(database, parse(sql), sql=sql, use_indexes=use_indexes)
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "plans": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "executions": sum(p.executions for p in self._plans.values()),
                "index_probes": sum(
                    p.index_probes for p in self._plans.values()
                ),
            }
