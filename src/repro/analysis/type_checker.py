"""Layer 3: typed symbolic evaluation over template SQL ASTs.

``repro check`` (layer 1) proves the conversation-space artifacts are
*structurally* sound — every table, column, intent and parameter
resolves.  A template can pass all of that and still be semantically
broken: a predicate comparing a TEXT column against a numeric literal, a
join whose condition never links the joined table (cartesian fan-out), a
``LIMIT`` without ``ORDER BY`` that makes answers non-deterministic, or
a filter that no KB row can ever satisfy.  Athena-style ontology-to-SQL
systems catch these classes while interpreting a query; ``repro audit``
catches them at build time by walking each
:class:`~repro.nlq.templates.StructuredQueryTemplate`'s bound query
(parsed and bound once by :func:`~repro.analysis.space_checker.build_artifacts`)
with a *typed symbolic evaluator*: every expression is assigned a
:class:`~repro.kb.types.DataType` (columns by the binder from the KB
schema, parameters from the ontology property they fill from, literals
from their Python type) and every predicate is checked for type
agreement and — using :mod:`repro.kb.statistics` value envelopes —
satisfiability.

Diagnostic codes
----------------
======  ==========================  =======================================
T001    type-mismatch               predicate compares incompatible types
T002    parameter-type-mismatch     parameter's ontology type disagrees
                                    with the compared column's KB type
T003    cartesian-join              join has no equality linking the
                                    joined table to the rest of the query
T004    limit-without-order-by      LIMIT with no ORDER BY is
                                    non-deterministic (warning)
T005    parameter-never-filters     declared parameter never constrains
                                    any predicate
T006    always-false-predicate      no KB row can ever satisfy the
                                    predicate
T007    always-true-predicate       every KB row satisfies the predicate
                                    (redundant; warning)
T008    aggregate-shape             aggregate/GROUP BY shape error
======  ==========================  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, DiagnosticCollector, Location
from repro.analysis.space_checker import (
    SpaceArtifacts,
    artifact_failure,
    build_artifacts,
)
from repro.bootstrap.space import ConversationSpace
from repro.errors import ReproError, SQLSyntaxError
from repro.kb.database import Database
from repro.kb.sql import ast as sql_ast
from repro.kb.sql.binder import BoundColumn, comparable, is_grouped, operand_type
from repro.kb.statistics import ColumnStatistics, TableStatistics
from repro.kb.types import DataType
from repro.nlq.templates import StructuredQueryTemplate
from repro.ontology.model import Ontology

#: Aggregates that require a numeric argument.
_NUMERIC_AGGREGATES = {"SUM", "AVG"}

#: Comparison operators whose outcome a value envelope can bound.
_ORDERING_OPS = {"<", ">", "<=", ">="}


def _loc(name: str) -> Location:
    return Location(path="space:template", symbol=name)


def _describe(expr) -> str:
    """Short human rendering of an operand for messages."""
    if isinstance(expr, sql_ast.ColumnRef):
        return str(expr)
    if isinstance(expr, sql_ast.Parameter):
        return f":{expr.name}"
    if isinstance(expr, sql_ast.Literal):
        return repr(expr.value)
    return type(expr).__name__


@dataclass
class _TemplateScope:
    """Everything the evaluator knows about one template's query."""

    template: StructuredQueryTemplate
    #: the bound query: resolved columns are BoundColumns
    select: sql_ast.Select
    database: Database | None
    ontology: Ontology
    statistics: dict[str, TableStatistics]
    out: DiagnosticCollector
    location: Location
    #: parameters seen inside at least one predicate
    filtering_params: set[str] = field(default_factory=set)

    # -- resolution -------------------------------------------------------

    def column_statistics(self, expr) -> ColumnStatistics | None:
        """Statistics for a bound column, or None for anything else.

        References the binder could not resolve (unknown alias or
        column, ambiguity) are layer-1 territory (C003) and are
        silently skipped here.
        """
        if not isinstance(expr, BoundColumn) or self.database is None:
            return None
        stats = self.statistics.get(expr.table_name.lower())
        if stats is None:
            stats = self.database.statistics(expr.table_name)
            self.statistics[expr.table_name.lower()] = stats
        return stats.column(expr.name)

    def parameter_type(self, param: sql_ast.Parameter) -> DataType | None:
        """The ontology-declared type of the concept filling ``param``.

        The concept's label property is what instance values are
        harvested from (and what templates compare against), so its
        declared type is the parameter's type.  Unknown concepts are
        layer-1 territory (C005).
        """
        concept_name = self.template.parameters.get(param.name)
        if concept_name is None or not self.ontology.has_concept(concept_name):
            return None
        concept = self.ontology.concept(concept_name)
        if concept.label_property is None:
            return None
        prop = concept.data_properties.get(concept.label_property)
        return prop.data_type if prop else None

    def operand_type(self, expr) -> DataType | None:
        if isinstance(expr, sql_ast.Parameter):
            return self.parameter_type(expr)
        return operand_type(expr)


# ---------------------------------------------------------------------------
# Predicate walking (T001, T002, T005 bookkeeping, T006/T007)
# ---------------------------------------------------------------------------


def _walk_predicates(scope: _TemplateScope, expr, *, negated_context: bool) -> None:
    """Recursively check one boolean expression tree.

    ``negated_context`` tracks whether the satisfiability codes
    (T006/T007) may fire: under NOT or inside an OR branch an
    always-false leaf no longer makes the whole filter dead, so the
    envelope checks are suppressed there (type checks still apply).
    """
    if isinstance(expr, sql_ast.And):
        _walk_predicates(scope, expr.left, negated_context=negated_context)
        _walk_predicates(scope, expr.right, negated_context=negated_context)
    elif isinstance(expr, sql_ast.Or):
        _walk_predicates(scope, expr.left, negated_context=True)
        _walk_predicates(scope, expr.right, negated_context=True)
    elif isinstance(expr, sql_ast.Not):
        _walk_predicates(scope, expr.operand, negated_context=True)
    elif isinstance(expr, sql_ast.Comparison):
        _check_comparison(scope, expr, negated_context=negated_context)
    elif isinstance(expr, sql_ast.LikePredicate):
        _check_like(scope, expr)
    elif isinstance(expr, sql_ast.InPredicate):
        _check_in(scope, expr)
    elif isinstance(expr, sql_ast.IsNullPredicate):
        _check_is_null(scope, expr, negated_context=negated_context)


def _note_params(scope: _TemplateScope, *operands) -> None:
    for operand in operands:
        if isinstance(operand, sql_ast.Parameter):
            scope.filtering_params.add(operand.name)


def _check_operand_pair(scope: _TemplateScope, left, right, op: str) -> bool:
    """Shared T001/T002 check for one operand pair; True when well-typed."""
    left_type = scope.operand_type(left)
    right_type = scope.operand_type(right)
    if left_type is None or right_type is None:
        return True  # unresolvable operands are layer-1 findings
    if comparable(left_type, right_type):
        return True
    # A parameter on either side makes this an ontology/KB disagreement.
    if isinstance(left, sql_ast.Parameter) or isinstance(right, sql_ast.Parameter):
        param, other = (
            (left, right) if isinstance(left, sql_ast.Parameter) else (right, left)
        )
        concept = scope.template.parameters.get(param.name, "?")
        param_type = scope.operand_type(param)
        other_type = scope.operand_type(other)
        scope.out.error(
            "T002",
            f"parameter :{param.name} fills from concept {concept!r} "
            f"(ontology type {param_type.value}) but is compared "
            f"{op} {_describe(other)} of KB type {other_type.value}",
            scope.location,
            rule="parameter-type-mismatch",
        )
    else:
        scope.out.error(
            "T001",
            f"predicate {_describe(left)} {op} {_describe(right)} compares "
            f"{left_type.value} against {right_type.value}",
            scope.location,
            rule="type-mismatch",
        )
    return False


def _check_comparison(
    scope: _TemplateScope, cmp: sql_ast.Comparison, *, negated_context: bool
) -> None:
    _note_params(scope, cmp.left, cmp.right)
    if not _check_operand_pair(scope, cmp.left, cmp.right, cmp.op):
        return
    if not negated_context:
        _check_satisfiability(scope, cmp)


def _check_like(scope: _TemplateScope, like: sql_ast.LikePredicate) -> None:
    _note_params(scope, like.operand, like.pattern)
    for side, label in ((like.operand, "operand"), (like.pattern, "pattern")):
        side_type = scope.operand_type(side)
        if side_type is not None and side_type is not DataType.TEXT:
            if isinstance(side, sql_ast.Parameter):
                concept = scope.template.parameters.get(side.name, "?")
                scope.out.error(
                    "T002",
                    f"parameter :{side.name} fills from concept {concept!r} "
                    f"(ontology type {side_type.value}) but is the {label} "
                    "of a LIKE, which requires text",
                    scope.location,
                    rule="parameter-type-mismatch",
                )
            else:
                scope.out.error(
                    "T001",
                    f"LIKE {label} {_describe(side)} is {side_type.value}, "
                    "not text",
                    scope.location,
                    rule="type-mismatch",
                )


def _check_in(scope: _TemplateScope, pred: sql_ast.InPredicate) -> None:
    _note_params(scope, pred.operand, *pred.values)
    for value in pred.values:
        _check_operand_pair(scope, pred.operand, value, "IN")


def _check_is_null(
    scope: _TemplateScope, pred: sql_ast.IsNullPredicate, *, negated_context: bool
) -> None:
    if negated_context or not isinstance(pred.operand, sql_ast.ColumnRef):
        return
    stats = scope.column_statistics(pred.operand)
    if stats is None or stats.row_count == 0:
        return
    if stats.null_count == 0:
        if pred.negated:  # IS NOT NULL over a null-free column
            scope.out.warning(
                "T007",
                f"predicate {_describe(pred.operand)} IS NOT NULL is always "
                f"true: the column has no NULLs in the KB",
                scope.location,
                rule="always-true-predicate",
            )
        else:
            scope.out.error(
                "T006",
                f"predicate {_describe(pred.operand)} IS NULL is always "
                f"false: the column has no NULLs in the KB",
                scope.location,
                rule="always-false-predicate",
            )
    elif stats.null_count == stats.row_count and not pred.negated:
        scope.out.warning(
            "T007",
            f"predicate {_describe(pred.operand)} IS NULL is always true: "
            "the column is entirely NULL in the KB",
            scope.location,
            rule="always-true-predicate",
        )


def _check_satisfiability(scope: _TemplateScope, cmp: sql_ast.Comparison) -> None:
    """T006/T007: bound a column-vs-literal predicate by the KB envelope."""
    if isinstance(cmp.left, sql_ast.ColumnRef) and isinstance(
        cmp.right, sql_ast.Literal
    ):
        column, literal, op = cmp.left, cmp.right, cmp.op
    elif isinstance(cmp.right, sql_ast.ColumnRef) and isinstance(
        cmp.left, sql_ast.Literal
    ):
        # Normalize "lit op col" to "col op' lit" by flipping the operator.
        flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}
        column, literal, op = cmp.right, cmp.left, flip.get(cmp.op, cmp.op)
    else:
        return
    if literal.value is None:
        return
    stats = scope.column_statistics(column)
    if stats is None or stats.row_count == 0:
        return
    non_null = stats.row_count - stats.null_count

    def always_false(reason: str) -> None:
        scope.out.error(
            "T006",
            f"predicate {_describe(column)} {cmp.op} {_describe(literal)} is "
            f"always false: {reason}",
            scope.location,
            rule="always-false-predicate",
        )

    def always_true(reason: str) -> None:
        scope.out.warning(
            "T007",
            f"predicate {_describe(column)} {cmp.op} {_describe(literal)} is "
            f"always true: {reason} — the filter is redundant",
            scope.location,
            rule="always-true-predicate",
        )

    if op == "=" and stats.values is not None:
        if literal.value not in stats.values:
            always_false(
                f"no row of {stats.table!r}.{stats.column} holds this value"
            )
        elif stats.distinct_count == 1 and stats.null_count == 0:
            always_true(f"every row of {stats.table!r}.{stats.column} holds it")
        return
    if op == "<>" and stats.values is not None:
        if literal.value not in stats.values and stats.null_count == 0:
            always_true(
                f"no row of {stats.table!r}.{stats.column} holds this value"
            )
        return
    if op in _ORDERING_OPS:
        lo, hi = stats.min_value, stats.max_value
        if lo is None or hi is None or not isinstance(
            literal.value, (int, float)
        ) or isinstance(literal.value, bool):
            return
        value = literal.value
        envelope = f"KB range is [{lo}, {hi}]"
        dead = (
            (op == "<" and value <= lo)
            or (op == "<=" and value < lo)
            or (op == ">" and value >= hi)
            or (op == ">=" and value > hi)
        )
        if dead and non_null > 0:
            always_false(envelope)
            return
        full = (
            (op == "<" and value > hi)
            or (op == "<=" and value >= hi)
            or (op == ">" and value < lo)
            or (op == ">=" and value <= lo)
        )
        if full and stats.null_count == 0:
            always_true(envelope)


# ---------------------------------------------------------------------------
# Join linkage (T003)
# ---------------------------------------------------------------------------


def _equality_links(expr) -> list[tuple[str, str]]:
    """(left_binding, right_binding) pairs of column=column equalities
    found under AND conjunctions of ``expr`` (lowercased; unqualified
    references yield an empty binding)."""
    if isinstance(expr, sql_ast.And):
        return _equality_links(expr.left) + _equality_links(expr.right)
    if (
        isinstance(expr, sql_ast.Comparison)
        and expr.op == "="
        and isinstance(expr.left, sql_ast.ColumnRef)
        and isinstance(expr.right, sql_ast.ColumnRef)
    ):
        return [((expr.left.table or "").lower(), (expr.right.table or "").lower())]
    return []


def _check_joins(scope: _TemplateScope) -> None:
    """Every join needs an equality tying the new table to prior scope."""
    select = scope.select
    available = {select.source.binding.lower()}
    for join in select.joins:
        binding = join.table.binding.lower()
        linked = False
        for left, right in _equality_links(join.condition):
            pair = {left, right}
            if binding in pair and (pair & available or "" in pair - {binding}):
                linked = True
                break
        if not linked:
            scope.out.error(
                "T003",
                f"join of {join.table.table!r} has no equality predicate "
                "linking it to the joined tables — the join degenerates "
                "into a cross product",
                scope.location,
                rule="cartesian-join",
            )
        available.add(binding)


# ---------------------------------------------------------------------------
# Result shape (T004, T008)
# ---------------------------------------------------------------------------


def _check_shape(scope: _TemplateScope) -> None:
    select = scope.select
    if select.limit is not None and not select.order_by:
        scope.out.warning(
            "T004",
            f"LIMIT {select.limit} without ORDER BY returns an arbitrary "
            "subset — answers become non-deterministic",
            scope.location,
            rule="limit-without-order-by",
        )

    if is_grouped(select) and all(
        isinstance(col, BoundColumn) for col in select.group_by
    ):
        # Matched by bound row position, as the planner does: the same
        # column name on another table is not the grouped column.  An
        # unresolved reference is layer 1's C003 and is skipped here.
        grouped = {col.position for col in select.group_by}
        for item in select.items:
            expr = item.expression
            if not isinstance(expr, BoundColumn) or expr.position in grouped:
                continue
            scope.out.error(
                "T008",
                f"projected column {expr} is neither aggregated nor in "
                "GROUP BY — its value per group is arbitrary",
                scope.location,
                rule="aggregate-shape",
            )
    for item in select.items:
        expr = item.expression
        if (
            isinstance(expr, sql_ast.Aggregate)
            and expr.function.upper() in _NUMERIC_AGGREGATES
            and expr.argument is not None
        ):
            arg_type = operand_type(expr.argument)
            if arg_type in (DataType.TEXT, DataType.BOOLEAN):
                scope.out.error(
                    "T008",
                    f"{expr.function.upper()}({expr.argument}) aggregates a "
                    f"{arg_type.value} column — only numeric columns can be "
                    "summed or averaged",
                    scope.location,
                    rule="aggregate-shape",
                )


# ---------------------------------------------------------------------------
# Parameter dataflow (T005)
# ---------------------------------------------------------------------------


def _check_parameter_flow(scope: _TemplateScope) -> None:
    for name in scope.template.parameters:
        if name not in scope.filtering_params:
            scope.out.error(
                "T005",
                f"declared parameter {name!r} never reaches a predicate — "
                "binding it cannot influence the result",
                scope.location,
                rule="parameter-never-filters",
            )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def check_types(artifacts: SpaceArtifacts) -> list[Diagnostic]:
    """Typed symbolic evaluation over every template of a space.

    Templates whose SQL does not parse are skipped — that is layer 1's
    C001.
    """
    out = DiagnosticCollector()
    statistics: dict[str, TableStatistics] = {}
    for templates in artifacts.templates.values():
        for template in templates:
            bound = artifacts.queries[template.sql]
            if isinstance(bound, SQLSyntaxError):
                continue
            scope = _TemplateScope(
                template=template,
                select=bound.select,
                database=artifacts.database,
                ontology=artifacts.space.ontology,
                statistics=statistics,
                out=out,
                location=_loc(template.intent_name),
            )
            for join in scope.select.joins:
                _walk_predicates(scope, join.condition, negated_context=False)
            if scope.select.where is not None:
                _walk_predicates(scope, scope.select.where, negated_context=False)
            _check_joins(scope)
            _check_shape(scope)
            _check_parameter_flow(scope)
    return out.sorted()


def check_space_types(
    space: ConversationSpace, database: Database | None = None
) -> list[Diagnostic]:
    """Convenience wrapper: derive artifacts, then run :func:`check_types`."""
    if database is None:
        database = space.database
    try:
        artifacts = build_artifacts(space, database)
    except ReproError as exc:
        return [artifact_failure("T001", exc, space)]
    return check_types(artifacts)
