"""SQL evaluation primitives: predicates, aggregates, grouping.

Planning — binding, join strategy, index selection, predicate pushdown
— lives in :mod:`repro.kb.sql.planner`, which compiles a parsed SELECT
into a reusable :class:`~repro.kb.sql.planner.CompiledPlan`; the
functions here evaluate its bound expressions row by row, reading each
column at the position :func:`~repro.kb.sql.binder.bind` assigned it.

NULL semantics are simplified two-valued logic: any comparison against
NULL is false (matching what the paper's lookup/relationship templates
need, without implementing full SQL three-valued logic).  Every
equality path — nested loop, hash join, and secondary-index probe —
shares :func:`repro.kb.types.normalize_key`, so NULL join keys never
match (not even NULL == NULL) and booleans never silently match
integers on any path.
"""

from __future__ import annotations

from typing import Any

from repro.errors import BindingError, SQLExecutionError
from repro.kb.sql import ast
from repro.kb.sql.binder import BoundColumn
from repro.kb.types import is_comparable, normalize_key


def _eval_operand(node: ast.Expression, row: tuple, params: dict[str, Any]) -> Any:
    if isinstance(node, BoundColumn):
        return row[node.position]
    if isinstance(node, ast.Literal):
        return node.value
    if isinstance(node, ast.Parameter):
        if node.name not in params:
            raise BindingError(f"missing parameter :{node.name}")
        return params[node.name]
    raise SQLExecutionError(f"expected a value operand, got {type(node).__name__}")


def _values_equal(left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    if isinstance(left, str) and isinstance(right, str):
        return left.lower() == right.lower()
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    return left == right


def _like_match(value: Any, pattern: Any) -> bool:
    if value is None or pattern is None:
        return False
    text = str(value).lower()
    pat = str(pattern).lower()
    # Translate SQL wildcards into a simple backtracking match.
    return _wildcard_match(text, pat)


def _wildcard_match(text: str, pattern: str) -> bool:
    """Match SQL LIKE semantics: % = any run, _ = any single char."""
    ti = pi = 0
    star_pi = -1
    star_ti = 0
    while ti < len(text):
        if pi < len(pattern) and (pattern[pi] == "_" or pattern[pi] == text[ti]):
            ti += 1
            pi += 1
        elif pi < len(pattern) and pattern[pi] == "%":
            star_pi = pi
            star_ti = ti
            pi += 1
        elif star_pi >= 0:
            star_ti += 1
            ti = star_ti
            pi = star_pi + 1
        else:
            return False
    while pi < len(pattern) and pattern[pi] == "%":
        pi += 1
    return pi == len(pattern)


def _eval_predicate(node: ast.Expression, row: tuple, params: dict[str, Any]) -> bool:
    if isinstance(node, ast.And):
        return _eval_predicate(node.left, row, params) and _eval_predicate(
            node.right, row, params
        )
    if isinstance(node, ast.Or):
        return _eval_predicate(node.left, row, params) or _eval_predicate(
            node.right, row, params
        )
    if isinstance(node, ast.Not):
        return not _eval_predicate(node.operand, row, params)
    if isinstance(node, ast.Comparison):
        left = _eval_operand(node.left, row, params)
        right = _eval_operand(node.right, row, params)
        if node.op == "=":
            return _values_equal(left, right)
        if node.op == "<>":
            if left is None or right is None:
                return False
            return not _values_equal(left, right)
        if not is_comparable(left, right):
            return False
        if isinstance(left, str) and isinstance(right, str):
            left = left.lower()
            right = right.lower()
        if node.op == "<":
            return left < right
        if node.op == ">":
            return left > right
        if node.op == "<=":
            return left <= right
        if node.op == ">=":
            return left >= right
        raise SQLExecutionError(f"unknown comparison operator {node.op!r}")
    if isinstance(node, ast.LikePredicate):
        matched = _like_match(
            _eval_operand(node.operand, row, params),
            _eval_operand(node.pattern, row, params),
        )
        return not matched if node.negated else matched
    if isinstance(node, ast.InPredicate):
        value = _eval_operand(node.operand, row, params)
        found = any(
            _values_equal(value, _eval_operand(item, row, params))
            for item in node.values
        )
        return not found if node.negated else found
    if isinstance(node, ast.IsNullPredicate):
        value = _eval_operand(node.operand, row, params)
        return (value is not None) if node.negated else (value is None)
    raise SQLExecutionError(f"cannot evaluate {type(node).__name__} as predicate")


def _aggregate_value(agg: ast.Aggregate, rows: list[tuple]) -> Any:
    if agg.argument is None:  # COUNT(*)
        return len(rows)
    idx = agg.argument.position
    values = [row[idx] for row in rows if row[idx] is not None]
    if agg.distinct:
        seen: dict[Any, Any] = {}
        for value in values:
            seen.setdefault(normalize_key(value), value)
        values = list(seen.values())
    func = agg.function
    if func == "COUNT":
        return len(values)
    if not values:
        return None
    if func == "SUM":
        return sum(values)
    if func == "AVG":
        return sum(values) / len(values)
    if func == "MIN":
        return min(values)
    if func == "MAX":
        return max(values)
    raise SQLExecutionError(f"unknown aggregate {func!r}")


def _sort_key(value: Any) -> tuple:
    # NULLs sort first; strings case-insensitively.
    if value is None:
        return (0, "")
    if isinstance(value, str):
        return (1, value.lower())
    if isinstance(value, bool):
        return (1, int(value))
    return (1, value)


def _group(
    rows: list[tuple],
    group_positions: tuple[int, ...],
    outputs: tuple[int | ast.Aggregate, ...],
) -> list[tuple]:
    """Reduce ``rows`` to one output row per group, in first-seen order.

    ``outputs`` holds, per projected item, a grouping column's row
    position or an aggregate (with a bound argument).  Without GROUP BY
    the whole input is one group.
    """
    groups: dict[tuple, list[tuple]] = {}
    if group_positions:
        for row in rows:
            key = tuple(normalize_key(row[i]) for i in group_positions)
            groups.setdefault(key, []).append(row)
    else:
        groups[()] = rows
    return [
        tuple(
            _aggregate_value(output, group_rows)
            if isinstance(output, ast.Aggregate) else group_rows[0][output]
            for output in outputs
        )
        for group_rows in groups.values()
    ]
