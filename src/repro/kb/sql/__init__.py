"""SQL subset engine: lexer, parser and executor.

Supports the statement shape used by the paper's structured query
templates (Figure 9) and the surrounding tooling::

    SELECT [DISTINCT] cols | aggregates
    FROM table [alias]
    [INNER|LEFT] JOIN table [alias] ON <expr> ...
    [WHERE <expr>]
    [GROUP BY cols]
    [ORDER BY col [ASC|DESC], ...]
    [LIMIT n] [OFFSET n]

with named parameters written ``:name`` (the template layer binds these).

Execution is split in three layers: :func:`bind` resolves and types
every column reference of a parsed SELECT once (the planner and both
template checkers read its result),
:mod:`repro.kb.sql.planner` compiles the bound SELECT into a reusable
:class:`CompiledPlan` (join strategy, secondary-index pushdown), and
:mod:`repro.kb.sql.executor` holds the row-at-a-time evaluation
primitives.
"""

from repro.kb.sql.binder import bind
from repro.kb.sql.parser import parse
from repro.kb.sql.planner import CompiledPlan, PlanCache, QueryPlan, compile_plan
from repro.kb.sql.result import ResultSet

__all__ = [
    "CompiledPlan",
    "PlanCache",
    "QueryPlan",
    "ResultSet",
    "bind",
    "compile_plan",
    "parse",
]
