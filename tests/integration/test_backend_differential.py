"""The SQL edge corpus: the in-memory engine's answers, pinned as typed rows.

The in-memory engine is the KB's one executor, and it departs from
standard SQL on purpose (DESIGN.md, "The in-memory engine"): two-valued
NULL logic, case-folded text, booleans as a real type, deterministic
enumeration order with stable ties, first-occurrence DISTINCT.  Each
query below carries its expected column names and rows as literals, with
their runtime types (``True`` is not ``1``, ``1.5`` is not ``'1.5'``).
The rows were recorded when this engine and a SQLite lowering of the
same SQL agreed on every one of them, so they also pin the dialect
against real SQL semantics.

The corpus covers NULL ordering, ORDER BY ties, LIMIT/OFFSET, DISTINCT
over case-folded duplicates, boolean keys, LIKE, IN, NOT and joins.
Every query runs on both the indexed plan and the full-scan plan.
"""

from __future__ import annotations

import pytest

from repro.errors import AmbiguousColumnError, BindingError
from repro.kb import Column, Database, DataType, TableSchema


def typed_rows(rows) -> list[list[tuple[str, object]]]:
    """Rows with the concrete runtime type of every value made explicit."""
    return [[(type(v).__name__, v) for v in row] for row in rows]


def make_edge_database() -> Database:
    db = Database("edges")
    db.create_table(TableSchema(
        "t",
        [Column("id", DataType.INTEGER, nullable=False),
         Column("name", DataType.TEXT),
         Column("rank", DataType.INTEGER),
         Column("score", DataType.FLOAT),
         Column("flag", DataType.BOOLEAN)],
        primary_key="id",
    ))
    rows = [
        (1, "Alpha", 2, 1.5, True),
        (2, "beta", 1, None, False),
        (3, None, 2, 0.5, True),
        (4, "ALPHA", 1, 2.5, None),
        (5, "gamma", None, 1.5, False),
        (6, "Beta", 2, 1.5, True),
        (7, None, 1, None, None),
    ]
    for id_, name, rank, score, flag in rows:
        db.insert("t", {"id": id_, "name": name, "rank": rank,
                        "score": score, "flag": flag})
    db.create_table(TableSchema(
        "u",
        [Column("id", DataType.INTEGER, nullable=False),
         Column("t_id", DataType.INTEGER),
         Column("note", DataType.TEXT)],
        primary_key="id",
    ))
    for id_, t_id, note in [(1, 1, "x"), (2, 1, "y"), (3, 3, "z"),
                            (4, 9, "dangling"), (5, None, "orphan")]:
        db.insert("u", {"id": id_, "t_id": t_id, "note": note})
    return db


#: (sql, params, expected columns, expected rows)
EDGE_QUERIES = [
    # NULL ordering, ascending and descending: NULL sorts first.
    ('SELECT id, rank FROM t ORDER BY rank', {},
     ('id', 'rank'),
     [(5, None), (2, 1), (4, 1), (7, 1), (1, 2), (3, 2), (6, 2)]),
    ('SELECT id, rank FROM t ORDER BY rank DESC', {},
     ('id', 'rank'),
     [(1, 2), (3, 2), (6, 2), (2, 1), (4, 1), (7, 1), (5, None)]),
    ('SELECT id, name FROM t ORDER BY name', {},
     ('id', 'name'),
     [(3, None), (7, None), (1, 'Alpha'), (4, 'ALPHA'), (2, 'beta'), (6, 'Beta'), (5, 'gamma')]),
    ('SELECT id, name FROM t ORDER BY name DESC, id DESC', {},
     ('id', 'name'),
     [(5, 'gamma'), (6, 'Beta'), (2, 'beta'), (4, 'ALPHA'), (1, 'Alpha'), (7, None), (3, None)]),
    # ORDER BY ties: insertion order breaks them (stable sort).
    ('SELECT id FROM t ORDER BY rank, score', {},
     ('id',),
     [(5,), (2,), (7,), (4,), (3,), (1,), (6,)]),
    ('SELECT id FROM t ORDER BY score DESC', {},
     ('id',),
     [(4,), (1,), (5,), (6,), (3,), (2,), (7,)]),
    # LIMIT / OFFSET over a tied ordering.
    ('SELECT id FROM t ORDER BY rank LIMIT 3', {},
     ('id',),
     [(5,), (2,), (4,)]),
    ('SELECT id FROM t ORDER BY rank LIMIT 3 OFFSET 2', {},
     ('id',),
     [(4,), (7,), (1,)]),
    ('SELECT id FROM t ORDER BY rank LIMIT 100 OFFSET 5', {},
     ('id',),
     [(3,), (6,)]),
    # DISTINCT: case-folded text keys, NULL keys, bool keys, multi-column;
    # the first occurrence of each key is kept.
    ('SELECT DISTINCT name FROM t', {},
     ('name',),
     [('Alpha',), ('beta',), (None,), ('gamma',)]),
    ('SELECT DISTINCT name FROM t ORDER BY name', {},
     ('name',),
     [(None,), ('Alpha',), ('beta',), ('gamma',)]),
    ('SELECT DISTINCT rank FROM t ORDER BY rank DESC', {},
     ('rank',),
     [(2,), (1,), (None,)]),
    ('SELECT DISTINCT flag FROM t', {},
     ('flag',),
     [(True,), (False,), (None,)]),
    ('SELECT DISTINCT rank, score FROM t ORDER BY rank', {},
     ('rank', 'score'),
     [(None, 1.5), (1, None), (1, 2.5), (2, 1.5), (2, 0.5)]),
    ('SELECT DISTINCT name FROM t ORDER BY name LIMIT 2 OFFSET 1', {},
     ('name',),
     [('Alpha',), ('beta',)]),
    # Two-valued NULL logic under NOT / comparisons.
    ('SELECT id FROM t WHERE rank = 2', {},
     ('id',),
     [(1,), (3,), (6,)]),
    ('SELECT id FROM t WHERE NOT rank = 2', {},
     ('id',),
     [(2,), (4,), (5,), (7,)]),
    ('SELECT id FROM t WHERE score > 1.0', {},
     ('id',),
     [(1,), (4,), (5,), (6,)]),
    ('SELECT id FROM t WHERE NOT score > 1.0', {},
     ('id',),
     [(2,), (3,), (7,)]),
    ('SELECT id FROM t WHERE rank IS NULL', {},
     ('id',),
     [(5,)]),
    ('SELECT id FROM t WHERE rank IS NOT NULL', {},
     ('id',),
     [(1,), (2,), (3,), (4,), (6,), (7,)]),
    # Case-insensitive text equality and LIKE.
    ("SELECT id FROM t WHERE name = 'alpha'", {},
     ('id',),
     [(1,), (4,)]),
    ('SELECT id FROM t WHERE name = :n', {'n': 'BETA'},
     ('id',),
     [(2,), (6,)]),
    ("SELECT id FROM t WHERE name LIKE 'a%'", {},
     ('id',),
     [(1,), (4,)]),
    ("SELECT id FROM t WHERE name NOT LIKE '%a'", {},
     ('id',),
     [(3,), (7,)]),
    # IN lists, including NULL members and negation.
    ('SELECT id FROM t WHERE rank IN (1, 3)', {},
     ('id',),
     [(2,), (4,), (7,)]),
    ('SELECT id FROM t WHERE rank NOT IN (1, 3)', {},
     ('id',),
     [(1,), (3,), (5,), (6,)]),
    ("SELECT id FROM t WHERE name IN ('ALPHA', 'gamma')", {},
     ('id',),
     [(1,), (4,), (5,)]),
    ('SELECT id FROM t WHERE rank IN (:a, :b)', {'a': 1, 'b': None},
     ('id',),
     [(2,), (4,), (7,)]),
    # Booleans are a real type.
    ('SELECT id, flag FROM t WHERE flag = TRUE', {},
     ('id', 'flag'),
     [(1, True), (3, True), (6, True)]),
    ('SELECT id FROM t WHERE flag = FALSE ORDER BY id DESC', {},
     ('id',),
     [(5,), (2,)]),
    ('SELECT id FROM t WHERE flag = :f', {'f': True},
     ('id',),
     [(1,), (3,), (6,)]),
    # Joins: enumeration order, NULL join keys, dangling FKs.
    ('SELECT t.id, u.note FROM t JOIN u ON u.t_id = t.id', {},
     ('id', 'note'),
     [(1, 'x'), (1, 'y'), (3, 'z')]),
    ('SELECT t.id, u.note FROM t JOIN u ON u.t_id = t.id ORDER BY u.note', {},
     ('id', 'note'),
     [(1, 'x'), (1, 'y'), (3, 'z')]),
    ('SELECT DISTINCT t.flag FROM t JOIN u ON u.t_id = t.id', {},
     ('flag',),
     [(True,)]),
    # Compound predicates mixing the above.
    ('SELECT id FROM t WHERE rank = 2 AND score > 1.0 OR flag = FALSE', {},
     ('id',),
     [(1,), (2,), (5,), (6,)]),
    ("SELECT id FROM t WHERE NOT (name = 'alpha' OR rank = 1)", {},
     ('id',),
     [(3,), (5,), (6,)]),
]


class TestEdgeCorpus:
    @pytest.fixture(scope="class")
    def database(self):
        return make_edge_database()

    @pytest.mark.parametrize("sql,params,columns,rows", EDGE_QUERIES,
                             ids=[sql for sql, *_ in EDGE_QUERIES])
    def test_byte_identical(self, database, sql, params, columns, rows):
        for use_indexes in (True, False):
            result = database.prepare(sql, use_indexes=use_indexes).execute(
                params
            )
            assert tuple(result.columns) == columns
            assert typed_rows(result.rows) == typed_rows(rows)

    def test_ambiguous_column_fails_identically(self, database):
        # ``id`` is a column of both t and u; the binder names it at
        # prepare, before any row is read.
        with pytest.raises(AmbiguousColumnError):
            database.prepare("SELECT id FROM t JOIN u ON u.t_id = t.id")


class TestBoundParameters:
    """Bound values follow the same dialect as literals, on both paths."""

    @pytest.fixture(scope="class")
    def database(self):
        return make_edge_database()

    @pytest.mark.parametrize("sql,params,ids", [
        # A text value never equals an integer column ('3' = 3 is false).
        ("SELECT id FROM t WHERE id = :v", {"v": "3"}, []),
        ("SELECT id FROM t WHERE id = :v", {"v": 3}, [3]),
        # NaN equals nothing.
        ("SELECT id FROM t WHERE score = :v", {"v": float("nan")}, []),
        # An integer 1 is not TRUE.
        ("SELECT id FROM t WHERE flag = :v", {"v": 1}, []),
        ("SELECT id FROM t WHERE flag = :v", {"v": True}, [1, 3, 6]),
    ])
    def test_binding_dialect(self, database, sql, params, ids):
        for use_indexes in (True, False):
            plan = database.prepare(sql, use_indexes=use_indexes)
            assert [row[0] for row in plan.execute(params).rows] == ids

    def test_missing_parameter_raises_when_read(self, database):
        with pytest.raises(BindingError, match="missing parameter"):
            database.query("SELECT id FROM t WHERE id = :v")
