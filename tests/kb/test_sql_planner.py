"""Tests for the query planner: indexes, plan cache, pushdown, coherence.

The overarching invariant: a plan compiled with ``use_indexes=False``
(the reference full-scan path) and one with ``use_indexes=True`` return
byte-identical result sets for every query, so each behavioral test
here runs both paths and compares them before asserting anything else.
"""

import copy

import pytest

from repro.errors import (
    AmbiguousColumnError,
    SQLExecutionError,
    UnknownColumnError,
)
from repro.kb import Column, Database, DataType, TableSchema
from repro.kb.sql import PlanCache
from repro.kb.types import normalize_key


def both_paths(db, sql, params=None):
    """Execute on the scan and indexed paths; assert identical; return one."""
    scan = db.prepare(sql, use_indexes=False).execute(params)
    indexed = db.prepare(sql, use_indexes=True).execute(params)
    assert scan.columns == indexed.columns
    assert scan.rows == indexed.rows
    return indexed


@pytest.fixture
def db() -> Database:
    db = Database("planner-test")
    db.create_table(
        TableSchema(
            "drug",
            [
                Column("drug_id", DataType.INTEGER),
                Column("name", DataType.TEXT),
                Column("tier", DataType.INTEGER, nullable=True),
            ],
            primary_key="drug_id",
        )
    )
    db.create_table(
        TableSchema(
            "dose",
            [
                Column("dose_id", DataType.INTEGER),
                Column("drug_id", DataType.INTEGER, nullable=True),
                Column("amount", DataType.FLOAT),
            ],
            primary_key="dose_id",
        )
    )
    db.insert("drug", {"drug_id": 1, "name": "Aspirin", "tier": 1})
    db.insert("drug", {"drug_id": 2, "name": "Ibuprofen", "tier": 1})
    db.insert("drug", {"drug_id": 3, "name": "Metformin", "tier": None})
    db.insert("dose", {"dose_id": 10, "drug_id": 1, "amount": 100.0})
    db.insert("dose", {"dose_id": 11, "drug_id": 1, "amount": 300.0})
    db.insert("dose", {"dose_id": 12, "drug_id": 2, "amount": 200.0})
    db.insert("dose", {"dose_id": 13, "drug_id": None, "amount": 50.0})
    return db


class TestSecondaryIndex:
    def test_probe_equals_scan(self, db):
        result = both_paths(
            db, "SELECT drug_id FROM drug WHERE name = :n", {"n": "ASPIRIN"}
        )
        assert result.rows == [(1,)]

    def test_index_is_lazy_and_cached(self, db):
        table = db.table("drug")
        assert table.index_stats()["builds"] == 0
        first = table.secondary_index("name")
        again = table.secondary_index("name")
        assert first is again
        assert table.index_stats()["builds"] == 1

    def test_mutation_invalidates_index(self, db):
        table = db.table("drug")
        table.secondary_index("name")
        db.insert("drug", {"drug_id": 4, "name": "Lisinopril"})
        assert table.index_stats()["indexes"] == 0
        result = both_paths(
            db, "SELECT drug_id FROM drug WHERE name = 'Lisinopril'"
        )
        assert result.rows == [(4,)]

    def test_nulls_excluded_from_index(self, db):
        index = db.table("drug").secondary_index("tier")
        assert None not in index
        assert sum(len(v) for v in index.values()) == 2

    def test_in_pushdown(self, db):
        result = both_paths(
            db, "SELECT name FROM drug WHERE drug_id IN (1, 3) ORDER BY name"
        )
        assert result.rows == [("Aspirin",), ("Metformin",)]

    def test_pushdown_on_joined_table(self, db):
        # The dominant MDX shape: the filter constrains the *joined*
        # table, not the FROM table.
        result = both_paths(
            db,
            "SELECT o.amount FROM dose o "
            "JOIN drug d ON o.drug_id = d.drug_id WHERE d.name = :n",
            {"n": "aspirin"},
        )
        assert result.rows == [(100.0,), (300.0,)]

    def test_plan_reports_index_decisions(self, db):
        sql = (
            "SELECT o.amount FROM dose o "
            "JOIN drug d ON o.drug_id = d.drug_id WHERE d.name = :n"
        )
        indexed = db.prepare(sql).plan()
        scan = db.prepare(sql, use_indexes=False).plan()
        assert indexed.uses_index
        assert not scan.uses_index
        assert "index-lookup" in db.explain(sql)
        assert "scan" in scan.explain()


class TestEqualityKeySemantics:
    """NULL and bool/int join keys must agree on every equality path."""

    @pytest.fixture
    def flagged(self) -> Database:
        db = Database("flags")
        db.create_table(
            TableSchema(
                "lhs",
                [
                    Column("id", DataType.INTEGER),
                    Column("flag", DataType.BOOLEAN, nullable=True),
                ],
                primary_key="id",
            )
        )
        db.create_table(
            TableSchema(
                "rhs",
                [
                    Column("id", DataType.INTEGER),
                    Column("code", DataType.INTEGER, nullable=True),
                ],
                primary_key="id",
            )
        )
        db.insert("lhs", {"id": 1, "flag": True})
        db.insert("lhs", {"id": 2, "flag": None})
        db.insert("rhs", {"id": 10, "code": 1})
        db.insert("rhs", {"id": 11, "code": None})
        return db

    def test_normalize_key_tags_bools(self):
        assert normalize_key(True) != normalize_key(1)
        assert normalize_key("ABC") == normalize_key("abc")
        assert normalize_key(None) is None

    def test_bool_never_joins_int(self, flagged):
        # TRUE = 1 is false row-at-a-time; the hash/index paths must
        # agree instead of silently matching via Python's True == 1.
        result = both_paths(
            flagged,
            "SELECT l.id, r.id FROM lhs l JOIN rhs r ON l.flag = r.code",
        )
        assert result.rows == []

    def test_null_keys_never_match(self, db):
        # dose 13 has drug_id NULL: inner join drops it on every path.
        result = both_paths(
            db,
            "SELECT o.dose_id FROM dose o "
            "JOIN drug d ON o.drug_id = d.drug_id ORDER BY o.dose_id",
        )
        assert result.rows == [(10,), (11,), (12,)]

    def test_null_keys_pad_left_join(self, db):
        result = both_paths(
            db,
            "SELECT o.dose_id, d.name FROM dose o "
            "LEFT JOIN drug d ON o.drug_id = d.drug_id ORDER BY o.dose_id",
        )
        assert result.rows[-1] == (13, None)

    def test_left_join_with_pushed_filter(self, db):
        # A null-rejecting filter under a LEFT JOIN: padded rows are
        # dropped identically whether or not the filter was pushed down.
        result = both_paths(
            db,
            "SELECT o.dose_id FROM dose o "
            "LEFT JOIN drug d ON o.drug_id = d.drug_id "
            "WHERE d.name = 'aspirin' ORDER BY o.dose_id",
        )
        assert result.rows == [(10,), (11,)]


class TestAmbiguousColumns:
    def test_candidates_named(self, db):
        with pytest.raises(AmbiguousColumnError) as excinfo:
            both_paths(
                db,
                "SELECT drug_id FROM drug d "
                "JOIN dose o ON o.drug_id = d.drug_id",
            )
        assert excinfo.value.candidates == ("d.drug_id", "o.drug_id")
        assert "d.drug_id" in str(excinfo.value)
        assert "o.drug_id" in str(excinfo.value)

    def test_is_deterministic_diagnostic_family(self, db):
        # Catchable both as the legacy SQLExecutionError and as the
        # column-resolution family.
        sql = "SELECT drug_id FROM drug d JOIN dose o ON o.drug_id = d.drug_id"
        with pytest.raises(SQLExecutionError):
            db.query(sql)
        with pytest.raises(UnknownColumnError):
            db.query(sql)

    def test_raised_at_prepare_time_in_where(self, db):
        # Even when an index prefilter would leave zero rows, resolution
        # errors in WHERE must still surface.
        with pytest.raises(AmbiguousColumnError):
            db.prepare(
                "SELECT d.name FROM drug d "
                "JOIN dose o ON o.drug_id = d.drug_id "
                "WHERE name = 'nosuch' AND drug_id = 99"
            )


class TestOrderLimitOffset:
    def test_order_by_ties_are_stable(self, db):
        # tier=1 ties between Aspirin and Ibuprofen: insertion order wins
        # on both paths (Python sorts are stable).
        result = both_paths(
            db, "SELECT name FROM drug WHERE tier = 1 ORDER BY tier"
        )
        assert result.rows == [("Aspirin",), ("Ibuprofen",)]

    def test_offset_without_limit(self, db):
        result = both_paths(
            db, "SELECT name FROM drug ORDER BY drug_id OFFSET 1"
        )
        assert result.rows == [("Ibuprofen",), ("Metformin",)]

    def test_offset_past_end(self, db):
        result = both_paths(
            db, "SELECT name FROM drug ORDER BY drug_id OFFSET 10"
        )
        assert result.rows == []

    def test_limit_offset_on_indexed_filter(self, db):
        result = both_paths(
            db,
            "SELECT name FROM drug WHERE tier = 1 "
            "ORDER BY name DESC LIMIT 1 OFFSET 1",
        )
        assert result.rows == [("Aspirin",)]

    def test_offset_zero_is_noop(self, db):
        result = both_paths(
            db, "SELECT name FROM drug ORDER BY drug_id LIMIT 2 OFFSET 0"
        )
        assert result.rows == [("Aspirin",), ("Ibuprofen",)]


class TestPlanCache:
    def test_repeated_prepare_hits(self, db):
        sql = "SELECT name FROM drug WHERE drug_id = :id"
        first = db.prepare(sql)
        second = db.prepare(sql)
        assert first is second
        stats = db.plan_stats()
        assert stats["hits"] >= 1
        assert stats["plans"] >= 1

    def test_query_routes_through_cache(self, db):
        db.query("SELECT name FROM drug WHERE drug_id = :id", {"id": 1})
        db.query("SELECT name FROM drug WHERE drug_id = :id", {"id": 2})
        assert db.plan_stats()["hits"] >= 1

    def test_scan_and_indexed_plans_cached_separately(self, db):
        sql = "SELECT name FROM drug"
        assert db.prepare(sql) is not db.prepare(sql, use_indexes=False)

    def test_schema_change_invalidates_plans(self, db):
        sql = "SELECT name FROM drug"
        before = db.prepare(sql)
        db.create_table(
            TableSchema("extra", [Column("id", DataType.INTEGER)])
        )
        after = db.prepare(sql)
        assert before is not after

    def test_data_mutations_keep_plans(self, db):
        sql = "SELECT name FROM drug WHERE name = :n"
        plan = db.prepare(sql)
        db.insert("drug", {"drug_id": 9, "name": "Warfarin"})
        assert db.prepare(sql) is plan
        assert plan.execute({"n": "warfarin"}).rows == [("Warfarin",)]

    def test_bounded_size(self):
        cache = PlanCache(max_plans=2)
        db = Database("tiny")
        db.create_table(
            TableSchema("t", [Column("a", DataType.INTEGER)])
        )
        for i in range(5):
            cache.get_or_compile(db, f"SELECT a FROM t LIMIT {i}")
        assert len(cache) == 2

    def test_execution_counters(self, db):
        plan = db.prepare("SELECT name FROM drug WHERE name = :n")
        plan.execute({"n": "aspirin"})
        plan.execute({"n": "ibuprofen"})
        assert plan.executions == 2
        assert plan.index_probes == 2


class TestCopy:
    def test_deepcopy_database(self, db):
        db.prepare("SELECT name FROM drug")
        clone = copy.deepcopy(db)
        assert clone.query("SELECT name FROM drug WHERE drug_id = 1").rows == [
            ("Aspirin",)
        ]


class TestSemiJoinReduction:
    """An inner equi-join with pushed filters, keyed on a FROM-table
    column, reduces the FROM table before any join runs.  Every case
    runs the scan path and the indexed path."""

    @pytest.fixture
    def rx(self) -> Database:
        db = Database("semi-join-test")
        db.create_table(TableSchema("drug", [
            Column("drug_id", DataType.INTEGER),
            Column("name", DataType.TEXT),
        ], primary_key="drug_id"))
        db.create_table(TableSchema("route", [
            Column("route_id", DataType.INTEGER),
            Column("label", DataType.TEXT),
        ], primary_key="route_id"))
        db.create_table(TableSchema("dose", [
            Column("dose_id", DataType.INTEGER),
            Column("drug_id", DataType.INTEGER, nullable=True),
            Column("route_id", DataType.INTEGER, nullable=True),
            Column("amount", DataType.FLOAT),
        ], primary_key="dose_id"))
        for drug_id, name in ((1, "Aspirin"), (2, "Ibuprofen"), (3, "Heparin")):
            db.insert("drug", {"drug_id": drug_id, "name": name})
        for route_id, label in ((1, "oral"), (2, "iv")):
            db.insert("route", {"route_id": route_id, "label": label})
        for dose_id, drug_id, route_id, amount in (
            (10, 1, 1, 100.0), (11, 2, 1, 200.0), (12, 1, 2, 300.0),
            (13, None, 1, 50.0), (14, 3, None, 75.0), (15, 1, 1, 100.0),
        ):
            db.insert("dose", {"dose_id": dose_id, "drug_id": drug_id,
                               "route_id": route_id, "amount": amount})
        return db

    def test_plan_names_the_semi_join(self, rx):
        sql = (
            "SELECT o.dose_id FROM dose o "
            "JOIN drug d ON o.drug_id = d.drug_id WHERE d.name = :n"
        )
        plan = rx.prepare(sql).plan()
        assert plan.ops()[0] == "semi-join"
        assert plan.steps[0].detail == "o.drug_id IN drug (d.name = :n)"
        assert plan.uses_index
        assert rx.prepare(sql, use_indexes=False).plan().ops()[0] == "scan"

    def test_null_foreign_key_never_survives(self, rx):
        # dose 13 has no drug: the base index holds no NULL key.
        result = both_paths(
            rx,
            "SELECT o.dose_id FROM dose o "
            "JOIN drug d ON o.drug_id = d.drug_id WHERE d.name = :n",
            {"n": "aspirin"},
        )
        assert result.rows == [(10,), (12,), (15,)]

    def test_null_key_on_the_filtered_side(self, rx):
        # Reducing drug through dose: dose 13's NULL drug_id matches nothing.
        sql = (
            "SELECT d.name FROM drug d "
            "JOIN dose o ON d.drug_id = o.drug_id WHERE o.amount = :a"
        )
        assert rx.prepare(sql).plan().ops()[0] == "semi-join"
        assert both_paths(rx, sql, {"a": 50.0}).rows == []
        assert both_paths(rx, sql, {"a": 100.0}).rows == [
            ("Aspirin",), ("Aspirin",)
        ]

    def test_left_join_is_left_alone(self, rx):
        sql = (
            "SELECT o.dose_id, d.name FROM dose o "
            "LEFT JOIN drug d ON o.drug_id = d.drug_id "
            "WHERE d.name = :n ORDER BY o.dose_id"
        )
        assert rx.prepare(sql).plan().ops()[0] == "scan"
        result = both_paths(rx, sql, {"n": "ibuprofen"})
        assert result.rows == [(11, "Ibuprofen")]

    def test_two_pushed_steps_intersect(self, rx):
        sql = (
            "SELECT o.dose_id, d.name, r.label FROM dose o "
            "JOIN drug d ON o.drug_id = d.drug_id "
            "JOIN route r ON o.route_id = r.route_id "
            "WHERE d.name = :n AND r.label = :r"
        )
        step = rx.prepare(sql).plan().steps[0]
        assert step.op == "semi-join"
        assert "o.drug_id IN drug" in step.detail
        assert "o.route_id IN route" in step.detail
        result = both_paths(rx, sql, {"n": "aspirin", "r": "oral"})
        assert result.rows == [(10, "Aspirin", "oral"), (15, "Aspirin", "oral")]
        # Each filter alone matches rows; together they match none.
        assert both_paths(rx, sql, {"n": "ibuprofen", "r": "iv"}).rows == []

    def test_reduction_meets_the_base_filter(self, rx):
        sql = (
            "SELECT o.dose_id FROM dose o "
            "JOIN drug d ON o.drug_id = d.drug_id "
            "WHERE o.amount = :a AND d.name = :n"
        )
        step = rx.prepare(sql).plan().steps[0]
        assert step.detail.startswith("index-lookup o.amount = :a; ")
        assert both_paths(rx, sql, {"a": 100.0, "n": "aspirin"}).rows == [
            (10,), (15,)
        ]
        assert both_paths(rx, sql, {"a": 200.0, "n": "aspirin"}).rows == []

    def test_empty_probe(self, rx):
        sql = (
            "SELECT o.dose_id, d.name FROM dose o "
            "JOIN drug d ON o.drug_id = d.drug_id "
            "JOIN route r ON o.route_id = r.route_id "
            "WHERE d.name = :n AND r.label = :r ORDER BY o.amount DESC"
        )
        assert both_paths(rx, sql, {"n": "nothing", "r": "oral"}).rows == []
        assert both_paths(rx, sql, {"n": None, "r": "oral"}).rows == []
