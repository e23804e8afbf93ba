"""Unit tests for the SQL binder: one resolution pass per query."""

from __future__ import annotations

import pytest

from repro.errors import AmbiguousColumnError, UnknownColumnError, UnknownTableError
from repro.kb import DataType
from repro.kb.sql import bind, parse
from repro.kb.sql.binder import BoundColumn, comparable, operand_type
from tests.conftest import make_toy_database


@pytest.fixture(scope="module")
def schemas():
    return make_toy_database().schema()


def test_columns_bind_to_positions_in_the_join_row(schemas):
    bound = bind(parse(
        "SELECT d.name, t.description FROM drug d "
        "JOIN dosage t ON t.drug_id = d.drug_id WHERE t.ind_id = 1"
    ), schemas)
    name, description = (item.expression for item in bound.select.items)
    drug_width = len(schemas["drug"].columns)
    assert (name.binding, name.table_name, name.position) == ("d", "drug", 1)
    assert description.position == drug_width + 3
    assert description.data_type is DataType.TEXT
    assert [t.offset for t in bound.tables] == [0, drug_width]
    assert str(name) == "d.name"  # written form kept for messages


def test_join_condition_sees_only_tables_joined_so_far(schemas):
    with pytest.raises(UnknownColumnError, match="'i'"):
        bind(parse(
            "SELECT d.name FROM drug d JOIN treats t ON t.ind_id = i.ind_id "
            "JOIN indication i ON i.ind_id = t.ind_id"
        ), schemas)


def test_collect_returns_every_failure_in_clause_order(schemas):
    bound = bind(parse(
        "SELECT bogus, name FROM drug a JOIN drug b ON a.x = b.drug_id "
        "JOIN nope n ON n.id = a.drug_id WHERE z.name = 'x'"
    ), schemas, collect=True)
    errors = [type(f.error) for f in bound.failures]
    assert errors == [
        UnknownTableError,       # nope
        UnknownColumnError,      # WHERE z.name (undeclared alias)
        UnknownColumnError,      # JOIN a.x
        UnknownColumnError,      # JOIN n.id (n never bound)
        UnknownColumnError,      # projection bogus
        AmbiguousColumnError,    # projection name: a or b
    ]
    ambiguous = bound.failures[-1]
    assert [t.binding for t in ambiguous.owners] == ["a", "b"]
    # Unresolved references stay plain ColumnRefs in the bound query.
    assert not isinstance(bound.select.items[0].expression, BoundColumn)


def test_grouped_order_by_is_left_to_output_names(schemas):
    bound = bind(parse(
        "SELECT name, COUNT(*) AS n FROM drug GROUP BY name ORDER BY n"
    ), schemas)
    assert not isinstance(bound.select.order_by[0].column, BoundColumn)
    assert isinstance(bound.select.group_by[0], BoundColumn)


def test_one_compatibility_table(schemas):
    bound = bind(parse("SELECT name FROM drug WHERE drug_id = 1.5"), schemas)
    where = bound.select.where
    assert operand_type(where.left) is DataType.INTEGER
    assert operand_type(where.right) is DataType.FLOAT
    assert comparable(DataType.INTEGER, DataType.FLOAT)
    assert not comparable(DataType.TEXT, DataType.INTEGER)
    assert not comparable(DataType.BOOLEAN, DataType.INTEGER)
