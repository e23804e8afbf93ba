"""Unit tests for the template type & dataflow checker: one seeded
defect per diagnostic code (T001-T008), against the toy KB."""

from __future__ import annotations

import copy

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.type_checker import check_space_types
from repro.bootstrap import bootstrap_conversation_space
from repro.errors import SQLExecutionError
from repro.nlq.templates import StructuredQueryTemplate
from tests.conftest import make_toy_database


@pytest.fixture(scope="module")
def base_space():
    db = make_toy_database()
    from repro.ontology import generate_ontology

    ontology = generate_ontology(db, "toy")
    return bootstrap_conversation_space(
        ontology, db, key_concepts=["Drug", "Indication"]
    )


@pytest.fixture()
def space(base_space):
    """A private deep copy: each test seeds its own defect."""
    return copy.deepcopy(base_space)


def _codes(diagnostics):
    return [d.code for d in diagnostics]


def _first_lookup(space):
    return next(i for i in space.intents if i.kind == "lookup")


def _seed(space, sql, parameters=None):
    intent = _first_lookup(space)
    intent.custom_templates = [
        StructuredQueryTemplate(
            intent_name=intent.name, sql=sql, parameters=parameters or {}
        )
    ]
    return intent


def _only(diagnostics, code):
    hits = [d for d in diagnostics if d.code == code]
    assert hits, f"expected {code} in {_codes(diagnostics)}"
    return hits[0]


def test_clean_space_has_no_findings(space):
    assert check_space_types(space) == []


def test_t001_type_mismatched_predicate(space):
    intent = _seed(space, "SELECT d.name FROM drug d WHERE d.name = 5")
    hit = _only(check_space_types(space), "T001")
    assert hit.severity is Severity.ERROR
    assert hit.location.symbol == intent.name


def test_t002_parameter_type_disagrees_with_column(space):
    # :drug fills from the Drug label property (TEXT) but is compared to
    # the INTEGER primary key.
    _seed(
        space,
        "SELECT d.name FROM drug d WHERE d.drug_id = :drug",
        parameters={"drug": "Drug"},
    )
    hit = _only(check_space_types(space), "T002")
    assert hit.severity is Severity.ERROR
    assert "drug" in hit.message


def test_t003_join_without_linking_equality(space):
    _seed(
        space,
        "SELECT d.name FROM drug d "
        "INNER JOIN precaution p ON p.p_id > 0 "
        "WHERE d.name = :drug",
        parameters={"drug": "Drug"},
    )
    hit = _only(check_space_types(space), "T003")
    assert hit.severity is Severity.ERROR
    assert "precaution" in hit.message


def test_t003_not_raised_for_proper_equi_join(space):
    _seed(
        space,
        "SELECT p.description FROM drug d "
        "INNER JOIN precaution p ON p.drug_id = d.drug_id "
        "WHERE d.name = :drug",
        parameters={"drug": "Drug"},
    )
    assert "T003" not in _codes(check_space_types(space))


def test_t004_limit_without_order_by(space):
    _seed(space, "SELECT d.name FROM drug d LIMIT 3")
    hit = _only(check_space_types(space), "T004")
    assert hit.severity is Severity.WARNING


def test_t004_not_raised_when_ordered(space):
    _seed(space, "SELECT d.name FROM drug d ORDER BY d.name LIMIT 3")
    assert "T004" not in _codes(check_space_types(space))


def test_t005_declared_parameter_never_filters(space):
    _seed(
        space,
        "SELECT d.name FROM drug d WHERE d.name = :drug",
        parameters={"drug": "Drug", "indication": "Indication"},
    )
    hit = _only(check_space_types(space), "T005")
    assert hit.severity is Severity.ERROR
    assert "indication" in hit.message


def test_t006_always_false_text_equality(space):
    # The drug.name domain is small enough to capture verbatim, and
    # 'No Such Drug' is not in it.
    _seed(space, "SELECT d.name FROM drug d WHERE d.name = 'No Such Drug'")
    hit = _only(check_space_types(space), "T006")
    assert hit.severity is Severity.ERROR


def test_t006_always_false_numeric_envelope(space):
    # drug_id ranges 1..7; no row has a negative id.
    _seed(space, "SELECT d.name FROM drug d WHERE d.drug_id < 0")
    assert "T006" in _codes(check_space_types(space))


def test_t007_always_true_numeric_envelope(space):
    _seed(space, "SELECT d.name FROM drug d WHERE d.drug_id >= 0")
    hit = _only(check_space_types(space), "T007")
    assert hit.severity is Severity.WARNING


def test_t007_is_not_null_on_non_nullable_data(space):
    _seed(space, "SELECT d.name FROM drug d WHERE d.name IS NOT NULL")
    assert "T007" in _codes(check_space_types(space))


def test_t008_plain_column_beside_aggregate(space):
    _seed(
        space,
        "SELECT d.brand, COUNT(d.drug_id) FROM drug d GROUP BY d.name",
    )
    hit = _only(check_space_types(space), "T008")
    assert hit.severity is Severity.ERROR


def test_t008_same_name_on_another_table_is_not_grouped(space):
    # x.name and d.name share a column name but not a column: the
    # executor rejects this at prepare, so T008 must report it.
    sql = (
        "SELECT x.name, COUNT(*) FROM drug d "
        "JOIN indication x ON x.ind_id = d.drug_id GROUP BY d.name"
    )
    _seed(space, sql)
    hit = _only(check_space_types(space), "T008")
    assert "x.name" in hit.message
    with pytest.raises(SQLExecutionError, match="must appear in GROUP BY"):
        space.database.prepare(sql)


def test_t008_grouped_column_passes_qualified_or_not(space):
    _seed(space, "SELECT name, COUNT(*) FROM drug d GROUP BY d.name")
    assert "T008" not in _codes(check_space_types(space))


def test_t008_numeric_aggregate_over_text(space):
    _seed(space, "SELECT SUM(d.name) FROM drug d")
    assert "T008" in _codes(check_space_types(space))


def test_parameter_in_like_is_a_filter_not_t005(space):
    _seed(
        space,
        "SELECT d.name FROM drug d WHERE d.name LIKE :drug",
        parameters={"drug": "Drug"},
    )
    assert "T005" not in _codes(check_space_types(space))


def test_unparseable_sql_is_left_to_c001(space):
    # Syntax errors are layer 1's job (C001); the type checker skips.
    _seed(space, "SELEKT nope")
    assert check_space_types(space) == []


def test_ambiguous_self_join_column_is_left_to_layer_one(space):
    # 'name' is ambiguous between the two bindings of drug, so it has no
    # type here: C003 reports it, T001 does not guess a binding.
    _seed(
        space,
        "SELECT a.name FROM drug a JOIN drug b ON a.drug_id = b.drug_id "
        "WHERE name = 5",
    )
    assert "T001" not in _codes(check_space_types(space))
