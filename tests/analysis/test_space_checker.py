"""Unit tests for the conversation-space checker: one seeded defect per
diagnostic code, against the toy KB."""

from __future__ import annotations

import copy

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.space_checker import check_space
from repro.bootstrap import bootstrap_conversation_space
from repro.bootstrap.entities import EntityValue
from repro.bootstrap.intents import Intent
from repro.dialogue.logic_table import DialogueLogicRow, DialogueLogicTable
from repro.dialogue.tree import DialogueNode
from repro.errors import AmbiguousColumnError
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


def test_clean_space_has_no_findings(space):
    assert check_space(space) == []


# -- SQL-level template checks (C001-C004) ----------------------------------


def test_c001_unparseable_template_sql(space):
    intent = _first_lookup(space)
    intent.custom_templates = [
        StructuredQueryTemplate(intent_name=intent.name, sql="SELEKT nope")
    ]
    diags = check_space(space)
    assert "C001" in _codes(diags)
    hit = next(d for d in diags if d.code == "C001")
    assert hit.location.symbol == intent.name


def test_c002_unknown_table(space):
    intent = _first_lookup(space)
    intent.custom_templates = [
        StructuredQueryTemplate(
            intent_name=intent.name, sql="SELECT name FROM no_such_table t"
        )
    ]
    assert "C002" in _codes(check_space(space))


def test_c003_unknown_column(space):
    intent = _first_lookup(space)
    intent.custom_templates = [
        StructuredQueryTemplate(
            intent_name=intent.name, sql="SELECT d.bogus FROM drug d"
        )
    ]
    diags = [d for d in check_space(space) if d.code == "C003"]
    assert diags
    assert "bogus" in diags[0].message


def test_c003_undeclared_alias(space):
    intent = _first_lookup(space)
    intent.custom_templates = [
        StructuredQueryTemplate(
            intent_name=intent.name, sql="SELECT z.name FROM drug d"
        )
    ]
    diags = [d for d in check_space(space) if d.code == "C003"]
    assert diags
    assert "alias" in diags[0].message


def test_c003_ambiguous_unqualified_column(space):
    intent = _first_lookup(space)
    intent.custom_templates = [
        StructuredQueryTemplate(
            intent_name=intent.name,
            sql=(
                "SELECT drug_id FROM precaution p "
                "INNER JOIN dosage d ON p.drug_id = d.drug_id"
            ),
        )
    ]
    diags = [d for d in check_space(space) if d.code == "C003"]
    assert any("ambiguous" in d.message for d in diags)


def test_c003_ambiguous_column_in_self_join(space):
    # One table joined to itself owns 'name' under both bindings; the
    # executor rejects the query, so the checker must too.
    intent = _first_lookup(space)
    sql = (
        "SELECT name FROM drug a JOIN drug b ON a.brand = b.name "
        "WHERE a.name = :d"
    )
    intent.custom_templates = [
        StructuredQueryTemplate(
            intent_name=intent.name, sql=sql, parameters={"d": "Drug"}
        )
    ]
    diags = [d for d in check_space(space) if d.code == "C003"]
    assert [d.message for d in diags] == [
        "unqualified column 'name' is ambiguous between tables "
        "drug AS a, drug AS b"
    ]
    with pytest.raises(AmbiguousColumnError):
        space.database.prepare(sql)


def test_c004_sql_parameter_not_declared(space):
    intent = _first_lookup(space)
    intent.custom_templates = [
        StructuredQueryTemplate(
            intent_name=intent.name,
            sql="SELECT d.name FROM drug d WHERE d.name = :drug",
            parameters={},
        )
    ]
    diags = [d for d in check_space(space) if d.code == "C004"]
    assert any(":drug" in d.message for d in diags)


def test_c004_declared_parameter_unused(space):
    intent = _first_lookup(space)
    intent.custom_templates = [
        StructuredQueryTemplate(
            intent_name=intent.name,
            sql="SELECT d.name FROM drug d",
            parameters={"drug": "Drug"},
        )
    ]
    diags = [d for d in check_space(space) if d.code == "C004"]
    assert any("never appears" in d.message for d in diags)


# -- Parameter-concept resolution (C005) ------------------------------------


def test_c005_parameter_concept_not_in_ontology(space):
    intent = _first_lookup(space)
    intent.custom_templates = [
        StructuredQueryTemplate(
            intent_name=intent.name,
            sql="SELECT d.name FROM drug d WHERE d.name = :x",
            parameters={"x": "No Such Concept"},
        )
    ]
    diags = [d for d in check_space(space) if d.code == "C005"]
    assert any("not an" in d.message for d in diags)


def test_c005_parameter_concept_without_entity(space):
    unrecognizable = next(
        c.name for c in space.ontology.concepts()
        if not space.has_entity(c.name)
    )
    intent = _first_lookup(space)
    intent.custom_templates = [
        StructuredQueryTemplate(
            intent_name=intent.name,
            sql="SELECT d.name FROM drug d WHERE d.name = :x",
            parameters={"x": unrecognizable},
        )
    ]
    diags = [d for d in check_space(space) if d.code == "C005"]
    assert any("no entity" in d.message for d in diags)


# -- Logic-table row checks (C006-C009) --------------------------------------


def _table_with(space, mutate):
    table = DialogueLogicTable.from_space(space)
    row = next(r for r in table.rows if r.required_entities)
    mutate(row)
    return table, row


def test_c006_unknown_row_entity(space):
    table, row = _table_with(
        space, lambda r: r.required_entities.append("Ghost Concept")
    )
    diags = [
        d for d in check_space(space, logic_table=table) if d.code == "C006"
    ]
    assert diags
    assert diags[0].location.symbol == row.intent_name


def test_c007_missing_elicitation_is_warning(space):
    table, row = _table_with(space, lambda r: r.elicitations.clear())
    diags = [
        d for d in check_space(space, logic_table=table) if d.code == "C007"
    ]
    assert diags
    assert all(d.severity is Severity.WARNING for d in diags)


def test_c008_required_entity_not_a_template_parameter(space):
    table, row = _table_with(
        space, lambda r: r.required_entities.append("Drug Id")
    )
    # "Drug Id"-style concepts exist in the ontology but are not template
    # parameters of the row's intent.
    row.required_entities[-1] = next(
        c.name for c in space.ontology.concepts()
        if c.name.lower() not in {
            e.lower() for e in row.required_entities[:-1]
        }
    )
    diags = [
        d
        for d in check_space(space, logic_table=table)
        if d.code == "C008" and d.severity is Severity.ERROR
    ]
    assert diags
    assert diags[0].location.symbol == row.intent_name


def test_c008_uncovered_template_parameter_is_warning(space):
    def strip(row):
        row.required_entities.clear()
        row.optional_entities.clear()
        row.elicitations.clear()
        row.response_template = "{results}"

    table, row = _table_with(space, strip)
    diags = [
        d for d in check_space(space, logic_table=table) if d.code == "C008"
    ]
    assert diags
    assert all(d.severity is Severity.WARNING for d in diags)


def test_c009_unresolved_placeholder(space):
    table, row = _table_with(
        space, lambda r: setattr(r, "response_template", "Here: {bogus}")
    )
    diags = [
        d for d in check_space(space, logic_table=table) if d.code == "C009"
    ]
    assert any("{bogus}" in d.message for d in diags)
    assert diags[0].location.symbol == row.intent_name


def test_c009_malformed_template(space):
    table, _ = _table_with(
        space, lambda r: setattr(r, "response_template", "oops {unclosed")
    )
    diags = [
        d for d in check_space(space, logic_table=table) if d.code == "C009"
    ]
    assert any("malformed" in d.message for d in diags)


# -- Intent/template/row coverage (C010-C013) --------------------------------


def test_c010_intent_without_template(space):
    space.add_intent(Intent(name="Orphan Intent", kind="custom"))
    diags = [d for d in check_space(space) if d.code == "C010"]
    assert diags
    assert diags[0].location.symbol == "Orphan Intent"


def test_c011_template_bound_to_unknown_intent(space):
    intent = _first_lookup(space)
    intent.custom_templates = [
        StructuredQueryTemplate(
            intent_name="Ghost Intent", sql="SELECT name FROM drug d"
        )
    ]
    diags = [d for d in check_space(space) if d.code == "C011"]
    assert any("Ghost Intent" in d.message for d in diags)


def test_c011_template_bound_to_different_intent(space):
    lookups = [i for i in space.intents if i.kind == "lookup"]
    first, second = lookups[0], lookups[1]
    first.custom_templates = [
        StructuredQueryTemplate(
            intent_name=second.name, sql="SELECT name FROM drug d"
        )
    ]
    diags = [d for d in check_space(space) if d.code == "C011"]
    assert any("different" in d.message for d in diags)


def test_c012_row_without_intent(space):
    table = DialogueLogicTable.from_space(space)
    table.add_row(DialogueLogicRow(intent_name="Ghost", intent_example="?"))
    diags = [
        d for d in check_space(space, logic_table=table) if d.code == "C012"
    ]
    assert diags
    assert diags[0].location.symbol == "Ghost"


def test_c013_intent_without_row(space):
    table = DialogueLogicTable.from_space(space)
    dropped = table.rows.pop()
    diags = [
        d for d in check_space(space, logic_table=table) if d.code == "C013"
    ]
    assert any(dropped.intent_name in d.message for d in diags)


# -- Dialogue-tree reachability (C014) ---------------------------------------


def test_c014_subtree_for_unknown_intent(space):
    table = DialogueLogicTable.from_space(space)
    table.add_row(DialogueLogicRow(intent_name="Ghost", intent_example="?"))
    diags = [
        d for d in check_space(space, logic_table=table) if d.code == "C014"
    ]
    assert diags
    assert diags[0].location.symbol == "intent:Ghost"


def test_c014_child_after_answer_default():
    from repro.analysis.diagnostics import DiagnosticCollector
    from repro.analysis.space_checker import _check_children

    parent = DialogueNode(
        name="intent:X",
        condition=lambda s: True,
        children=[
            DialogueNode(name="X:answer", condition=lambda s: True),
            DialogueNode(name="X:late", condition=lambda s: True),
        ],
    )
    out = DiagnosticCollector()
    _check_children(parent, out)
    assert [d.code for d in out.diagnostics] == ["C014"]
    assert "X:late" in out.diagnostics[0].message


# -- Synonym collisions (C015) -----------------------------------------------


def test_c015_synonym_collision_within_entity(space):
    entity = next(e for e in space.entities if e.kind == "instance")
    existing = entity.values[0].value
    entity.values.append(
        EntityValue("Different Value", synonyms=[existing.upper()])
    )
    diags = [d for d in check_space(space) if d.code == "C015"]
    assert diags
    assert all(d.severity is Severity.WARNING for d in diags)
    assert diags[0].location.symbol == entity.name


def test_c015_cross_entity_collision_allowed(space):
    # The same surface form in two *different* entities is handled by the
    # interactive disambiguation flow and must not be flagged.
    instance_entities = [e for e in space.entities if e.kind == "instance"]
    assert len(instance_entities) >= 2
    shared = instance_entities[0].values[0].value
    instance_entities[1].values.append(EntityValue(shared))
    assert "C015" not in _codes(check_space(space))
