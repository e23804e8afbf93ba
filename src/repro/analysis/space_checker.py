"""Layer 1: static cross-validation of the bootstrapped artifacts.

The bootstrap pipeline auto-generates every artifact the agent runs on —
intents, entities, parameterized SQL templates and the dialogue logic
table — so a single stale concept name or unbound template parameter
silently produces wrong dialogues at serve time.  ``repro check`` makes
that a compile-time failure: every template's SQL is parsed with the
real :mod:`repro.kb.sql` parser and bound against the KB schema by the
executor's own binder (:func:`repro.kb.sql.binder.bind`),
every logic-table row is cross-checked against the intents, entities
and templates it references, and the generated dialogue tree is swept
for unreachable nodes — all without executing a single query.

Diagnostic codes
----------------
======  =========================  ========================================
C001    sql-syntax                 template SQL does not parse
C002    unknown-table              SQL references a table missing from the KB
C003    unknown-column             SQL references a missing/ambiguous column
C004    parameter-mismatch         declared parameters != ``:params`` in SQL
C005    unknown-parameter-concept  parameter concept unknown or not an entity
C006    unknown-row-entity         logic-table row names an unknown entity
C007    missing-elicitation        required entity has no elicitation prompt
C008    entity-template-mismatch   row entities and template parameters disagree
C009    unresolved-placeholder     response-template ``{var}`` resolves to nothing
C010    intent-without-template    intent has patterns but no usable template
C011    template-without-intent    template names an intent that does not exist
C012    row-without-intent         logic-table row's intent is not in the space
C013    intent-without-row         intent has no logic-table row
C014    unreachable-node           dialogue-tree node can never be reached
C015    synonym-collision          one entity maps a surface form to two values
======  =========================  ========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from string import Formatter

from repro.analysis.diagnostics import Diagnostic, DiagnosticCollector, Location
from repro.bootstrap.space import ConversationSpace
from repro.dialogue.logic_table import (
    DialogueLogicRow,
    DialogueLogicTable,
    context_key,
)
from repro.dialogue.management import MANAGEMENT_RESPONSES
from repro.dialogue.tree import DialogueNode, build_dialogue_tree
from repro.errors import (
    NLQError,
    ReproError,
    SQLSyntaxError,
    TemplateError,
    UnknownTableError,
)
from repro.kb.database import Database
from repro.kb.sql import ast as sql_ast
from repro.kb.sql.binder import BindFailure, BoundSelect, bind
from repro.kb.sql.parser import parse as parse_sql
from repro.nlq.templates import StructuredQueryTemplate, templates_for_intent

#: Placeholder always bound by the response generator (the KB rows).
RESULTS_PLACEHOLDER = "results"


def _loc(kind: str, name: str) -> Location:
    """Artifact location: ``space:template:Dosage of Drug``."""
    return Location(path=f"space:{kind}", symbol=name)


# ---------------------------------------------------------------------------
# Artifact assembly (mirrors ConversationAgent.build, minus the classifier)
# ---------------------------------------------------------------------------


@dataclass
class SpaceArtifacts:
    """Everything the checker cross-validates, assembled once.

    Mirrors what :meth:`repro.engine.agent.ConversationAgent.build`
    derives from a space — logic table and per-intent templates — but
    skips classifier training, so checking stays fast and side-effect
    free.  Template-generation failures are recorded per intent instead
    of raised, so one broken intent does not hide findings in others.
    Each distinct template SQL is parsed and bound once, here, for
    every checker layer: ``queries`` maps it to its bound query (every
    binding failure collected) or to its syntax error.
    """

    space: ConversationSpace
    database: Database | None
    logic_table: DialogueLogicTable
    templates: dict[str, list[StructuredQueryTemplate]]
    template_failures: dict[str, str] = field(default_factory=dict)
    queries: dict[str, BoundSelect | SQLSyntaxError] = field(default_factory=dict)


def build_artifacts(
    space: ConversationSpace,
    database: Database | None = None,
    logic_table: DialogueLogicTable | None = None,
) -> SpaceArtifacts:
    """Derive the checkable artifacts from a bootstrapped space."""
    if logic_table is None:
        logic_table = DialogueLogicTable.from_space(space)
    templates: dict[str, list[StructuredQueryTemplate]] = {}
    failures: dict[str, str] = {}
    for intent in space.intents:
        if intent.custom_templates:
            templates[intent.name] = list(intent.custom_templates)
            continue
        if not intent.patterns:
            continue
        try:
            templates[intent.name] = templates_for_intent(
                intent, space.ontology, database
            )
        except (NLQError, TemplateError) as exc:
            templates[intent.name] = []
            failures[intent.name] = str(exc)
    schemas = database.schema() if database is not None else {}
    queries: dict[str, BoundSelect | SQLSyntaxError] = {}
    for template in (t for group in templates.values() for t in group):
        if template.sql not in queries:
            try:
                select = parse_sql(template.sql)
            except SQLSyntaxError as exc:
                queries[template.sql] = exc
            else:
                queries[template.sql] = bind(select, schemas, collect=True)
    return SpaceArtifacts(
        space=space,
        database=database,
        logic_table=logic_table,
        templates=templates,
        template_failures=failures,
        queries=queries,
    )


# ---------------------------------------------------------------------------
# SQL schema resolution
# ---------------------------------------------------------------------------


def _failure_message(failure: BindFailure) -> tuple[str, str]:
    """(code, message) for one reference the binder could not resolve."""
    ref, owners = failure.ref, failure.owners
    if isinstance(ref, sql_ast.TableRef):
        if isinstance(failure.error, UnknownTableError):
            return "C002", f"template SQL references unknown table {ref.table!r}"
        return "C002", f"template SQL binds {ref.binding!r} to two tables"
    if ref.table is not None:
        if owners:
            return "C003", (
                f"table {owners[0].ref.table!r} has no column "
                f"{ref.column!r} (referenced as {ref})"
            )
        return "C003", (
            f"column {ref} references undeclared table alias {ref.table!r}"
        )
    if not owners:
        return "C003", f"no table in scope has column {ref.column!r}"
    tables = [owner.ref.table for owner in owners]
    labels = [
        table if tables.count(table) == 1 else f"{table} AS {owner.ref.binding}"
        for table, owner in zip(tables, owners)
    ]
    return "C003", (
        f"unqualified column {ref.column!r} is ambiguous between tables "
        f"{', '.join(sorted(labels))}"
    )


def _check_template_sql(
    template: StructuredQueryTemplate,
    artifacts: SpaceArtifacts,
    out: DiagnosticCollector,
) -> None:
    """Report one template's parse and binding failures."""
    location = _loc("template", template.intent_name)
    bound = artifacts.queries[template.sql]
    if isinstance(bound, SQLSyntaxError):
        out.error("C001", f"template SQL does not parse: {bound}", location,
                  rule="sql-syntax")
        return

    if artifacts.database is not None:
        for failure in bound.failures:
            code, message = _failure_message(failure)
            rule = "unknown-table" if code == "C002" else "unknown-column"
            out.error(code, message, location, rule=rule)

    sql_params = set(bound.select.parameters())
    declared = set(template.parameters)
    for name in sorted(sql_params - declared):
        out.error(
            "C004",
            f"SQL parameter :{name} is not declared in template.parameters",
            location,
            rule="parameter-mismatch",
        )
    for name in sorted(declared - sql_params):
        out.error(
            "C004",
            f"declared parameter {name!r} never appears in the SQL",
            location,
            rule="parameter-mismatch",
        )


def _check_template_concepts(
    template: StructuredQueryTemplate,
    artifacts: SpaceArtifacts,
    out: DiagnosticCollector,
) -> None:
    """Every template parameter must fill from a recognizable entity."""
    space = artifacts.space
    location = _loc("template", template.intent_name)
    for param, concept in template.parameters.items():
        if not space.ontology.has_concept(concept):
            out.error(
                "C005",
                f"parameter {param!r} maps to {concept!r}, which is not an "
                "ontology concept",
                location,
                rule="unknown-parameter-concept",
            )
        elif not space.has_entity(concept):
            out.error(
                "C005",
                f"parameter {param!r} maps to concept {concept!r}, but the "
                "conversation space has no entity to recognize its values",
                location,
                rule="unknown-parameter-concept",
            )


# ---------------------------------------------------------------------------
# Intent <-> template cross checks
# ---------------------------------------------------------------------------


def _check_intent_templates(
    artifacts: SpaceArtifacts, out: DiagnosticCollector
) -> None:
    space = artifacts.space
    intent_names = {i.name.lower() for i in space.intents}
    for intent in space.intents:
        if intent.kind in ("keyword", "management"):
            continue  # these answer without SQL by design
        templates = artifacts.templates.get(intent.name, [])
        if not templates:
            reason = artifacts.template_failures.get(intent.name)
            detail = f" ({reason})" if reason else ""
            out.error(
                "C010",
                f"intent {intent.name!r} has no usable query template{detail}",
                _loc("intent", intent.name),
                rule="intent-without-template",
            )
    for name, templates in artifacts.templates.items():
        for template in templates:
            if template.intent_name.lower() not in intent_names:
                out.error(
                    "C011",
                    f"template is bound to intent {template.intent_name!r}, "
                    "which is not in the conversation space",
                    _loc("template", name),
                    rule="template-without-intent",
                )
            elif template.intent_name.lower() != name.lower():
                out.error(
                    "C011",
                    f"template under intent {name!r} names a different "
                    f"intent {template.intent_name!r}",
                    _loc("template", name),
                    rule="template-without-intent",
                )


# ---------------------------------------------------------------------------
# Dialogue-logic-table row checks
# ---------------------------------------------------------------------------


def _known_entity(space: ConversationSpace, name: str) -> bool:
    return space.has_entity(name) or space.ontology.has_concept(name)


def _check_row(
    row: DialogueLogicRow, artifacts: SpaceArtifacts, out: DiagnosticCollector
) -> None:
    space = artifacts.space
    location = _loc("logic-row", row.intent_name)
    if not space.has_intent(row.intent_name):
        out.error(
            "C012",
            f"logic-table row names intent {row.intent_name!r}, which is not "
            "in the conversation space",
            location,
            rule="row-without-intent",
        )
        return  # the remaining cross-checks need the intent

    for concept in (*row.required_entities, *row.optional_entities):
        if not _known_entity(space, concept):
            out.error(
                "C006",
                f"row references entity {concept!r}, which is neither an "
                "entity nor an ontology concept",
                location,
                rule="unknown-row-entity",
            )

    if row.kind not in ("keyword", "management"):
        elicitation_keys = {k.lower() for k in row.elicitations}
        for concept in row.required_entities:
            if concept.lower() not in elicitation_keys:
                out.warning(
                    "C007",
                    f"required entity {concept!r} has no elicitation prompt "
                    "(the generic default will be used)",
                    location,
                    rule="missing-elicitation",
                )

        templates = artifacts.templates.get(row.intent_name, [])
        if templates:
            bindable = {
                concept.lower()
                for template in templates
                for concept in template.parameters.values()
            }
            for concept in row.required_entities:
                if concept.lower() not in bindable:
                    out.error(
                        "C008",
                        f"required entity {concept!r} is not a parameter of "
                        "any of the intent's query templates",
                        location,
                        rule="entity-template-mismatch",
                    )
            slots = {
                c.lower()
                for c in (*row.required_entities, *row.optional_entities)
            }
            for concept in sorted(bindable - slots):
                out.warning(
                    "C008",
                    f"template parameter concept {concept!r} is neither a "
                    "required nor an optional entity of the row, so it can "
                    "only bind through a late elicitation",
                    location,
                    rule="entity-template-mismatch",
                )

    _check_response_template(row, out)


def _check_response_template(
    row: DialogueLogicRow, out: DiagnosticCollector
) -> None:
    """Every ``{placeholder}`` must be fillable at response time."""
    if not row.response_template:
        return
    location = _loc("logic-row", row.intent_name)
    allowed = {RESULTS_PLACEHOLDER}
    allowed.update(
        context_key(c) for c in (*row.required_entities, *row.optional_entities)
    )
    try:
        fields = [
            name for _, name, _, _ in Formatter().parse(row.response_template)
            if name is not None
        ]
    except ValueError as exc:
        out.error(
            "C009",
            f"response template is malformed: {exc}",
            location,
            rule="unresolved-placeholder",
        )
        return
    for name in fields:
        if name == "":
            out.error(
                "C009",
                "response template uses a positional {} placeholder",
                location,
                rule="unresolved-placeholder",
            )
        elif name not in allowed:
            out.error(
                "C009",
                f"response-template placeholder {{{name}}} does not resolve "
                "to the context key of any entity of this row "
                f"(known: {', '.join(sorted(allowed))})",
                location,
                rule="unresolved-placeholder",
            )


def _check_row_coverage(
    artifacts: SpaceArtifacts, out: DiagnosticCollector
) -> None:
    """Every non-management intent needs exactly one logic-table row."""
    covered = {row.intent_name.lower() for row in artifacts.logic_table.rows}
    for intent in artifacts.space.intents:
        if intent.kind == "management":
            continue
        if intent.name.lower() not in covered:
            out.error(
                "C013",
                f"intent {intent.name!r} has no dialogue-logic-table row, so "
                "the dialogue tree cannot route it",
                _loc("intent", intent.name),
                rule="intent-without-row",
            )


# ---------------------------------------------------------------------------
# Dialogue-tree reachability
# ---------------------------------------------------------------------------


def _check_tree(artifacts: SpaceArtifacts, out: DiagnosticCollector) -> None:
    """Sweep the generated tree for structurally unreachable nodes.

    Conditions are opaque callables, so reachability uses the generated
    structure: the top-level ``fallback`` node matches everything (nodes
    after it never run), ``*:answer`` children are the documented
    always-matching default (children after them never run), and an
    ``intent:X`` subtree is dead when no classifier label ``X`` exists.
    """
    try:
        tree = build_dialogue_tree(artifacts.logic_table)
    except ReproError as exc:
        out.error(
            "C014",
            f"dialogue tree cannot be generated: {exc}",
            _loc("tree", "build"),
            rule="unreachable-node",
        )
        return

    labels = {i.name.lower() for i in artifacts.space.intents}
    labels.update(name.lower() for name in MANAGEMENT_RESPONSES)

    terminal_seen = False
    for node in tree.nodes:
        if terminal_seen:
            out.error(
                "C014",
                f"top-level node {node.name!r} comes after the catch-all "
                "fallback node and can never match",
                _loc("tree-node", node.name),
                rule="unreachable-node",
            )
        if node.name == "fallback":
            terminal_seen = True
        for prefix in ("intent:", "management:"):
            if node.name.startswith(prefix):
                intent_name = node.name[len(prefix):]
                if intent_name.lower() not in labels:
                    out.error(
                        "C014",
                        f"subtree {node.name!r} requires intent "
                        f"{intent_name!r}, which neither the space nor the "
                        "management set defines — the node is unreachable",
                        _loc("tree-node", node.name),
                        rule="unreachable-node",
                    )
        _check_children(node, out)


def _check_children(node: DialogueNode, out: DiagnosticCollector) -> None:
    default_seen = False
    for child in node.children:
        if default_seen:
            out.error(
                "C014",
                f"node {child.name!r} comes after the always-matching "
                f"answer child of {node.name!r} and can never match",
                _loc("tree-node", child.name),
                rule="unreachable-node",
            )
        if child.name.endswith(":answer"):
            default_seen = True
        _check_children(child, out)


# ---------------------------------------------------------------------------
# Entity synonym collisions
# ---------------------------------------------------------------------------


def _check_synonyms(artifacts: SpaceArtifacts, out: DiagnosticCollector) -> None:
    """One entity mapping a surface form to two values is unresolvable.

    Cross-entity collisions are allowed — the agent disambiguates those
    interactively ("Did you mean ...?") — but within a single entity the
    recognizer returns the first match, silently shadowing the other.
    """
    for entity in artifacts.space.entities:
        seen: dict[str, str] = {}
        for value in entity.values:
            for form in value.surface_forms():
                low = form.lower()
                other = seen.get(low)
                if other is not None and other != value.value:
                    out.warning(
                        "C015",
                        f"surface form {form!r} maps to both {other!r} and "
                        f"{value.value!r}; resolution silently picks the "
                        "first",
                        _loc("entity", entity.name),
                        rule="synonym-collision",
                    )
                else:
                    seen.setdefault(low, value.value)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


#: The rule each layer files an artifact-build failure under.
_BUILD_FAILURE_RULES = {
    "C012": "row-without-intent",
    "T001": "type-mismatch",
    "A001": "duplicate-training-example",
}


def artifact_failure(
    code: str, exc: ReproError, space: ConversationSpace
) -> Diagnostic:
    """The one finding a layer reports when the artifacts cannot be built."""
    return DiagnosticCollector().error(
        code,
        f"artifact generation failed: {exc}",
        _loc("space", space.ontology.name),
        rule=_BUILD_FAILURE_RULES[code],
    )


def check_artifacts(artifacts: SpaceArtifacts) -> list[Diagnostic]:
    """Every conversation-space check over already-built artifacts."""
    out = DiagnosticCollector()
    for templates in artifacts.templates.values():
        for template in templates:
            _check_template_sql(template, artifacts, out)
            _check_template_concepts(template, artifacts, out)
    _check_intent_templates(artifacts, out)
    for row in artifacts.logic_table.rows:
        _check_row(row, artifacts, out)
    _check_row_coverage(artifacts, out)
    _check_tree(artifacts, out)
    _check_synonyms(artifacts, out)
    return out.sorted()


def check_space(
    space: ConversationSpace,
    database: Database | None = None,
    logic_table: DialogueLogicTable | None = None,
) -> list[Diagnostic]:
    """Run every conversation-space check; returns the findings.

    ``database`` defaults to the space's own KB handle.  A custom
    ``logic_table`` (e.g. one edited by an SME) is checked in place of
    the freshly generated one.
    """
    if database is None:
        database = space.database
    try:
        artifacts = build_artifacts(space, database, logic_table=logic_table)
    except ReproError as exc:
        return [artifact_failure("C012", exc, space)]
    return check_artifacts(artifacts)
