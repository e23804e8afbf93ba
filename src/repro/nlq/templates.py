"""Structured query templates: one parameterized SQL query per intent.

§4.4: "We associate each identified intent with a Structured Query
Template ... parameterize[d] ... The identified entities in the user
utterance are used to populate the template to generate the actual SQL
query" (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bootstrap.intents import Intent
from repro.bootstrap.patterns import PatternKind, QueryPattern
from repro.errors import MissingBindingsError, TemplateError
from repro.kb.database import Database
from repro.kb.sql.result import ResultSet
from repro.nlq.sql_generator import build_concept_query, build_relationship_query
from repro.ontology.model import Ontology


@dataclass(frozen=True)
class StructuredQueryTemplate:
    """A parameterized SQL query bound to an intent (or one of its patterns).

    ``parameters`` maps SQL parameter name → the concept whose instance
    value fills it.  :meth:`instantiate` checks that every parameter is
    bound, mirroring slot filling.
    """

    intent_name: str
    sql: str
    parameters: dict[str, str] = field(default_factory=dict)
    result_concepts: tuple[str, ...] = ()
    #: When True, the first result column is a category label and the
    #: response groups the remaining columns under it ("Effective: A, B").
    grouped: bool = False

    def required_concepts(self) -> list[str]:
        """The concepts that must be bound to instantiate this template."""
        seen: dict[str, None] = {}
        for concept in self.parameters.values():
            seen.setdefault(concept)
        return list(seen)

    def instantiate(self, bindings: dict[str, str]) -> dict[str, Any]:
        """Produce the SQL parameter dict from concept → value bindings.

        ``bindings`` maps concept name → instance value (case-insensitive
        concept names).  Raises :class:`MissingBindingsError` naming
        *every* unbound concept at once, so one round trip surfaces the
        full set of missing slots.
        """
        lowered = {k.lower(): v for k, v in bindings.items()}
        params: dict[str, Any] = {}
        missing: list[str] = []
        for param, concept in self.parameters.items():
            value = lowered.get(concept.lower())
            if value is None:
                if concept.lower() not in (c.lower() for c in missing):
                    missing.append(concept)
            else:
                params[param] = value
        if missing:
            raise MissingBindingsError(self.intent_name, missing)
        return params

    def execute(self, database: Database, bindings: dict[str, str]) -> ResultSet:
        """Instantiate and run the template through ``database.query``.

        ``query`` goes through the database's compiled-plan cache,
        so serving the same template repeatedly never re-parses or
        re-plans its SQL, and the serving layer's result cache sees
        every execution.
        """
        return database.query(self.sql, self.instantiate(bindings))


def _template_for_pattern(
    pattern: QueryPattern,
    intent: Intent,
    ontology: Ontology,
    database: Database | None,
) -> StructuredQueryTemplate:
    if pattern.kind is PatternKind.DIRECT_RELATIONSHIP and pattern.relationship:
        # Route along the object property's own join binding, never an
        # accidental alternative path between the same two concepts.
        if pattern.inverse:
            source, target = pattern.filter_concepts[0], pattern.result_concept
        else:
            source, target = pattern.result_concept, pattern.filter_concepts[0]
        query = build_relationship_query(
            ontology,
            relationship=pattern.relationship,
            source=source,
            target=target,
            inverse=pattern.inverse,
        )
        return StructuredQueryTemplate(
            intent_name=intent.name,
            sql=query.sql,
            parameters=query.parameters,
            result_concepts=tuple(query.result_concepts),
        )
    if pattern.kind is PatternKind.INDIRECT_RELATIONSHIP and len(
        pattern.filter_concepts
    ) == 1:
        # Figure 6 pattern 1: return key1 and the intermediate together.
        results = [pattern.result_concept, pattern.intermediate_concepts[0]]
    else:
        results = [pattern.result_concept]
    query = build_concept_query(
        ontology,
        result_concepts=results,
        filter_concepts=list(pattern.filter_concepts),
        database=database,
    )
    return StructuredQueryTemplate(
        intent_name=intent.name,
        sql=query.sql,
        parameters=query.parameters,
        result_concepts=tuple(query.result_concepts),
    )


def template_for_intent(
    intent: Intent,
    ontology: Ontology,
    database: Database | None = None,
) -> StructuredQueryTemplate:
    """Generate the structured query template for ``intent``'s primary
    pattern.  Keyword/management intents have no template."""
    pattern = intent.primary_pattern()
    if pattern is None:
        raise TemplateError(f"intent {intent.name!r} has no query pattern")
    return _template_for_pattern(pattern, intent, ontology, database)


def templates_for_intent(
    intent: Intent,
    ontology: Ontology,
    database: Database | None = None,
) -> list[StructuredQueryTemplate]:
    """Generate templates for *every* pattern of ``intent``.

    Union/inheritance-augmented lookup intents get one template per
    member pattern; indirect intents get both Figure 6 variants.
    """
    if not intent.patterns:
        raise TemplateError(f"intent {intent.name!r} has no query pattern")
    return [
        _template_for_pattern(pattern, intent, ontology, database)
        for pattern in intent.patterns
    ]
