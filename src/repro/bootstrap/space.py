"""The conversation space: container and bootstrap pipeline.

§4: "A conversation space represents the finite set of all possible
interactions with the knowledge base that are supported by the
conversation interface."  Its building blocks are intents, entities and
dialogue; this module assembles the first two (plus training examples
and query-completion metadata) from the ontology and the KB, and trains
the intent classifier over them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from repro.bootstrap.entities import Entity, extract_entities
from repro.bootstrap.intents import Intent, generate_intents
from repro.bootstrap.synonyms import SynonymDictionary
from repro.bootstrap.training import (
    TrainingExample,
    augment_with_prior_queries,
    generate_training_examples,
)
from repro.errors import BootstrapError, NLPError
from repro.kb.database import Database
from repro.nlp.classifier import IntentClassifier
from repro.ontology.key_concepts import (
    ConceptClassification,
    identify_dependent_concepts,
    identify_key_concepts,
)
from repro.ontology.model import Ontology

logger = logging.getLogger(__name__)


@dataclass
class ConversationSpace:
    """All artifacts bootstrapped from one ontology + KB.

    Holds the generated intents, entities, training examples, the
    key/dependent-concept classification (whose maps drive query
    completion in the dialogue), and the synonym dictionaries.
    """

    ontology: Ontology
    database: Database | None
    classification: ConceptClassification
    intents: list[Intent] = field(default_factory=list)
    entities: list[Entity] = field(default_factory=list)
    training_examples: list[TrainingExample] = field(default_factory=list)
    concept_synonyms: SynonymDictionary = field(default_factory=SynonymDictionary)
    instance_synonyms: SynonymDictionary = field(default_factory=SynonymDictionary)

    # -- intent access ----------------------------------------------------

    def intent(self, name: str) -> Intent:
        for intent in self.intents:
            if intent.name.lower() == name.lower():
                return intent
        raise BootstrapError(f"unknown intent {name!r}")

    def has_intent(self, name: str) -> bool:
        return any(i.name.lower() == name.lower() for i in self.intents)

    def intent_names(self) -> list[str]:
        return [i.name for i in self.intents]

    def add_intent(self, intent: Intent) -> None:
        if self.has_intent(intent.name):
            raise BootstrapError(f"intent {intent.name!r} already exists")
        self.intents.append(intent)

    def remove_intent(self, name: str) -> Intent:
        """Remove and return the named intent with its training examples."""
        intent = self.intent(name)
        self.intents.remove(intent)
        self.training_examples = [
            e for e in self.training_examples if e.intent != intent.name
        ]
        return intent

    def rename_intent(self, old: str, new: str) -> None:
        """Rename an intent and relabel its training examples.

        A case-only rename of the same intent is allowed; renaming onto a
        *different* existing intent is an error.
        """
        intent = self.intent(old)
        if self.has_intent(new) and self.intent(new) is not intent:
            raise BootstrapError(f"intent {new!r} already exists")
        old_name = intent.name
        intent.name = new
        self.training_examples = [
            TrainingExample(e.utterance, new, e.source) if e.intent == old_name else e
            for e in self.training_examples
        ]
        # Custom structured-query templates carry the intent name too;
        # leaving the old name behind makes template and intent disagree
        # (caught statically as C011 by `repro check`).
        intent.custom_templates = [
            replace(template, intent_name=new)
            if getattr(template, "intent_name", None) == old_name
            else template
            for template in intent.custom_templates
        ]

    # -- entity access --------------------------------------------------------

    def entity(self, name: str) -> Entity:
        for entity in self.entities:
            if entity.name.lower() == name.lower():
                return entity
        raise BootstrapError(f"unknown entity {name!r}")

    def has_entity(self, name: str) -> bool:
        return any(e.name.lower() == name.lower() for e in self.entities)

    # -- training -----------------------------------------------------------------

    def add_training_examples(
        self, intent_name: str, utterances: Sequence[str], source: str = "sme"
    ) -> None:
        """Attach utterances to an existing intent."""
        intent = self.intent(intent_name)  # validates existence
        self.training_examples = augment_with_prior_queries(
            self.training_examples,
            [(u, intent.name) for u in utterances],
        )

    def examples_for(self, intent_name: str) -> list[TrainingExample]:
        return [e for e in self.training_examples if e.intent == intent_name]

    def train_classifier(
        self,
        classifier: IntentClassifier | None = None,
        model_path: str | Path | None = None,
    ) -> IntentClassifier:
        """Train an intent classifier on the space's training examples, or
        load it from the model file at ``model_path`` when that was fitted
        on them with the same parameters; otherwise log why, and fit."""
        if not self.training_examples:
            raise BootstrapError("conversation space has no training examples")
        classifier = classifier or IntentClassifier()
        utterances = [e.utterance for e in self.training_examples]
        labels = [e.intent for e in self.training_examples]
        if model_path is not None:
            try:
                return classifier.load(model_path, utterances, labels)
            except NLPError as exc:
                logger.warning("training the intent classifier: %s", exc)
        return classifier.fit(utterances, labels)

    # -- summary ---------------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Artifact counts, comparable to §6.1's reported scale."""
        by_kind: dict[str, int] = {}
        for intent in self.intents:
            by_kind[intent.kind] = by_kind.get(intent.kind, 0) + 1
        return {
            "intents": len(self.intents),
            "lookup_intents": by_kind.get("lookup", 0),
            "relationship_intents": (
                by_kind.get("direct_relationship", 0)
                + by_kind.get("indirect_relationship", 0)
            ),
            "keyword_intents": by_kind.get("keyword", 0),
            "management_intents": by_kind.get("management", 0),
            "custom_intents": by_kind.get("custom", 0),
            "entities": len(self.entities),
            "training_examples": len(self.training_examples),
        }


def bootstrap_conversation_space(
    ontology: Ontology,
    database: Database | None = None,
    top_k: int | None = None,
    key_concepts: list[str] | None = None,
    concept_synonyms: SynonymDictionary | None = None,
    instance_synonyms: SynonymDictionary | None = None,
    prior_queries: Sequence[tuple[str, str]] | None = None,
    per_pattern: int = 12,
    seed: int = 17,
    include_keyword_intents: bool = True,
) -> ConversationSpace:
    """Run the full §4 bootstrapping pipeline.

    Steps: key-concept identification (centrality + segregation; override
    with ``key_concepts`` or cap with ``top_k``), dependent-concept
    classification against KB statistics, intent generation over query
    patterns, training-example generation (optionally augmented with
    SME-labelled ``prior_queries``), and entity extraction with synonym
    population.
    """
    if key_concepts is None:
        key_concepts = identify_key_concepts(ontology, database, top_k=top_k)
    classification = identify_dependent_concepts(ontology, key_concepts, database)
    intents = generate_intents(
        ontology, classification, include_keyword_intents=include_keyword_intents
    )
    examples = generate_training_examples(
        intents, ontology, database, per_pattern=per_pattern, seed=seed
    )
    if prior_queries:
        known = {i.name for i in intents}
        unknown = sorted({name for _, name in prior_queries} - known)
        if unknown:
            raise BootstrapError(
                f"prior queries reference unknown intents: {unknown}"
            )
        examples = augment_with_prior_queries(examples, prior_queries)
    entities = extract_entities(
        ontology,
        database,
        classification,
        concept_synonyms=concept_synonyms,
        instance_synonyms=instance_synonyms,
    )
    return ConversationSpace(
        ontology=ontology,
        database=database,
        classification=classification,
        intents=intents,
        entities=entities,
        training_examples=examples,
        concept_synonyms=concept_synonyms or SynonymDictionary(),
        instance_synonyms=instance_synonyms or SynonymDictionary(),
    )
