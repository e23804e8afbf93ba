"""Layer 4: conversation-ambiguity analysis over the bootstrapped space.

The paper's §5 training-example generation and Table 5 intent-F1 results
hinge on *separability*: the classifier can only route a user utterance
to the right intent if no two intents claim the same (or
near-indistinguishable) language, no surface form silently means two
different things, and no two intents answer with the identical SQL.
These are not structural defects — every artifact resolves — so layer 1
cannot see them; this analyzer measures them with the repo's own
:mod:`repro.nlp` vectorizer and flags them at build time, before a
retrain quietly halves the intent F1.

Diagnostic codes
----------------
======  ===========================  ======================================
A001    duplicate-training-example   identical utterance labelled with two
                                     intents — the classifier must get at
                                     least one of them wrong
A002    near-duplicate-examples      cross-intent utterance pair above the
                                     cosine threshold (warning)
A003    cross-entity-synonym         one surface form resolves to
                                     different values in different
                                     entities (warning; the within-entity
                                     case is C015)
A004    shadowed-template            two intents instantiate the identical
                                     SQL signature (warning)
A005    elicitation-mentions-entity  an elicitation prompt names an entity
                                     the row neither requires nor accepts
                                     (warning)
======  ===========================  ======================================
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic, DiagnosticCollector, Location
from repro.analysis.space_checker import (
    SpaceArtifacts,
    artifact_failure,
    build_artifacts,
)
from repro.bootstrap.space import ConversationSpace
from repro.errors import ReproError


@dataclass(frozen=True)
class AmbiguityConfig:
    """Tunables for the ambiguity analyzer.

    ``near_duplicate_threshold`` is the TF-IDF cosine above which two
    cross-intent utterances count as near-duplicates (A002).  The
    shipped MDX space tops out around 0.65, so the default 0.9 only
    fires on genuinely confusable pairs.
    """

    near_duplicate_threshold: float = 0.9


def _normalize(utterance: str) -> str:
    return " ".join(utterance.lower().split())


# ---------------------------------------------------------------------------
# A001 / A002: training-utterance separability
# ---------------------------------------------------------------------------


def _check_training_examples(
    artifacts: SpaceArtifacts, config: AmbiguityConfig, out: DiagnosticCollector
) -> None:
    examples = artifacts.space.training_examples
    if not examples:
        return

    by_utterance: dict[str, dict[str, str]] = {}
    for example in examples:
        key = _normalize(example.utterance)
        by_utterance.setdefault(key, {}).setdefault(example.intent, example.utterance)
    for key, intents in by_utterance.items():
        if len(intents) > 1:
            out.error(
                "A001",
                f"training utterance {key!r} is labelled with "
                f"{len(intents)} intents ({', '.join(sorted(intents))}) — "
                "the classifier cannot separate them",
                Location(path="space:training", symbol=key),
                rule="duplicate-training-example",
            )

    _check_near_duplicates(artifacts, config, out)


def _check_near_duplicates(
    artifacts: SpaceArtifacts, config: AmbiguityConfig, out: DiagnosticCollector
) -> None:
    """A002: cross-intent cosine screen over word-n-gram TF-IDF.

    Character n-grams are disabled: they blur the exact token overlap
    this screen is after, and word features keep the all-pairs product
    sparse enough to stay well under the audit time budget.
    """
    from repro.nlp.vectorizer import TfidfVectorizer

    examples = artifacts.space.training_examples
    utterances = [e.utterance for e in examples]
    labels = [e.intent for e in examples]
    vectorizer = TfidfVectorizer(word_ngrams=(1, 2), char_ngrams=None)
    matrix = vectorizer.fit_transform(utterances).tocsr()
    similarities = (matrix @ matrix.T).tocoo()

    # One finding per unordered intent pair, carrying the worst example.
    worst: dict[tuple[str, str], tuple[float, str, str, int]] = {}
    for i, j, value in zip(
        similarities.row, similarities.col, similarities.data
    ):
        if i >= j or value < config.near_duplicate_threshold:
            continue
        if labels[i] == labels[j]:
            continue
        if _normalize(utterances[i]) == _normalize(utterances[j]):
            continue  # identical pairs are A001
        pair = tuple(sorted((labels[i], labels[j])))
        previous = worst.get(pair)
        count = (previous[3] if previous else 0) + 1
        if previous is None or value > previous[0]:
            worst[pair] = (float(value), utterances[i], utterances[j], count)
        else:
            worst[pair] = (*previous[:3], count)
    for (intent_a, intent_b), (value, utt_a, utt_b, count) in sorted(
        worst.items()
    ):
        extra = f" ({count} such pairs)" if count > 1 else ""
        out.warning(
            "A002",
            f"intents {intent_a!r} and {intent_b!r} have near-duplicate "
            f"training utterances{extra}: {utt_a!r} vs {utt_b!r} "
            f"(cosine {value:.2f} >= {config.near_duplicate_threshold})",
            Location(path="space:intent-pair", symbol=f"{intent_a} / {intent_b}"),
            rule="near-duplicate-examples",
        )


# ---------------------------------------------------------------------------
# A003: cross-entity synonym collisions
# ---------------------------------------------------------------------------


def _check_cross_entity_synonyms(
    artifacts: SpaceArtifacts, out: DiagnosticCollector
) -> None:
    """One surface form meaning different things in different entities.

    Two entities sharing a *canonical value* verbatim is the supported
    interactive-disambiguation case ("Did you mean ...?") and is not
    flagged; the problem is a **synonym** whose resolution depends on
    which entity the recognizer consults first.  The within-entity case
    is C015.
    """
    occurrences: dict[str, list[tuple[str, str, bool]]] = {}
    for entity in artifacts.space.entities:
        for value in entity.values:
            occurrences.setdefault(value.value.lower(), []).append(
                (entity.name, value.value, False)
            )
            for synonym in value.synonyms:
                occurrences.setdefault(synonym.lower(), []).append(
                    (entity.name, value.value, True)
                )
    for form, hits in sorted(occurrences.items()):
        entities = {entity for entity, _, _ in hits}
        values = {value for _, value, _ in hits}
        if len(entities) < 2 or len(values) < 2:
            continue
        if not any(is_synonym for _, _, is_synonym in hits):
            continue  # canonical/canonical overlap: disambiguation handles it
        details = ", ".join(
            f"{value!r} in entity {entity!r}"
            + (" (synonym)" if is_synonym else "")
            for entity, value, is_synonym in hits
        )
        out.warning(
            "A003",
            f"surface form {form!r} resolves to different values across "
            f"entities: {details} — recognition silently depends on entity "
            "order",
            Location(path="space:synonym", symbol=form),
            rule="cross-entity-synonym",
        )


# ---------------------------------------------------------------------------
# A004: shadowed query templates
# ---------------------------------------------------------------------------


def _sql_signature(sql: str, parameters: dict[str, str]) -> tuple[str, tuple]:
    return (
        " ".join(sql.split()).lower(),
        tuple(sorted(concept.lower() for concept in parameters.values())),
    )


def _check_shadowed_templates(
    artifacts: SpaceArtifacts, out: DiagnosticCollector
) -> None:
    by_signature: dict[tuple, dict[str, str]] = {}
    for intent_name, templates in artifacts.templates.items():
        for template in templates:
            signature = _sql_signature(template.sql, template.parameters)
            by_signature.setdefault(signature, {})[intent_name] = template.sql
    for signature, intents in sorted(by_signature.items()):
        if len(intents) < 2:
            continue
        names = sorted(intents)
        sql = intents[names[0]]
        snippet = sql if len(sql) <= 100 else sql[:97] + "..."
        out.warning(
            "A004",
            f"intents {', '.join(repr(n) for n in names)} instantiate the "
            f"identical SQL signature ({snippet!r}) — whichever the "
            "classifier picks, the answer is the same, so the intents "
            "shadow each other",
            Location(path="space:template", symbol=" / ".join(names)),
            rule="shadowed-template",
        )


# ---------------------------------------------------------------------------
# A005: elicitation prompts mentioning foreign entities
# ---------------------------------------------------------------------------


def _entity_name_pattern(names: Iterable[str]) -> re.Pattern | None:
    escaped = [re.escape(name.lower()) for name in names if name]
    if not escaped:
        return None
    # Longest-first so "Black Box Warning" wins over a bare "Warning".
    escaped.sort(key=len, reverse=True)
    return re.compile(r"\b(?:" + "|".join(escaped) + r")\b")


def _check_elicitations(
    artifacts: SpaceArtifacts, out: DiagnosticCollector
) -> None:
    """An elicitation prompt naming an unrelated entity invites the user
    to answer with a value the row cannot bind."""
    space = artifacts.space
    names = {entity.name for entity in space.entities}
    names.update(concept.name for concept in space.ontology.concepts())
    pattern = _entity_name_pattern(names)
    if pattern is None:
        return
    for row in artifacts.logic_table.rows:
        allowed = {
            name.lower()
            for name in (*row.required_entities, *row.optional_entities)
        }
        if space.has_intent(row.intent_name):
            result = space.intent(row.intent_name).result_concept
            if result:
                allowed.add(result.lower())
        for concept, prompt in row.elicitations.items():
            mentioned = set(pattern.findall(prompt.lower()))
            mentioned -= allowed
            mentioned.discard(concept.lower())
            for name in sorted(mentioned):
                out.warning(
                    "A005",
                    f"elicitation for {concept!r} ({prompt!r}) mentions "
                    f"entity {name!r}, which the row neither requires nor "
                    "accepts — the invited answer cannot bind",
                    Location(path="space:logic-row", symbol=row.intent_name),
                    rule="elicitation-mentions-entity",
                )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def check_ambiguity(
    artifacts: SpaceArtifacts, config: AmbiguityConfig | None = None
) -> list[Diagnostic]:
    """Run every ambiguity check over pre-built artifacts."""
    config = config or AmbiguityConfig()
    out = DiagnosticCollector()
    _check_training_examples(artifacts, config, out)
    _check_cross_entity_synonyms(artifacts, out)
    _check_shadowed_templates(artifacts, out)
    _check_elicitations(artifacts, out)
    return out.sorted()


def check_space_ambiguity(
    space: ConversationSpace,
    database=None,
    logic_table=None,
    config: AmbiguityConfig | None = None,
) -> list[Diagnostic]:
    """Convenience wrapper: derive artifacts, then run :func:`check_ambiguity`."""
    if database is None:
        database = space.database
    try:
        artifacts = build_artifacts(space, database, logic_table=logic_table)
    except ReproError as exc:
        return [artifact_failure("A001", exc, space)]
    return check_ambiguity(artifacts, config)
