"""Entity recognition in user utterances.

Implements the recognition behaviours §6.1 describes for MDX:

* exact matching of entity values *and their synonyms* (brand names,
  base-with-salt descriptions, concept synonyms),
* fuzzy matching for misspellings ("asprin" → Aspirin; §7.2 names heavy
  misspellings as a main source of negative interactions),
* partial-name matching with disambiguation candidates ("Calcium" →
  Calcium Carbonate, Calcium Citrate, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bootstrap.entities import Entity
from repro.nlp.similarity import similarity_ratio
from repro.nlp.tokenizer import stem, tokenize

#: Minimum normalized similarity for a fuzzy (misspelling) match.
DEFAULT_FUZZY_THRESHOLD = 0.84

#: Longest token n-gram considered when matching surfaces.
MAX_SURFACE_TOKENS = 6


@dataclass
class RecognitionResult:
    """Everything recognized in one utterance."""

    #: concept name -> canonical instance value (exact + fuzzy matches).
    values: dict[str, str] = field(default_factory=dict)
    #: ontology concepts mentioned by name/synonym ("precautions", "dosage").
    concepts: list[str] = field(default_factory=list)
    #: partial-name matches needing disambiguation:
    #: surface text -> list of (concept, candidate value).
    ambiguous: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    #: matches that were fuzzy (concept -> matched surface), for logging.
    fuzzy_matches: dict[str, str] = field(default_factory=dict)

    def has_any_entity(self) -> bool:
        return bool(self.values)


class EntityRecognizer:
    """Dictionary-based recognizer built from the conversation space's
    entities.

    Matching runs longest-n-gram-first over the tokenized utterance:
    instance values win over concept mentions on the same span, exact
    matches win over fuzzy ones, and leftover single tokens are checked
    for misspellings and partial names.
    """

    def __init__(
        self,
        entities: list[Entity],
        fuzzy_threshold: float = DEFAULT_FUZZY_THRESHOLD,
        enable_fuzzy: bool = True,
        enable_partial: bool = True,
    ) -> None:
        self.fuzzy_threshold = fuzzy_threshold
        self.enable_fuzzy = enable_fuzzy
        self.enable_partial = enable_partial
        # surface (token-joined) -> (concept, canonical value)
        self._instance_surfaces: dict[str, tuple[str, str]] = {}
        # surface -> concept name
        self._concept_surfaces: dict[str, str] = {}
        # first word of a multi-word value -> [(concept, value)]
        self._partial_index: dict[str, list[tuple[str, str]]] = {}
        # single-word surfaces bucketed by first character, for bounded
        # fuzzy scans (fuzzy matching never spans words)
        self._fuzzy_buckets: dict[str, list[tuple[str, str, str]]] = {}

        for entity in entities:
            if entity.kind == "instance" and entity.concept:
                for value in entity.values:
                    for form in value.surface_forms():
                        key = " ".join(tokenize(form))
                        if not key:
                            continue
                        self._instance_surfaces.setdefault(
                            key, (entity.concept, value.value)
                        )
                        words = key.split()
                        if len(words) > 1:
                            self._partial_index.setdefault(words[0], []).append(
                                (entity.concept, value.value)
                            )
                        elif len(key) >= 4:
                            self._fuzzy_buckets.setdefault(key[0], []).append(
                                (key, entity.concept, value.value)
                            )
            elif entity.kind in ("concept", "group"):
                for value in entity.values:
                    for form in value.surface_forms():
                        key = " ".join(tokenize(form))
                        if key:
                            self._concept_surfaces.setdefault(key, value.value)
                        # Concept mentions are inflection-tolerant:
                        # "precautions"/"drugs" must hit "Precaution"/"Drug".
                        stemmed = " ".join(stem(t) for t in tokenize(form))
                        if stemmed:
                            self._concept_surfaces.setdefault(stemmed, value.value)

    # -- matching ----------------------------------------------------------

    def recognize(self, utterance: str) -> RecognitionResult:
        """Recognize entities, concept mentions and ambiguities in
        ``utterance``."""
        tokens = tokenize(utterance)
        result = RecognitionResult()
        used = [False] * len(tokens)

        # Pass 1: exact n-gram matches, longest first.
        stems = [stem(t) for t in tokens]
        for length in range(min(MAX_SURFACE_TOKENS, len(tokens)), 0, -1):
            for start in range(len(tokens) - length + 1):
                if any(used[start : start + length]):
                    continue
                end = start + length
                gram = " ".join(tokens[start:end])
                hit = self._instance_surfaces.get(gram)
                if hit is not None:
                    concept, value = hit
                    result.values.setdefault(concept, value)
                    for i in range(start, end):
                        used[i] = True
                    continue
                concept = self._concept_surfaces.get(gram)
                if concept is None:
                    concept = self._concept_surfaces.get(" ".join(stems[start:end]))
                if concept is not None:
                    if concept not in result.concepts:
                        result.concepts.append(concept)
                    for i in range(start, end):
                        used[i] = True

        # Pass 2: leftover tokens — partial names, then misspellings.
        for i, token in enumerate(tokens):
            if used[i] or len(token) < 4:
                continue
            if self.enable_partial:
                candidates = self._partial_index.get(token, [])
                distinct = []
                seen_values: set[str] = set()
                for concept, value in candidates:
                    if value.lower() not in seen_values:
                        seen_values.add(value.lower())
                        distinct.append((concept, value))
                if len(distinct) == 1:
                    concept, value = distinct[0]
                    result.values.setdefault(concept, value)
                    used[i] = True
                    continue
                if len(distinct) > 1:
                    # Candidate order reaches the disambiguation prompt
                    # (and the journal): sort so it never depends on
                    # entity declaration/load order.
                    distinct.sort(key=lambda pair: (pair[1], pair[0]))
                    result.ambiguous[token] = distinct
                    used[i] = True
                    continue
            if self.enable_fuzzy:
                match = self._fuzzy_match(token)
                if match is not None:
                    concept, value, surface = match
                    if concept not in result.values:
                        result.values[concept] = value
                        result.fuzzy_matches[concept] = surface
                    used[i] = True
        return result

    def _fuzzy_match(self, token: str) -> tuple[str, str, str] | None:
        bucket = self._fuzzy_buckets.get(token[0], [])
        best: tuple[float, str, str, str] | None = None
        for surface, concept, value in bucket:
            if abs(len(surface) - len(token)) > 2:
                continue
            ratio = similarity_ratio(token, surface, self.fuzzy_threshold)
            if ratio >= self.fuzzy_threshold and (best is None or ratio > best[0]):
                best = (ratio, concept, value, surface)
        if best is None:
            return None
        return best[1], best[2], best[3]

    # -- lookups used by the agent ---------------------------------------------

    def values_for_concept(self, concept: str) -> list[str]:
        """Every canonical value recognized as ``concept`` (for elicitation
        checks)."""
        out: dict[str, None] = {}
        for mapped_concept, value in self._instance_surfaces.values():
            if mapped_concept.lower() == concept.lower():
                out.setdefault(value)
        return list(out)

    def whole_utterance_instance(self, utterance: str) -> tuple[str, str] | None:
        """If the *entire* utterance names one instance value (any surface
        form), return (concept, canonical value) — the paper's keyword-
        style, entity-only query ("cogentin")."""
        gram = " ".join(tokenize(utterance))
        hit = self._instance_surfaces.get(gram)
        return hit if hit else None

    def is_instance_of(self, utterance: str, concept: str) -> str | None:
        """If the whole utterance names an instance of ``concept``, return
        the canonical value (used when answering an elicitation)."""
        gram = " ".join(tokenize(utterance))
        hit = self._instance_surfaces.get(gram)
        if hit and hit[0].lower() == concept.lower():
            return hit[1]
        result = self.recognize(utterance)
        return result.values.get(concept) or next(
            (
                v
                for c, v in result.values.items()
                if c.lower() == concept.lower()
            ),
            None,
        )
