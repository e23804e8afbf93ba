"""Tests for entity recognition (§6.1)."""

import pytest

from repro.bootstrap.entities import Entity, EntityValue
from repro.engine.recognizer import EntityRecognizer


@pytest.fixture(scope="module")
def recognizer() -> EntityRecognizer:
    drug = Entity(name="Drug", kind="instance", concept="Drug", values=[
        EntityValue("Aspirin", synonyms=["Bayer", "Acetylsalicylic Acid"]),
        EntityValue("Benztropine Mesylate", synonyms=["Cogentin"]),
        EntityValue("Calcium Carbonate", synonyms=["Tums"]),
        EntityValue("Calcium Citrate", synonyms=["Citracal"]),
        EntityValue("Ibuprofen", synonyms=["Advil"]),
    ])
    condition = Entity(name="Indication", kind="instance", concept="Indication",
                       values=[EntityValue("Psoriasis"), EntityValue("Fever")])
    concepts = Entity(name="concept", kind="concept", values=[
        EntityValue("Drug", synonyms=["medication", "meds"]),
        EntityValue("Precaution", synonyms=["caution"]),
        EntityValue("Adverse Effect", synonyms=["side effect"]),
        EntityValue("Dosage", synonyms=["dose", "dosing"]),
    ])
    group = Entity(name="Risk", kind="group", concept="Risk", values=[
        EntityValue("Contra Indication"), EntityValue("Black Box Warning"),
    ])
    return EntityRecognizer([drug, condition, concepts, group])


class TestExactMatching:
    def test_instance_value(self, recognizer):
        result = recognizer.recognize("precautions for Aspirin")
        assert result.values == {"Drug": "Aspirin"}

    def test_case_insensitive(self, recognizer):
        assert recognizer.recognize("ASPIRIN").values == {"Drug": "Aspirin"}

    def test_multiword_value(self, recognizer):
        result = recognizer.recognize("info on benztropine mesylate")
        assert result.values["Drug"] == "Benztropine Mesylate"

    def test_synonym_resolves_to_canonical(self, recognizer):
        """Brand names map back to the generic name (§6.1)."""
        assert recognizer.recognize("cogentin").values["Drug"] == (
            "Benztropine Mesylate"
        )

    def test_base_salt_description(self, recognizer):
        result = recognizer.recognize("acetylsalicylic acid dose")
        assert result.values["Drug"] == "Aspirin"

    def test_multiple_entities(self, recognizer):
        result = recognizer.recognize("aspirin for fever")
        assert result.values == {"Drug": "Aspirin", "Indication": "Fever"}


class TestConceptMentions:
    def test_concept_name(self, recognizer):
        assert "Precaution" in recognizer.recognize("show precaution").concepts

    def test_concept_plural_via_stemming(self, recognizer):
        assert "Precaution" in recognizer.recognize("show precautions").concepts

    def test_concept_synonym(self, recognizer):
        result = recognizer.recognize("side effect of aspirin")
        assert "Adverse Effect" in result.concepts

    def test_group_members_recognized(self, recognizer):
        result = recognizer.recognize("black box warning for aspirin")
        assert "Black Box Warning" in result.concepts

    def test_instance_wins_over_concept_on_same_span(self):
        tricky = Entity(name="Drug", kind="instance", concept="Drug",
                        values=[EntityValue("Dosage")])  # a drug named Dosage
        concepts = Entity(name="concept", kind="concept",
                          values=[EntityValue("Dosage")])
        recognizer = EntityRecognizer([tricky, concepts])
        result = recognizer.recognize("dosage")
        assert result.values == {"Drug": "Dosage"}


class TestFuzzyMatching:
    def test_misspelled_drug(self, recognizer):
        result = recognizer.recognize("asprin dose")
        assert result.values.get("Drug") == "Aspirin"
        assert result.fuzzy_matches

    def test_heavier_misspelling_rejected(self, recognizer):
        assert "Drug" not in recognizer.recognize("azprnn").values

    def test_fuzzy_can_be_disabled(self):
        drug = Entity(name="Drug", kind="instance", concept="Drug",
                      values=[EntityValue("Aspirin")])
        recognizer = EntityRecognizer([drug], enable_fuzzy=False)
        assert recognizer.recognize("asprin").values == {}

    def test_short_tokens_never_fuzzy(self, recognizer):
        assert recognizer.recognize("asa").values == {}


class TestPartialMatching:
    def test_ambiguous_partial_name(self, recognizer):
        """§6.1: base "Calcium" must offer the salt candidates."""
        result = recognizer.recognize("calcium")
        assert "calcium" in result.ambiguous
        candidates = {value for _, value in result.ambiguous["calcium"]}
        assert candidates == {"Calcium Carbonate", "Calcium Citrate"}

    def test_unique_partial_resolves_directly(self, recognizer):
        result = recognizer.recognize("benztropine dose")
        assert result.values.get("Drug") == "Benztropine Mesylate"

    def test_partial_can_be_disabled(self, recognizer):
        no_partial = EntityRecognizer([], enable_partial=False)
        assert no_partial.recognize("calcium").ambiguous == {}


class TestHelpers:
    def test_values_for_concept(self, recognizer):
        values = recognizer.values_for_concept("Indication")
        assert set(values) == {"Psoriasis", "Fever"}

    def test_is_instance_of_whole_utterance(self, recognizer):
        assert recognizer.is_instance_of("aspirin", "Drug") == "Aspirin"
        assert recognizer.is_instance_of("psoriasis", "Drug") is None

    def test_is_instance_of_within_utterance(self, recognizer):
        value = recognizer.is_instance_of("I mean ibuprofen", "Drug")
        assert value == "Ibuprofen"

    def test_has_any_entity(self, recognizer):
        assert recognizer.recognize("aspirin").has_any_entity()
        assert not recognizer.recognize("hello").has_any_entity()


class TestBoundedFuzzyScan:
    """The threshold-bounded fuzzy scan against the unbounded one, on
    one-edit typos of every single-word surface of the MDX space."""

    @staticmethod
    def _typos(word):
        middle = len(word) // 2
        swapped = "z" if word[middle] != "z" else "q"
        return {
            word[:middle] + word[middle + 1:],             # deletion
            word[:middle] + swapped + word[middle + 1:],   # substitution
            word[:middle] + "e" + word[middle:],           # insertion
            word[1:] if len(word) > 1 else word,           # first letter lost
            word + "s",                                    # trailing letter
        }

    def test_same_matches_as_the_unbounded_scan(self, mdx_agent, monkeypatch):
        from repro.engine import recognizer as module
        from repro.nlp.similarity import similarity_ratio
        from repro.nlp.tokenizer import tokenize

        surfaces = sorted({
            key
            for entity in mdx_agent.space.entities
            if entity.kind == "instance" and entity.concept
            for value in entity.values
            for form in value.surface_forms()
            for key in [" ".join(tokenize(form))]
            if key and " " not in key
        })
        typos = sorted({
            typo for word in surfaces for typo in self._typos(word)
            if tokenize(typo) == [typo]
        })
        assert len(surfaces) > 100
        recognizer = mdx_agent.recognizer
        bounded = [recognizer.recognize(t) for t in typos]
        monkeypatch.setattr(
            module, "similarity_ratio",
            lambda a, b, threshold=None: similarity_ratio(a, b),
        )
        unbounded = [recognizer.recognize(t) for t in typos]
        assert bounded == unbounded
        fuzzy = sum(1 for result in bounded if result.fuzzy_matches)
        assert fuzzy > len(surfaces) // 2
