"""Tests for log persistence and log-driven improvement (§9)."""

import pytest

from repro.engine import (
    InteractionRecord,
    load_log,
    mine_negative_interactions,
    retrain_from_log,
    save_log,
)
from repro.engine.logging import harvest_training_candidates
from repro.errors import EngineError
from repro.eval.success import success_rate


def record(utterance="u", intent="A", feedback=None, kind="answer",
           confidence=0.9, sme=None) -> InteractionRecord:
    return InteractionRecord(
        utterance=utterance, response="r", intent=intent,
        confidence=confidence, outcome_kind=kind, feedback=feedback,
        sme_label=sme,
    )


@pytest.fixture
def log() -> list[InteractionRecord]:
    return [
        record("good one", "A"),
        record("bad one", "A", feedback="down", kind="fallback"),
        record("sme bad", "B", sme="negative"),
        record("good two", "B", confidence=0.8),
    ]


class TestPersistence:
    def test_round_trip(self, log, tmp_path):
        path = tmp_path / "log.jsonl"
        count = save_log(log, path)
        assert count == 4
        restored = load_log(path)
        assert len(restored) == 4
        assert restored == log
        assert restored[1].feedback == "down"
        assert restored[2].sme_label == "negative"
        assert success_rate(restored) == success_rate(log)

    def test_missing_file(self, tmp_path):
        with pytest.raises(EngineError, match="not found"):
            load_log(tmp_path / "ghost.jsonl")

    def test_corrupt_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"utterance": "ok"}\nnot json\n')
        with pytest.raises(EngineError, match="line 2"):
            load_log(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "sparse.jsonl"
        path.write_text('{"utterance": "a"}\n\n{"utterance": "b"}\n')
        assert len(load_log(path)) == 2


class TestMining:
    def test_clusters_by_intent(self, log):
        clusters = mine_negative_interactions(log)
        assert [c.intent for c in clusters] == ["A", "B"]
        assert clusters[0].utterances == ["bad one"]
        assert clusters[0].outcome_kinds == ["fallback"]

    def test_sme_negatives_optional(self, log):
        clusters = mine_negative_interactions(log, include_sme=False)
        assert [c.intent for c in clusters] == ["A"]

    def test_largest_cluster_first(self):
        records = [record("x", "B", feedback="down")] * 3
        records.append(record("y", "A", feedback="down"))
        clusters = mine_negative_interactions(records)
        assert clusters[0].intent == "B"
        assert clusters[0].size == 3


class TestHarvest:
    def test_only_confident_positive_answers(self, log, toy_space):
        log.append(record(
            "tell me precaution info for Tazarotene",
            "Precaution of Drug", confidence=0.95,
        ))
        candidates = harvest_training_candidates(log, toy_space)
        assert candidates == [
            ("tell me precaution info for Tazarotene", "Precaution of Drug")
        ]

    def test_negative_and_low_confidence_excluded(self, toy_space):
        records = [
            record("down one", "Precaution of Drug", feedback="down"),
            record("weak one", "Precaution of Drug", confidence=0.3),
            record("wrong kind", "Precaution of Drug", kind="elicit"),
        ]
        assert harvest_training_candidates(records, toy_space) == []

    def test_existing_examples_not_duplicated(self, toy_space):
        known = toy_space.training_examples[0]
        records = [record(known.utterance, known.intent)]
        assert harvest_training_candidates(records, toy_space) == []


class TestRetrainLoop:
    def test_retrain_improves_on_logged_phrasing(self, toy_ontology, toy_db):
        """The §9 loop: a phrasing that users kept using becomes training
        data, and the retrained classifier becomes confident on it."""
        from repro.bootstrap import bootstrap_conversation_space

        space = bootstrap_conversation_space(
            toy_ontology, toy_db, key_concepts=["Drug", "Indication"]
        )
        phrasings = [
            f"anything to watch out for with {drug}"
            for drug in ("Aspirin", "Ibuprofen", "Tazarotene", "Benazepril")
        ]
        records = [
            record(phrasing, "Precaution of Drug", confidence=0.9)
            for phrasing in phrasings
        ]
        added = retrain_from_log(records, space)
        assert added == len(phrasings)
        classifier = space.train_classifier()
        prediction = classifier.classify(
            "anything to watch out for with Fluocinonide"
        )
        assert prediction.intent == "Precaution of Drug"

def test_retrain_limit(toy_ontology, toy_db):
    from repro.bootstrap import bootstrap_conversation_space

    space = bootstrap_conversation_space(
        toy_ontology, toy_db, key_concepts=["Drug"]
    )
    records = [record(f"phrase {i}", "Precaution of Drug") for i in range(5)]
    added = retrain_from_log(records, space, limit=2)
    assert added == 2
