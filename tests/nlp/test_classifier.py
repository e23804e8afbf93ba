"""Tests for the softmax intent classifier."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import NLPError, NotFittedError
from repro.nlp.classifier import IntentClassifier, SoftmaxClassifier
from repro.nlp.vectorizer import TfidfVectorizer

UTTERANCES = [
    "show me the precautions for aspirin",
    "give me the precautions for ibuprofen",
    "tell me about precautions of naproxen",
    "what are the precautions for tylenol",
    "what drug treats fever",
    "which medication treats psoriasis",
    "what drugs treat acne",
    "find drugs that treat pain",
    "dosage for aspirin",
    "give me the dosage for ibuprofen",
    "how much tylenol should i take",
    "show dosage of naproxen",
]
LABELS = ["precaution"] * 4 + ["treatment"] * 4 + ["dosage"] * 4


@pytest.fixture(scope="module")
def fitted() -> IntentClassifier:
    return IntentClassifier().fit(UTTERANCES, LABELS)


class TestSoftmaxClassifier:
    def test_learns_separable_data(self):
        features = sparse.csr_matrix(np.array([
            [1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9],
        ]))
        model = SoftmaxClassifier(epochs=200).fit(features, ["a", "a", "b", "b"])
        assert model.predict(features) == ["a", "a", "b", "b"]

    def test_probabilities_sum_to_one(self):
        features = sparse.csr_matrix(np.eye(3))
        model = SoftmaxClassifier(epochs=50).fit(features, ["a", "b", "c"])
        probs = model.predict_proba(features)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_mismatched_lengths_rejected(self):
        features = sparse.csr_matrix(np.eye(2))
        with pytest.raises(NLPError):
            SoftmaxClassifier().fit(features, ["a"])

    def test_empty_training_rejected(self):
        features = sparse.csr_matrix((0, 3))
        with pytest.raises(NLPError):
            SoftmaxClassifier().fit(features, [])

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            SoftmaxClassifier().predict_proba(sparse.csr_matrix(np.eye(2)))

    def test_deterministic(self):
        features = sparse.csr_matrix(np.eye(4))
        labels = ["a", "b", "a", "b"]
        m1 = SoftmaxClassifier(epochs=100).fit(features, labels)
        m2 = SoftmaxClassifier(epochs=100).fit(features, labels)
        assert np.array_equal(m1.weights_, m2.weights_)


class TestIntentClassifier:
    def test_classifies_training_domain(self, fitted):
        assert fitted.classify("precautions for aspirin").intent == "precaution"
        assert fitted.classify("what treats fever").intent == "treatment"
        assert fitted.classify("dosage of tylenol").intent == "dosage"

    def test_confidence_in_unit_interval(self, fitted):
        prediction = fitted.classify("precautions for aspirin")
        assert 0.0 <= prediction.confidence <= 1.0

    def test_intents_listed(self, fitted):
        assert fitted.intents == ["dosage", "precaution", "treatment"]

    def test_batch_matches_single(self, fitted):
        single = fitted.classify("dosage for aspirin")
        batch = fitted.classify_batch(["dosage for aspirin"])[0]
        assert single == batch

    def test_top_k_ordering(self, fitted):
        scored = fitted.classify("precautions for aspirin")
        top = fitted.top_k(scored.distribution, k=3)
        assert len(top) == 3
        assert top[0].confidence >= top[1].confidence >= top[2].confidence
        assert top[0].intent == "precaution"

    def test_distribution_is_the_scored_row(self, fitted):
        for utterance in UTTERANCES + ["dosage of tylenol", "apfjhd"]:
            expected = fitted.model.predict_proba(
                fitted.vectorizer.transform([utterance])
            )[0]
            prediction = fitted.classify(utterance)
            assert np.array_equal(prediction.distribution, expected)
            assert prediction.confidence == float(expected.max())

    def test_top_k_ranks_without_scoring(self, fitted, monkeypatch):
        distribution = fitted.classify("what treats fever").distribution
        expected = [
            (fitted.intents[i], float(distribution[i]))
            for i in np.argsort(distribution)[::-1][:2]
        ]

        def fail(*args, **kwargs):
            raise AssertionError("top_k must not score the utterance again")

        monkeypatch.setattr(fitted.vectorizer, "transform", fail)
        monkeypatch.setattr(fitted.model, "predict_proba", fail)
        top = fitted.top_k(distribution, k=2)
        assert [(p.intent, p.confidence) for p in top] == expected

    def test_distribution_does_not_affect_equality(self, fitted):
        prediction = fitted.classify("dosage for aspirin")
        assert prediction == type(prediction)(
            prediction.intent, prediction.confidence
        )

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            IntentClassifier().classify("x")
        with pytest.raises(NotFittedError):
            IntentClassifier().intents

    def test_length_mismatch_rejected(self):
        with pytest.raises(NLPError):
            IntentClassifier().fit(["a"], ["x", "y"])

    def test_is_confident_helper(self, fitted):
        prediction = fitted.classify("precautions for aspirin")
        assert prediction.is_confident(0.0)
        assert not prediction.is_confident(1.01)

    def test_custom_vectorizer(self):
        clf = IntentClassifier(vectorizer=TfidfVectorizer(char_ngrams=None))
        clf.fit(UTTERANCES, LABELS)
        assert clf.classify("precautions for aspirin").intent == "precaution"
