"""Differential tests: the in-place training build against the textbook one.

``SoftmaxClassifier.fit`` updates its weights in place, and
``TfidfVectorizer.fit_transform`` extracts each document's n-grams
once.  Both must give the bits the straightforward code gives, so the
reference versions live here and the comparisons use exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.nlp import classifier as classifier_module
from repro.nlp.classifier import SoftmaxClassifier
from repro.nlp.vectorizer import TfidfVectorizer


def _reference_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _reference_fit(
    model: SoftmaxClassifier, features: sparse.csr_matrix, labels: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """The full-batch momentum update, one fresh array per operation."""
    classes = sorted(set(labels))
    class_index = {c: i for i, c in enumerate(classes)}
    y = np.array([class_index[label] for label in labels], dtype=np.int64)
    n_samples, n_features = features.shape
    one_hot = np.zeros((n_samples, len(classes)), dtype=np.float64)
    one_hot[np.arange(n_samples), y] = 1.0
    weights = np.zeros((n_features, len(classes)), dtype=np.float64)
    bias = np.zeros(len(classes), dtype=np.float64)
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    features_t = features.T.tocsr()
    for _ in range(model.epochs):
        logits = features @ weights + bias
        probs = _reference_softmax(logits)
        error = (probs - one_hot) / n_samples
        grad_w = features_t @ error + model.l2 * weights
        grad_b = error.sum(axis=0)
        vel_w = model.momentum * vel_w - model.learning_rate * grad_w
        vel_b = model.momentum * vel_b - model.learning_rate * grad_b
        weights += vel_w
        bias += vel_b
    return weights, bias


def _assert_fit_matches_reference(model, features, labels):
    model.fit(features, labels)
    weights, bias = _reference_fit(model, features, labels)
    assert np.array_equal(model.weights_, weights)
    assert np.array_equal(model.bias_, bias)


def _random_problem(seed: int) -> tuple[sparse.csr_matrix, list[str]]:
    rng = np.random.default_rng(seed)
    features = sparse.random(
        240, 900, density=0.03, format="csr", random_state=rng
    )
    labels = [f"intent_{k}" for k in rng.integers(0, 9, size=240)]
    return features, labels


class TestSoftmaxFitDifferential:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_random_sparse_problem_bit_identical(self, seed):
        features, labels = _random_problem(seed)
        _assert_fit_matches_reference(
            SoftmaxClassifier(epochs=150), features, labels
        )

    def test_non_default_hyperparameters_bit_identical(self):
        features, labels = _random_problem(3)
        model = SoftmaxClassifier(
            learning_rate=0.7, epochs=80, l2=1e-3, momentum=0.5
        )
        _assert_fit_matches_reference(model, features, labels)

    def test_toy_space_bit_identical(self, toy_space):
        utterances = [e.utterance for e in toy_space.training_examples]
        labels = [e.intent for e in toy_space.training_examples]
        features = TfidfVectorizer().fit_transform(utterances).tocsr()
        _assert_fit_matches_reference(SoftmaxClassifier(), features, labels)

    def test_mdx_space_bit_identical(self, mdx_agent):
        # The shipped model: ~7k features, so ``fit`` adds ``l2 W`` in
        # several row blocks, the last one short.
        utterances = [e.utterance for e in mdx_agent.space.training_examples]
        labels = [e.intent for e in mdx_agent.space.training_examples]
        features = TfidfVectorizer().fit_transform(utterances).tocsr()
        assert features.shape[1] > 2 * classifier_module._L2_BLOCK_ROWS
        assert features.shape[1] % classifier_module._L2_BLOCK_ROWS
        _assert_fit_matches_reference(SoftmaxClassifier(), features, labels)


class TestFitTransformDifferential:
    @staticmethod
    def _assert_same_matrix(left, right):
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(left, field), getattr(right, field))
        assert left.shape == right.shape

    def test_toy_space_matches_fit_then_transform(self, toy_space):
        docs = [e.utterance for e in toy_space.training_examples]
        once = TfidfVectorizer()
        twice = TfidfVectorizer()
        self._assert_same_matrix(
            once.fit_transform(docs), twice.fit(docs).transform(docs)
        )
        assert once.vocabulary_ == twice.vocabulary_
        assert np.array_equal(once.idf_, twice.idf_)

    def test_min_df_and_repeats_match_fit_then_transform(self):
        docs = [
            "dosage dosage for aspirin",
            "dosage for ibuprofen",
            "",
            "what treats fever fever fever",
            "what treats acne",
        ]
        self._assert_same_matrix(
            TfidfVectorizer(min_df=2).fit_transform(docs),
            TfidfVectorizer(min_df=2).fit(docs).transform(docs),
        )
