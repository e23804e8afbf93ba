"""The shipped MDX intent model stays what training would give.

``repro/medical/mdx_intent_model.npz`` lets every serving process load
the classifier instead of fitting it.  These tests keep the file honest:
its key names today's training inputs, fitting from scratch gives its
exact arrays, and the numpy-only row scoring equals the sparse product
the model was validated with.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.medical.build import MDX_INTENT_MODEL
from repro.nlp.classifier import IntentClassifier, _softmax_in_place

REGENERATE = "regenerate it with: PYTHONPATH=src python -m repro.medical"


@pytest.fixture(scope="module")
def shipped():
    with np.load(MDX_INTENT_MODEL, allow_pickle=False) as stored:
        return {name: stored[name] for name in stored.files}


@pytest.fixture(scope="module")
def training(mdx_agent):
    examples = mdx_agent.space.training_examples
    return [e.utterance for e in examples], [e.intent for e in examples]


def test_key_names_todays_training_inputs(shipped, training):
    key = IntentClassifier().model_key(*training)
    assert str(shipped["key"]) == key, (
        f"{MDX_INTENT_MODEL.name} was fitted on other MDX training inputs; "
        + REGENERATE
    )


def test_fitting_from_scratch_gives_the_shipped_arrays(shipped, training):
    fresh = IntentClassifier().fit(*training)
    vocabulary = fresh.vectorizer.vocabulary_
    assert list(vocabulary) == shipped["vocabulary"].tolist(), REGENERATE
    assert list(vocabulary.values()) == list(range(len(vocabulary)))
    for name, array in (
        ("idf", fresh.vectorizer.idf_),
        ("weights", fresh.model.weights_),
        ("bias", fresh.model.bias_),
        ("classes", np.array(fresh.model.classes_)),
    ):
        assert np.array_equal(array, shipped[name]), f"{name}: {REGENERATE}"


def _noisy(utterance: str, rng: random.Random) -> str:
    """``utterance`` with one character dropped, doubled or replaced."""
    if not utterance:
        return utterance
    i = rng.randrange(len(utterance))
    edit = rng.choice(["drop", "double", "replace"])
    if edit == "drop":
        return utterance[:i] + utterance[i + 1:]
    if edit == "double":
        return utterance[:i] + utterance[i] + utterance[i:]
    return utterance[:i] + rng.choice("abcdefghijklmnopqrstuvwxyz") + utterance[i + 1:]


def test_row_scoring_equals_the_sparse_product(mdx_agent, training):
    classifier = mdx_agent.classifier
    utterances, _ = training
    rng = random.Random(29)
    corpus = utterances + [_noisy(u, rng) for u in utterances] + [
        "", "apfjhd qwerty", "?!", "dosage dosage dosage for for aspirin",
    ]
    rows = classifier.vectorizer.transform(corpus)
    expected = _softmax_in_place(
        rows.tocsr() @ classifier.model.weights_ + classifier.model.bias_
    )
    assert np.array_equal(classifier.model.predict_proba(rows), expected)
    # A scipy matrix is CSR-shaped too, and scores the same.
    assert np.array_equal(classifier.model.predict_proba(rows.tocsr()), expected)
