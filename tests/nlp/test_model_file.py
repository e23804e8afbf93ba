"""The intent model file: save, load, and every way a file is refused.

``ConversationSpace.train_classifier(model_path=...)`` loads a model
file only when its key digest names these training examples and these
parameters and its arrays match its content digest.  Anything else — a
changed example or hyperparameter, a damaged file, an array that would
need pickle — must retrain: never crash, never serve a stale model.
"""

from __future__ import annotations

import dataclasses
import io
import logging

import numpy as np
import pytest

from repro.bootstrap.training import TrainingExample
from repro.errors import NLPError
from repro.nlp.classifier import IntentClassifier, SoftmaxClassifier


def _state(classifier: IntentClassifier) -> dict[str, np.ndarray]:
    vocabulary = classifier.vectorizer.vocabulary_
    return {
        "vocabulary": np.array(sorted(vocabulary, key=vocabulary.get)),
        "idf": classifier.vectorizer.idf_,
        "weights": classifier.model.weights_,
        "bias": classifier.model.bias_,
        "classes": np.array(classifier.model.classes_),
    }


def _assert_same_model(left: IntentClassifier, right: IntentClassifier) -> None:
    assert left.vectorizer.vocabulary_ == right.vectorizer.vocabulary_
    right_state = _state(right)
    for name, array in _state(left).items():
        assert np.array_equal(array, right_state[name]), name


def _like(classifier: IntentClassifier | None) -> IntentClassifier | None:
    """A fresh classifier with ``classifier``'s model parameters."""
    if classifier is None:
        return None
    model = classifier.model
    return IntentClassifier(model=SoftmaxClassifier(
        model.learning_rate, model.epochs, model.l2, model.momentum
    ))


@pytest.fixture(scope="module")
def fitted(toy_space):
    return toy_space.train_classifier()


@pytest.fixture
def model_file(tmp_path, fitted):
    path = tmp_path / "intent_model.npz"
    fitted.save(path)
    return path


@pytest.fixture
def fits(monkeypatch):
    """Every ``SoftmaxClassifier.fit`` call from here on."""
    calls = []
    fit = SoftmaxClassifier.fit

    def counting(self, *args, **kwargs):
        calls.append(self)
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(SoftmaxClassifier, "fit", counting)
    return calls


def _rewrite(path, **members) -> None:
    """Rewrite the model file with ``members`` replaced, digests kept."""
    with np.load(path) as stored:
        arrays = {name: stored[name] for name in stored.files}
    arrays.update(members)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    path.write_bytes(buffer.getvalue())


def _assert_retrains(space, path, fits, caplog, why, classifier=None):
    with caplog.at_level(logging.WARNING, logger="repro.bootstrap.space"):
        trained = space.train_classifier(_like(classifier), model_path=path)
    assert len(fits) == 1, "the model file was not refused"
    assert why in caplog.text
    # The model is what fitting gives, not what the file held.
    _assert_same_model(trained, space.train_classifier(_like(classifier)))


class TestRoundTrip:
    def test_load_gives_the_fitted_model(self, toy_space, fitted, model_file, fits):
        loaded = toy_space.train_classifier(model_path=model_file)
        assert fits == []
        _assert_same_model(loaded, fitted)
        for utterance in ("dosage for aspirin", "what treats fever", ""):
            assert loaded.classify(utterance) == fitted.classify(utterance)

    def test_saving_again_gives_identical_bytes(self, tmp_path, toy_space, fitted,
                                                model_file):
        again = tmp_path / "again.npz"
        toy_space.train_classifier(model_path=model_file).save(again)
        assert again.read_bytes() == model_file.read_bytes()

    def test_loads_without_pickle(self, toy_space, model_file, monkeypatch):
        calls = []
        load = np.load

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return load(*args, **kwargs)

        monkeypatch.setattr(np, "load", recording)
        toy_space.train_classifier(model_path=model_file)
        assert calls == [{"allow_pickle": False}]

    def test_unfitted_classifier_cannot_be_saved(self, tmp_path):
        with pytest.raises(NLPError):
            IntentClassifier().save(tmp_path / "m.npz")


class TestRetrains:
    def test_changed_training_example(self, toy_space, model_file, fits, caplog):
        first = toy_space.training_examples[0]
        changed = dataclasses.replace(toy_space, training_examples=[
            TrainingExample(first.utterance + " please now", first.intent),
            *toy_space.training_examples[1:],
        ])
        _assert_retrains(changed, model_file, fits, caplog,
                         "fitted on other examples or parameters")

    def test_changed_hyperparameter(self, toy_space, model_file, fits, caplog):
        _assert_retrains(
            toy_space, model_file, fits, caplog,
            "fitted on other examples or parameters",
            IntentClassifier(model=SoftmaxClassifier(epochs=10)),
        )

    @pytest.mark.parametrize("keep", [0.0, 0.01, 0.5, 0.99])
    def test_truncated_file(self, toy_space, model_file, fits, caplog, keep):
        data = model_file.read_bytes()
        model_file.write_bytes(data[: int(len(data) * keep)])
        _assert_retrains(toy_space, model_file, fits, caplog, "cannot read")

    def test_missing_file(self, tmp_path, toy_space, fits, caplog):
        _assert_retrains(toy_space, tmp_path / "absent.npz", fits, caplog,
                         "cannot read")

    def test_flipped_byte_inside_the_weights(self, toy_space, model_file, fits,
                                             caplog):
        data = bytearray(model_file.read_bytes())
        with np.load(model_file) as stored:
            weights = stored["weights"].tobytes()
        offset = data.index(weights) + len(weights) // 2
        data[offset] ^= 0x01
        model_file.write_bytes(bytes(data))
        # The zip member's CRC catches it before the content digest can.
        _assert_retrains(toy_space, model_file, fits, caplog, "cannot read")

    def test_weights_that_fail_the_content_digest(self, toy_space, fitted,
                                                  model_file, fits, caplog):
        weights = fitted.model.weights_.copy()
        weights[0, 0] = np.nextafter(weights[0, 0], np.inf)
        _rewrite(model_file, weights=weights)
        _assert_retrains(toy_space, model_file, fits, caplog,
                         "does not match its content digest")

    def test_object_array_that_needs_pickle(self, toy_space, fitted, model_file,
                                            fits, caplog):
        _rewrite(model_file, classes=np.array(fitted.model.classes_, dtype=object))
        _assert_retrains(toy_space, model_file, fits, caplog, "cannot read")

    def test_missing_array(self, tmp_path, toy_space, fitted, fits, caplog):
        path = tmp_path / "partial.npz"
        np.savez(path, weights=fitted.model.weights_)
        _assert_retrains(toy_space, path, fits, caplog, "cannot read")
