"""Intent classification: multinomial logistic regression + pipeline wrapper."""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.atomic import atomic_write
from repro.errors import NLPError, NotFittedError
from repro.nlp.vectorizer import TfidfVectorizer

#: Part of every model file's key digest: bump it when the layout, or what
#: ``fit`` computes from the same inputs, changes, so old files retrain.
MODEL_FORMAT = 1

#: The arrays a model file holds, in the order its content digest reads them.
_MODEL_ARRAYS = ("vocabulary", "idf", "weights", "bias", "classes")


def _content_digest(arrays: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in _MODEL_ARRAYS:
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name} {array.dtype.str} {array.shape}\n".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _softmax_in_place(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, overwriting and returning ``logits``."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


#: Rows of the weight matrix per ``l2 W`` temporary in ``fit``: bounds
#: that temporary instead of holding a full-size scratch copy of W.
_L2_BLOCK_ROWS = 1024


class SoftmaxClassifier:
    """Multinomial logistic regression trained by full-batch gradient descent.

    Trains on a SciPy sparse matrix (``fit`` imports scipy) and scores
    CSR-shaped rows with numpy alone.  Uses L2 regularization and a
    simple momentum update; deterministic given the inputs.

    Parameters
    ----------
    learning_rate:
        Gradient-descent step size.
    epochs:
        Number of full-batch iterations.
    l2:
        L2 regularization strength on the weights (not the bias).
    momentum:
        Classical momentum coefficient.
    """

    def __init__(
        self,
        learning_rate: float = 2.0,
        epochs: int = 600,
        l2: float = 3e-5,
        momentum: float = 0.9,
    ) -> None:
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.momentum = momentum
        self.classes_: list[str] | None = None
        self.weights_: np.ndarray | None = None
        self.bias_: np.ndarray | None = None

    def fit(self, features, labels: Sequence[str]) -> "SoftmaxClassifier":
        """Train on sparse ``features`` (a ``csr_matrix`` or
        :class:`~repro.nlp.vectorizer.Rows`) with string ``labels``."""
        if features.shape[0] != len(labels):
            raise NLPError(
                f"feature rows ({features.shape[0]}) != labels ({len(labels)})"
            )
        if features.shape[0] == 0:
            raise NLPError("cannot fit on an empty training set")
        features = features.tocsr()
        classes = sorted(set(labels))
        class_index = {c: i for i, c in enumerate(classes)}
        y = np.array([class_index[label] for label in labels], dtype=np.int64)
        n_samples, n_features = features.shape
        n_classes = len(classes)

        one_hot = np.zeros((n_samples, n_classes), dtype=np.float64)
        one_hot[np.arange(n_samples), y] = 1.0

        weights = np.zeros((n_features, n_classes), dtype=np.float64)
        bias = np.zeros(n_classes, dtype=np.float64)
        vel_w = np.zeros_like(weights)
        vel_b = np.zeros_like(bias)
        features_t = features.T.tocsr()

        # The textbook update, done in place: besides the two sparse
        # products an epoch allocates only per-row and per-class vectors
        # and ``l2 W`` one block of rows at a time.
        # Elementwise IEEE operations round the same in place as out of
        # it, so the weights are bit-identical to the textbook form's:
        #   error = (softmax(X W + b) - Y) / n
        #   v_W   = momentum v_W - lr (X^T error + l2 W);   W += v_W
        #   v_b   = momentum v_b - lr sum(error);           b += v_b
        for _ in range(self.epochs):
            error = features @ weights
            error += bias
            _softmax_in_place(error)
            error -= one_hot
            error /= n_samples
            grad_w = features_t @ error
            for start in range(0, n_features, _L2_BLOCK_ROWS):
                rows = slice(start, start + _L2_BLOCK_ROWS)
                grad_w[rows] += weights[rows] * self.l2
            grad_w *= self.learning_rate
            vel_w *= self.momentum
            vel_w -= grad_w
            weights += vel_w
            vel_b *= self.momentum
            vel_b -= self.learning_rate * error.sum(axis=0)
            bias += vel_b
            # Free this epoch's buffers before the next products allocate.
            del error, grad_w

        self.classes_ = classes
        self.weights_ = weights
        self.bias_ = bias
        return self

    def predict_proba(self, features) -> np.ndarray:
        """Class probabilities, shape (n_samples, n_classes), of CSR-shaped
        ``features`` (:class:`~repro.nlp.vectorizer.Rows` or a ``csr_matrix``).

        Each row adds its weighted weight rows in stored order, as the
        sparse product ``X @ W`` does, so the result is bit-identical.
        """
        if self.weights_ is None or self.bias_ is None or self.classes_ is None:
            raise NotFittedError("SoftmaxClassifier is not fitted")
        weights = self.weights_
        indptr, indices, data = features.indptr, features.indices, features.data
        logits = np.empty((features.shape[0], weights.shape[1]))
        for row in range(features.shape[0]):
            span = slice(indptr[row], indptr[row + 1])
            logits[row] = (data[span, None] * weights[indices[span]]).sum(axis=0)
        logits += self.bias_
        return _softmax_in_place(logits)

    def predict(self, features) -> list[str]:
        """Most likely class per sample."""
        probs = self.predict_proba(features)
        assert self.classes_ is not None
        return [self.classes_[i] for i in probs.argmax(axis=1)]


@dataclass(frozen=True)
class IntentPrediction:
    """One classified utterance: the intent plus the model's confidence."""

    intent: str
    confidence: float
    #: The probability vector over :attr:`IntentClassifier.intents` this
    #: prediction was read from, so :meth:`IntentClassifier.top_k` can
    #: rank the utterance without scoring it again.  ``None`` on the
    #: ranked predictions ``top_k`` itself returns.
    distribution: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )

    def is_confident(self, threshold: float) -> bool:
        """True when the confidence meets ``threshold``."""
        return self.confidence >= threshold


class IntentClassifier:
    """End-to-end intent classifier: text in, (intent, confidence) out.

    This mirrors the Watson Assistant contract described in §7 of the
    paper: "Watson Assistant returns an intent detected corresponding to
    each user utterance with a confidence score."

    Parameters
    ----------
    vectorizer:
        Feature extractor; a default word+char TF-IDF vectorizer is used
        when omitted.
    model:
        The underlying classifier; defaults to :class:`SoftmaxClassifier`.
    """

    def __init__(
        self,
        vectorizer: TfidfVectorizer | None = None,
        model: SoftmaxClassifier | None = None,
    ) -> None:
        self.vectorizer = vectorizer or TfidfVectorizer()
        self.model = model or SoftmaxClassifier()
        #: :meth:`model_key` of the examples this was fitted on; ``None``
        #: until fitted or loaded.
        self._key: str | None = None

    def fit(self, utterances: Sequence[str], intents: Sequence[str]) -> "IntentClassifier":
        """Train on parallel lists of example utterances and intent labels."""
        if len(utterances) != len(intents):
            raise NLPError("utterances and intents must have equal length")
        features = self.vectorizer.fit_transform(utterances)
        self.model.fit(features, intents)
        self._key = self.model_key(utterances, intents)
        return self

    def model_key(self, utterances: Sequence[str], intents: Sequence[str]) -> str:
        """The key digest of a model fitted on these examples with this
        classifier's vectorizer and model parameters."""
        vectorizer, model = self.vectorizer, self.model
        inputs = [
            MODEL_FORMAT, list(zip(utterances, intents)),
            vectorizer.word_ngrams, vectorizer.char_ngrams, vectorizer.min_df,
            sorted(vectorizer.tokenizer.stopwords), vectorizer.tokenizer.use_stemming,
            model.learning_rate, model.epochs, model.l2, model.momentum,
        ]
        return hashlib.sha256(json.dumps(inputs).encode()).hexdigest()

    def save(self, path: str | Path) -> None:
        """Write the fitted model to ``path`` as one ``.npz``, keyed by
        the examples it was fitted on."""
        vocabulary = self.vectorizer.vocabulary_
        if self._key is None or vocabulary is None:
            raise NotFittedError("IntentClassifier is not fitted")
        features = sorted(vocabulary, key=vocabulary.__getitem__)
        arrays = dict(
            vocabulary=np.array(features, dtype=str), idf=self.vectorizer.idf_,
            weights=self.model.weights_, bias=self.model.bias_,
            classes=np.array(self.model.classes_, dtype=str),
        )
        if arrays["vocabulary"].tolist() != features:
            raise NLPError("a feature does not survive a numpy string array")
        buffer = io.BytesIO()
        np.savez(buffer, key=np.array(self._key),
                 content=np.array(_content_digest(arrays)), **arrays)
        atomic_write(path, buffer.getvalue())

    def load(
        self, path: str | Path, utterances: Sequence[str], intents: Sequence[str]
    ) -> "IntentClassifier":
        """Take the model fitted on these examples from the file
        :meth:`save` wrote; raise :class:`NLPError` saying why the file is
        unreadable, keyed otherwise, or fails its content digest."""
        try:
            with np.load(path, allow_pickle=False) as stored:
                key, content = str(stored["key"]), str(stored["content"])
                arrays = {name: stored[name] for name in _MODEL_ARRAYS}
        except Exception as exc:  # any unreadable file means: retrain
            raise NLPError(f"cannot read {path}: {exc!r}") from exc
        if key != self.model_key(utterances, intents):
            raise NLPError(f"{path} was fitted on other examples or parameters")
        if content != _content_digest(arrays):
            raise NLPError(f"{path} does not match its content digest")
        vocabulary = {f: i for i, f in enumerate(arrays["vocabulary"].tolist())}
        self.vectorizer.set_vocabulary(vocabulary, arrays["idf"])
        self.model.classes_ = arrays["classes"].tolist()
        self.model.weights_ = arrays["weights"]
        self.model.bias_ = arrays["bias"]
        self._key = key
        return self

    @property
    def intents(self) -> list[str]:
        """The intent labels this classifier can produce."""
        if self._key is None or self.model.classes_ is None:
            raise NotFittedError("IntentClassifier is not fitted")
        return list(self.model.classes_)

    def classify(self, utterance: str) -> IntentPrediction:
        """Classify one utterance."""
        return self.classify_batch([utterance])[0]

    def classify_batch(self, utterances: Sequence[str]) -> list[IntentPrediction]:
        """Classify many utterances at once (one vectorize, one scoring call)."""
        if self._key is None:
            raise NotFittedError("IntentClassifier is not fitted")
        features = self.vectorizer.transform(utterances)
        probs = self.model.predict_proba(features)
        assert self.model.classes_ is not None
        best = probs.argmax(axis=1)
        return [
            IntentPrediction(
                self.model.classes_[idx], float(probs[row, idx]), probs[row]
            )
            for row, idx in enumerate(best)
        ]

    def top_k(self, distribution: np.ndarray, k: int = 3) -> list[IntentPrediction]:
        """The ``k`` most likely intents of a scored utterance, best first.

        ``distribution`` is an :attr:`IntentPrediction.distribution` from
        :meth:`classify`; ranking it scores nothing again.
        """
        if self._key is None:
            raise NotFittedError("IntentClassifier is not fitted")
        assert self.model.classes_ is not None
        order = np.argsort(distribution)[::-1][:k]
        return [
            IntentPrediction(self.model.classes_[i], float(distribution[i]))
            for i in order
        ]
