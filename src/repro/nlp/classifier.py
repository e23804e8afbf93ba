"""Intent classification: multinomial logistic regression + pipeline wrapper."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse

from repro.errors import NLPError, NotFittedError
from repro.nlp.vectorizer import TfidfVectorizer


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

    Works directly on SciPy sparse matrices.  Uses L2 regularization and a
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

    def fit(self, features: sparse.csr_matrix, labels: Sequence[str]) -> "SoftmaxClassifier":
        """Train on sparse ``features`` with string ``labels``."""
        if features.shape[0] != len(labels):
            raise NLPError(
                f"feature rows ({features.shape[0]}) != labels ({len(labels)})"
            )
        if features.shape[0] == 0:
            raise NLPError("cannot fit on an empty training set")
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

    def predict_proba(self, features: sparse.csr_matrix) -> np.ndarray:
        """Class probabilities, shape (n_samples, n_classes)."""
        if self.weights_ is None or self.bias_ is None or self.classes_ is None:
            raise NotFittedError("SoftmaxClassifier is not fitted")
        return _softmax_in_place(features @ self.weights_ + self.bias_)

    def predict(self, features: sparse.csr_matrix) -> list[str]:
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
        self._fitted = False

    def fit(self, utterances: Sequence[str], intents: Sequence[str]) -> "IntentClassifier":
        """Train on parallel lists of example utterances and intent labels."""
        if len(utterances) != len(intents):
            raise NLPError("utterances and intents must have equal length")
        features = self.vectorizer.fit_transform(utterances)
        self.model.fit(features, intents)
        self._fitted = True
        return self

    @property
    def intents(self) -> list[str]:
        """The intent labels this classifier can produce."""
        if not self._fitted or self.model.classes_ is None:
            raise NotFittedError("IntentClassifier is not fitted")
        return list(self.model.classes_)

    def classify(self, utterance: str) -> IntentPrediction:
        """Classify one utterance."""
        return self.classify_batch([utterance])[0]

    def classify_batch(self, utterances: Sequence[str]) -> list[IntentPrediction]:
        """Classify many utterances at once (single matrix multiply)."""
        if not self._fitted:
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
        if not self._fitted:
            raise NotFittedError("IntentClassifier is not fitted")
        assert self.model.classes_ is not None
        order = np.argsort(distribution)[::-1][:k]
        return [
            IntentPrediction(self.model.classes_[i], float(distribution[i]))
            for i in order
        ]
