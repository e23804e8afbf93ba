"""TF-IDF featurization over word and character n-grams."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import NotFittedError
from repro.nlp.tokenizer import Tokenizer, normalize, word_ngrams


class Rows(NamedTuple):
    """Feature rows in CSR layout, as plain numpy arrays: scoring them
    needs no ``scipy.sparse`` (only :meth:`tocsr`, for training, does)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def tocsr(self):
        """These rows as a ``scipy.sparse.csr_matrix``."""
        from scipy import sparse

        return sparse.csr_matrix((self.data, self.indices, self.indptr),
                                 shape=self.shape)


class TfidfVectorizer:
    """TF-IDF vectorizer producing L2-normalized sparse feature rows.

    Features combine word n-grams (robust to unseen orderings) and
    character n-grams (robust to misspellings such as "presciptions"),
    mirroring what commercial intent classifiers rely on for short,
    noisy queries.

    Parameters
    ----------
    word_ngrams:
        Inclusive (min, max) range of word n-gram sizes.
    char_ngrams:
        Inclusive (min, max) range of character n-gram sizes, applied to
        the normalized text with word-boundary padding.  ``None`` disables
        character features.
    min_df:
        Minimum number of training documents a feature must appear in.
    tokenizer:
        Tokenizer used for word features.
    """

    def __init__(
        self,
        word_ngrams: tuple[int, int] = (1, 2),
        char_ngrams: tuple[int, int] | None = (3, 4),
        min_df: int = 1,
        tokenizer: Tokenizer | None = None,
    ) -> None:
        if word_ngrams[0] < 1 or word_ngrams[0] > word_ngrams[1]:
            raise ValueError(f"invalid word_ngrams range: {word_ngrams}")
        if char_ngrams is not None and (
            char_ngrams[0] < 1 or char_ngrams[0] > char_ngrams[1]
        ):
            raise ValueError(f"invalid char_ngrams range: {char_ngrams}")
        if min_df < 1:
            raise ValueError("min_df must be >= 1")
        self.word_ngrams = word_ngrams
        self.char_ngrams = char_ngrams
        self.min_df = min_df
        self.tokenizer = tokenizer or Tokenizer()
        self.vocabulary_: dict[str, int] | None = None
        self.idf_: np.ndarray | None = None
        #: ``idf_`` as plain floats, for the per-feature loop.
        self._idf_values: list[float] = []

    # -- feature extraction ---------------------------------------------------

    def _features(self, text: str) -> Counter:
        # Counter.update keeps first-seen key order, which fixes the
        # summation order of each row's norm in _vectorize.
        counts: Counter = Counter()
        tokens = self.tokenizer(text)
        lo, hi = self.word_ngrams
        for n in range(lo, hi + 1):
            counts.update(["w:" + gram for gram in word_ngrams(tokens, n)])
        if self.char_ngrams is not None:
            padded = f" {normalize(text)} "
            clo, chi = self.char_ngrams
            for n in range(clo, chi + 1):
                counts.update(
                    ["c:" + padded[i : i + n] for i in range(len(padded) - n + 1)]
                )
        return counts

    # -- fitting -------------------------------------------------------------

    def fit(self, documents: Sequence[str]) -> "TfidfVectorizer":
        """Learn the vocabulary and IDF weights from ``documents``."""
        self._fit_counts([self._features(doc) for doc in documents])
        return self

    def fit_transform(self, documents: Sequence[str]) -> Rows:
        """Fit on ``documents`` and return their feature matrix.

        Equal to ``fit(documents).transform(documents)``, extracting each
        document's n-grams once instead of twice.
        """
        all_features = [self._features(doc) for doc in documents]
        self._fit_counts(all_features)
        return self._vectorize(all_features)

    def _fit_counts(self, all_features: list[Counter]) -> None:
        doc_freq: Counter = Counter()
        for feats in all_features:
            doc_freq.update(feats.keys())
        vocabulary = {
            feature: index
            for index, feature in enumerate(
                sorted(f for f, df in doc_freq.items() if df >= self.min_df)
            )
        }
        n_docs = max(len(all_features), 1)
        idf = np.ones(len(vocabulary), dtype=np.float64)
        for feature, index in vocabulary.items():
            # Smoothed IDF, as in standard TF-IDF practice.
            idf[index] = math.log((1 + n_docs) / (1 + doc_freq[feature])) + 1.0
        self.set_vocabulary(vocabulary, idf)

    def set_vocabulary(self, vocabulary: dict[str, int], idf: np.ndarray) -> None:
        """Install a vocabulary (feature -> column) and its IDF weights."""
        self.vocabulary_ = vocabulary
        self.idf_ = idf
        self._idf_values = idf.tolist()

    def transform(self, documents: Iterable[str]) -> Rows:
        """Vectorize ``documents`` using the fitted vocabulary."""
        if self.vocabulary_ is None or self.idf_ is None:
            raise NotFittedError("TfidfVectorizer.transform called before fit")
        return self._vectorize(self._features(doc) for doc in documents)

    def _vectorize(self, all_features: Iterable[Counter]) -> Rows:
        assert self.vocabulary_ is not None and self.idf_ is not None
        vocabulary = self.vocabulary_
        # Plain floats: a numpy scalar lookup per feature costs more than
        # the arithmetic, and float64 products round the same either way.
        idf = self._idf_values
        log = math.log
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        n_seen = 0
        for feats in all_features:
            n_seen += 1
            row: dict[int, float] = {}
            norm_sq = 0.0
            for feature, count in feats.items():
                idx = vocabulary.get(feature)
                if idx is not None:
                    # Sublinear TF dampens repeated tokens in long queries
                    # (1 + log 1 is exactly 1, so a single count is idf).
                    weight = (
                        idf[idx] if count == 1 else (1.0 + log(count)) * idf[idx]
                    )
                    row[idx] = weight
                    norm_sq += weight * weight
            norm = math.sqrt(norm_sq)
            if norm > 0:
                ordered = sorted(row)
                indices.extend(ordered)
                data.extend([row[idx] / norm for idx in ordered])
            indptr.append(len(indices))
        return Rows(np.asarray(indptr), np.asarray(indices, dtype=np.int64),
                    np.asarray(data, dtype=np.float64), (n_seen, len(vocabulary)))

    def known_word_fraction(self, text: str) -> float:
        """Fraction of word tokens with a known unigram feature.

        A cheap out-of-vocabulary detector: gibberish ("apfjhd") scores
        near 0, in-domain text near 1.  Empty input counts as fully
        unknown.
        """
        if self.vocabulary_ is None:
            raise NotFittedError("vectorizer is not fitted")
        tokens = self.tokenizer(text)
        if not tokens:
            return 0.0
        known = sum(1 for t in tokens if f"w:{t}" in self.vocabulary_)
        return known / len(tokens)

    @property
    def n_features(self) -> int:
        """Size of the fitted vocabulary."""
        if self.vocabulary_ is None:
            raise NotFittedError("vectorizer is not fitted")
        return len(self.vocabulary_)
