"""Tests for the TF-IDF vectorizer."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.nlp.vectorizer import TfidfVectorizer

DOCS = [
    "show me the precautions for aspirin",
    "show me the dosage for ibuprofen",
    "what drugs treat fever",
    "tell me about adverse effects of aspirin",
]


class TestFitTransform:
    def test_shape(self):
        vec = TfidfVectorizer()
        matrix = vec.fit_transform(DOCS)
        assert matrix.shape == (len(DOCS), vec.n_features)

    def test_rows_l2_normalized(self):
        matrix = TfidfVectorizer().fit_transform(DOCS).tocsr()
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
        assert np.allclose(norms[norms > 0], 1.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            TfidfVectorizer().transform(["x"])

    def test_n_features_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            TfidfVectorizer().n_features

    def test_unseen_features_ignored(self):
        vec = TfidfVectorizer()
        vec.fit(DOCS)
        matrix = vec.transform(["completely zzz unseen qqq words"])
        # Char n-grams may partially overlap; the row must still be valid.
        assert matrix.shape[0] == 1

    def test_empty_document_is_zero_row(self):
        vec = TfidfVectorizer()
        vec.fit(DOCS)
        matrix = vec.transform([""])
        assert matrix.tocsr().nnz == 0

    def test_deterministic_vocabulary(self):
        v1 = TfidfVectorizer().fit(DOCS).vocabulary_
        v2 = TfidfVectorizer().fit(DOCS).vocabulary_
        assert v1 == v2


class TestOptions:
    def test_char_ngrams_optional(self):
        vec = TfidfVectorizer(char_ngrams=None)
        vec.fit(DOCS)
        assert all(f.startswith("w:") for f in vec.vocabulary_)

    def test_char_ngrams_present_by_default(self):
        vec = TfidfVectorizer()
        vec.fit(DOCS)
        assert any(f.startswith("c:") for f in vec.vocabulary_)

    def test_min_df_prunes_rare_features(self):
        small = TfidfVectorizer(min_df=2, char_ngrams=None)
        small.fit(DOCS)
        full = TfidfVectorizer(min_df=1, char_ngrams=None)
        full.fit(DOCS)
        assert small.n_features < full.n_features

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            TfidfVectorizer(word_ngrams=(2, 1))
        with pytest.raises(ValueError):
            TfidfVectorizer(char_ngrams=(0, 2))
        with pytest.raises(ValueError):
            TfidfVectorizer(min_df=0)

    def test_char_ngrams_survive_misspelling(self):
        """Char features give a misspelled word non-zero similarity with
        the correct spelling."""
        vec = TfidfVectorizer()
        vec.fit(["precautions for aspirin"])
        good = vec.transform(["precautions for aspirin"]).tocsr()
        typo = vec.transform(["precautions for asprin"]).tocsr()
        similarity = (good @ typo.T).toarray()[0, 0]
        assert similarity > 0.5
