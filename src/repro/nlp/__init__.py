"""NLP substrate: tokenization, featurization, intent classification, metrics.

The paper delegates natural-language understanding to Watson Assistant's
intent classifier.  This package provides the same contract, built from
scratch on NumPy (SciPy's sparse matrices only for training):

* :mod:`repro.nlp.tokenizer` — normalization, tokenization, light stemming,
* :mod:`repro.nlp.vectorizer` — TF-IDF over word and character n-grams,
* :mod:`repro.nlp.classifier` — multinomial logistic regression returning
  (intent, confidence), saved to and loaded from one ``.npz`` model file,
* :mod:`repro.nlp.metrics` — per-class precision/recall/F1 (Table 5),
* :mod:`repro.nlp.similarity` — edit-distance utilities used by the fuzzy
  entity recognizer,
* :mod:`repro.nlp.split` — stratified train/test splitting.
"""

from repro.nlp.classifier import IntentClassifier, SoftmaxClassifier
from repro.nlp.metrics import ClassificationReport, classification_report, f1_score
from repro.nlp.similarity import jaccard_similarity, levenshtein, similarity_ratio
from repro.nlp.split import stratified_split
from repro.nlp.tokenizer import Tokenizer, normalize, tokenize
from repro.nlp.vectorizer import TfidfVectorizer

__all__ = [
    "ClassificationReport",
    "IntentClassifier",
    "SoftmaxClassifier",
    "TfidfVectorizer",
    "Tokenizer",
    "classification_report",
    "f1_score",
    "jaccard_similarity",
    "levenshtein",
    "normalize",
    "similarity_ratio",
    "stratified_split",
    "tokenize",
]
