"""Text normalization, tokenization and light stemming."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")

#: Small English stopword list.  Deliberately conservative: words such as
#: "what", "which" or "for" carry intent signal in short queries and are
#: therefore *not* stopwords here.
DEFAULT_STOPWORDS = frozenset(
    {
        "a", "an", "the", "is", "are", "was", "were", "be", "been",
        "am", "do", "does", "did", "to", "of", "in", "on", "at",
        "and", "or", "it", "its", "this", "that", "these", "those",
        "i", "me", "my", "we", "our", "you", "your", "please",
    }
)

_SUFFIXES = (
    ("ations", "ation"),
    ("ingly", ""),
    ("edly", ""),
    ("ies", "y"),
    ("ing", ""),
    ("ed", ""),
    ("es", ""),
    ("s", ""),
)


def normalize(text: str) -> str:
    """Lowercase and collapse whitespace; strip surrounding punctuation."""
    return re.sub(r"\s+", " ", text.lower()).strip()


def stem(token: str) -> str:
    """Very light suffix-stripping stemmer.

    Not a full Porter stemmer — it only needs to conflate inflectional
    variants in short queries ("treats"/"treat", "precautions"/
    "precaution") without mangling drug names, so it never shortens a
    token below four characters.
    """
    if len(token) <= 4:
        return token
    for suffix, replacement in _SUFFIXES:
        if token.endswith(suffix):
            candidate = token[: len(token) - len(suffix)] + replacement
            if len(candidate) >= 4:
                return candidate
    return token


def tokenize(text: str) -> list[str]:
    """Tokenize normalized ``text`` into lowercase word tokens."""
    return _TOKEN_RE.findall(normalize(text))


@dataclass
class Tokenizer:
    """Configurable tokenizer used by the vectorizer and recognizer.

    Parameters
    ----------
    stopwords:
        Tokens removed after tokenization.  Defaults to a conservative
        English list (see :data:`DEFAULT_STOPWORDS`).
    use_stemming:
        When True, each surviving token is passed through :func:`stem`.
    """

    stopwords: frozenset[str] = field(default=DEFAULT_STOPWORDS)
    use_stemming: bool = True

    def __call__(self, text: str) -> list[str]:
        tokens = [t for t in tokenize(text) if t not in self.stopwords]
        if self.use_stemming:
            tokens = [stem(t) for t in tokens]
        return tokens

    def ngrams(self, text: str, n: int) -> list[str]:
        """Word n-grams over the tokenized text (joined with spaces)."""
        return word_ngrams(self(text), n)


def word_ngrams(tokens: list[str], n: int) -> list[str]:
    """Word n-grams over already-tokenized text (joined with spaces)."""
    if n <= 1:
        return tokens
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
