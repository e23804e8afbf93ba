"""String similarity utilities for fuzzy entity matching.

The MDX deployment must recognize misspelled drug names ("heavy
misspellings" are called out in §7.2 as a main source of negative
interactions) and partial names (§6.1 entity disambiguation).  The
recognizer uses these distance functions for both.
"""

from __future__ import annotations


def levenshtein(a: str, b: str, limit: int | None = None) -> int:
    """Edit distance between ``a`` and ``b`` (insert/delete/substitute = 1).

    ``limit`` enables early exit: once every entry of a row exceeds it,
    ``limit + 1`` is returned, which callers treat as "too far".
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        row_min = left = j
        for i, ca in enumerate(a, start=1):
            # min(deletion, insertion, substitution), without a call
            value = previous[i] + 1
            if left + 1 < value:
                value = left + 1
            diagonal = previous[i - 1] if ca == cb else previous[i - 1] + 1
            if diagonal < value:
                value = diagonal
            current.append(value)
            if value < row_min:
                row_min = value
            left = value
        if limit is not None and row_min > limit:
            return limit + 1
        previous = current
    return previous[-1]


def similarity_ratio(a: str, b: str, threshold: float | None = None) -> float:
    """Normalized similarity in [0, 1]: 1 - distance / max_length.

    With ``threshold``, the ratio is exact whenever it reaches the
    threshold; below it, any value under the threshold may come back.
    That lets the edit distance stop at the largest distance that could
    still reach the threshold, and skip pairs whose lengths alone are
    further apart than that.
    """
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    if threshold is None:
        return 1.0 - levenshtein(a, b) / longest
    limit = _distance_limit(longest, threshold)
    if abs(len(a) - len(b)) > limit:
        return 1.0 - (limit + 1) / longest
    return 1.0 - levenshtein(a, b, limit) / longest


def _distance_limit(longest: int, threshold: float) -> int:
    """The largest ``d`` in ``[0, longest]`` with
    ``1.0 - d / longest >= threshold``, or -1 when there is none.

    Evaluated with the very expression :func:`similarity_ratio` returns,
    which falls as ``d`` grows, so a distance within the limit is
    exactly a ratio at or above the threshold.
    """
    d = min(longest, max(0, int((1.0 - threshold) * longest)))
    while d < longest and 1.0 - (d + 1) / longest >= threshold:
        d += 1
    while d >= 0 and 1.0 - d / longest < threshold:
        d -= 1
    return d


def jaccard_similarity(a: set[str], b: set[str]) -> float:
    """Jaccard similarity of two token sets (1.0 when both are empty)."""
    if not a and not b:
        return 1.0
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def best_match(
    needle: str,
    candidates: list[str],
    min_ratio: float = 0.8,
) -> tuple[str, float] | None:
    """Return the candidate most similar to ``needle`` above ``min_ratio``.

    Comparison is case-insensitive.  Returns (candidate, ratio) or None.
    """
    needle_low = needle.lower()
    best: tuple[str, float] | None = None
    for candidate in candidates:
        ratio = similarity_ratio(needle_low, candidate.lower())
        if ratio >= min_ratio and (best is None or ratio > best[1]):
            best = (candidate, ratio)
    return best
