"""Property-based tests for the NLP substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.similarity import jaccard_similarity, levenshtein, similarity_ratio
from repro.nlp.split import stratified_split
from repro.nlp.tokenizer import stem, tokenize

_word = st.text(alphabet="abcdefgh", min_size=0, max_size=12)


@given(_word, _word)
def test_levenshtein_symmetric(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(_word, _word)
def test_levenshtein_identity(a, b):
    assert (levenshtein(a, b) == 0) == (a == b)


@given(_word, _word, _word)
@settings(max_examples=60)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(_word, _word)
def test_levenshtein_bounded_by_longest(a, b):
    assert levenshtein(a, b) <= max(len(a), len(b))


@given(_word, _word)
def test_similarity_ratio_in_unit_interval(a, b):
    assert 0.0 <= similarity_ratio(a, b) <= 1.0


#: Thresholds drawn freely, plus ones that land exactly on a ratio
#: ``1 - d / n``, where the bounded limit must keep ``d`` itself.
_threshold = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.84, 0.8, 0.5]),
    st.builds(
        lambda n, d: 1.0 - min(d, n) / n,
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=12),
    ),
)


@given(_word, _word, _threshold)
@settings(max_examples=300)
def test_bounded_similarity_is_exact_at_or_above_threshold(a, b, threshold):
    exact = similarity_ratio(a, b)
    bounded = similarity_ratio(a, b, threshold)
    if exact >= threshold or bounded >= threshold:
        assert bounded == exact
    else:
        assert bounded < threshold


@given(_word, _word, st.integers(min_value=0, max_value=12))
def test_levenshtein_limit_is_exact_within_it(a, b, limit):
    exact = levenshtein(a, b)
    bounded = levenshtein(a, b, limit)
    if exact <= limit:
        assert bounded == exact
    else:
        assert bounded > limit


@given(st.sets(_word), st.sets(_word))
def test_jaccard_in_unit_interval(a, b):
    assert 0.0 <= jaccard_similarity(a, b) <= 1.0


@given(st.text(max_size=60))
def test_tokenize_produces_lowercase_tokens(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert token  # never empty


@given(st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=15))
def test_stem_never_longer_and_never_too_short(word):
    stemmed = stem(word)
    assert len(stemmed) <= len(word)
    if len(word) > 4:
        assert len(stemmed) >= 4


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(1, 20),
        min_size=1,
    ),
    st.floats(0.1, 0.9),
    st.integers(0, 100),
)
@settings(max_examples=60)
def test_stratified_split_is_partition(counts, fraction, seed):
    examples, labels = [], []
    for label, n in counts.items():
        for i in range(n):
            examples.append(f"{label}{i}")
            labels.append(label)
    train_x, train_y, test_x, test_y = stratified_split(
        examples, labels, test_fraction=fraction, seed=seed
    )
    assert sorted(train_x + test_x) == sorted(examples)
    assert len(train_x) == len(train_y)
    assert len(test_x) == len(test_y)
    # Every label stays represented in training.
    assert set(train_y) == set(labels)
