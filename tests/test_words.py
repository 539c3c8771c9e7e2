"""Word arithmetic: oracle comparisons, group axioms, parser round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loctower.words import (
    IDENTITY,
    Word,
    WordSyntaxError,
    commutator,
    cyclic_reduce,
    format_word,
    invert,
    is_cyclically_reduced,
    multiply,
    parse_word,
    power,
    reduce,
    substitute,
    support,
    word,
)

from conftest import (
    letter_strategy,
    naive_reduce,
    oracle_cyclic_reduce,
    oracle_format_word,
    oracle_power,
    words_strategy,
)

letters_lists = st.lists(letter_strategy(4), max_size=16)


class TestReduce:
    def test_examples(self):
        assert reduce([1, -1]) == IDENTITY
        assert reduce([1, 2, -2, -1, 3]).letters == (3,)
        assert reduce([1, 2, 3]).letters == (1, 2, 3)
        assert reduce([2, -3, 3, -2, 1, 1]).letters == (1, 1)

    @given(letters_lists)
    def test_matches_naive_oracle(self, raw):
        assert reduce(raw).letters == naive_reduce(raw)

    @given(letters_lists)
    def test_idempotent(self, raw):
        w = reduce(raw)
        assert reduce(w.letters) == w

    def test_constructor_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Word((1, -1))
        with pytest.raises(ValueError):
            Word((1, 0))


class TestGroupOperations:
    def test_multiply_examples(self):
        assert multiply(word(1, 2), word(-2, 3)).letters == (1, 3)
        assert multiply(word(1), invert(word(1))) == IDENTITY

    @given(words_strategy(), words_strategy(), words_strategy())
    def test_associative(self, a, b, c):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @given(words_strategy())
    def test_identity_and_inverse(self, w):
        assert multiply(w, IDENTITY) == w
        assert multiply(IDENTITY, w) == w
        assert multiply(w, invert(w)) == IDENTITY
        assert invert(invert(w)) == w

    @given(st.lists(words_strategy(), max_size=6))
    def test_product_equals_reduced_concatenation(self, parts):
        prod = IDENTITY
        flat = []
        for p in parts:
            prod = multiply(prod, p)
            flat.extend(p.letters)
        assert prod == reduce(flat)

    def test_commutator_example(self):
        assert commutator(word(1), word(2)).letters == (1, 2, -1, -2)

    @given(words_strategy(max_len=8), words_strategy(max_len=8))
    def test_commutator_definition(self, a, b):
        expected = multiply(multiply(a, b), multiply(invert(a), invert(b)))
        assert commutator(a, b) == expected


class TestPower:
    def test_examples(self):
        assert power(word(1, 2), 3).letters == (1, 2) * 3
        assert power(word(1), -2).letters == (-1, -1)
        assert power(word(1, 2, 3), 0) == IDENTITY
        # conjugate: (x1 x2 x1^-1)^3 = x1 x2^3 x1^-1
        assert power(word(1, 2, -1), 3).letters == (1, 2, 2, 2, -1)

    @given(words_strategy(max_len=8), st.integers(-5, 5))
    def test_matches_repeated_multiplication(self, w, k):
        expected = IDENTITY
        step = w if k >= 0 else invert(w)
        for _ in range(abs(k)):
            expected = multiply(expected, step)
        assert power(w, k) == expected

    @given(words_strategy(max_len=8).filter(bool), st.integers(1, 5))
    def test_length_law(self, w, k):
        _, core = cyclic_reduce(w)
        assert len(power(w, k)) == k * len(core) + (len(w) - len(core))

    @given(words_strategy(max_len=6), words_strategy(max_len=6), st.integers(-7, 7))
    def test_matches_oracle(self, conj, core, k):
        w = multiply(multiply(conj, core), invert(conj))
        assert power(w, k) == oracle_power(w, k)

    @given(words_strategy(max_len=8), st.integers(1, 5))
    def test_support_preserved(self, w, k):
        assert support(power(w, k)) == support(w)
        assert support(power(w, -k)) == support(w)


class TestCyclicReduce:
    def test_examples(self):
        conj, core = cyclic_reduce(word(1, 2, 3, -2, -1))
        assert conj.letters == (1, 2) and core.letters == (3,)
        conj, core = cyclic_reduce(word(1, 2))
        assert conj == IDENTITY and core.letters == (1, 2)
        assert cyclic_reduce(IDENTITY) == (IDENTITY, IDENTITY)

    @given(words_strategy())
    def test_matches_peeling_oracle(self, w):
        conj, core = cyclic_reduce(w)
        oc, ok = oracle_cyclic_reduce(w.letters)
        assert (conj.letters, core.letters) == (oc, ok)

    @given(words_strategy())
    def test_decomposition(self, w):
        conj, core = cyclic_reduce(w)
        assert multiply(multiply(conj, core), invert(conj)) == w
        assert is_cyclically_reduced(core)


class TestSubstitute:
    def test_example(self):
        images = [word(2, 1), word(-1)]
        assert substitute(word(1, 2), images).letters == (2,)

    @given(words_strategy(rank=2, max_len=8), words_strategy(max_len=4), words_strategy(max_len=4))
    def test_homomorphism(self, w, img1, img2):
        images = [img1, img2]
        assert substitute(invert(w), images) == invert(substitute(w, images))


class TestTextSyntax:
    def test_parse_examples(self):
        assert parse_word("x1*x2^-1").letters == (1, -2)
        assert parse_word("x1 x2").letters == (1, 2)
        assert parse_word("(x1*x2)^2").letters == (1, 2, 1, 2)
        assert parse_word("(x1*x2*x1^-1)^3").letters == (1, 2, 2, 2, -1)
        assert parse_word("1") == IDENTITY
        assert parse_word("") == IDENTITY
        assert parse_word("x2^-1*x2") == IDENTITY
        assert parse_word("x12^3").letters == (12, 12, 12)

    def test_format_examples(self):
        assert format_word(word(1, -2, -2)) == "x1*x2^-2"
        assert format_word(IDENTITY) == "1"
        assert format_word(word(3, 3, 3)) == "x3^3"
        assert format_word(word(2, 1), symbol="y") == "y2*y1"

    @given(
        st.lists(st.tuples(letter_strategy(rank=3), st.integers(1, 12)), max_size=10),
        st.sampled_from(["x", "y"]),
    )
    def test_format_matches_oracle(self, runs, symbol):
        w = reduce(l for l, n in runs for _ in range(n))
        assert format_word(w, symbol=symbol) == oracle_format_word(w, symbol=symbol)

    @given(words_strategy(rank=12, max_len=20))
    def test_round_trip(self, w):
        assert parse_word(format_word(w)) == w

    @given(st.lists(st.tuples(letter_strategy(rank=3), st.integers(1, 40)), max_size=8))
    def test_round_trip_long_runs(self, runs):
        w = reduce(l for l, n in runs for _ in range(n))
        assert parse_word(format_word(w)) == w

    @pytest.mark.parametrize(
        "text",
        ["x0", "x", "y1", "x1^", "(x1", "x1)", "x1^x2", "x-1", "2"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(WordSyntaxError):
            parse_word(text)

    def test_error_column_is_reported(self):
        with pytest.raises(WordSyntaxError) as info:
            parse_word("x1*x*x2")
        assert info.value.column == 5
