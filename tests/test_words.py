"""Word arithmetic: oracle comparisons, group axioms, parser round trips."""

import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loctower.tower import TowerElement, promote
from loctower.words import (
    IDENTITY,
    MAX_INTEGER_DIGITS,
    LengthLimitError,
    Word,
    WordSyntaxError,
    _cancellation,
    commutator,
    cyclic_reduce,
    format_word,
    invert,
    max_index,
    multiply,
    parse_word,
    power,
    reduce,
    substitute,
    support,
    validate_rank,
    word,
)

from conftest import (
    is_cyclically_reduced,
    letter_strategy,
    naive_reduce,
    oracle_cyclic_reduce,
    oracle_format_word,
    oracle_power,
    reference_parse_word,
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

    @pytest.mark.parametrize("letter", [True, False, type("Letter", (int,), {})(1)])
    def test_constructor_rejects_letters_that_are_not_int(self, letter):
        """``True`` would print as ``xTrue``, so ``format_word`` and
        ``parse_word`` would no longer round-trip."""
        with pytest.raises(ValueError, match="invalid letter"):
            Word((letter,))


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

    @settings(max_examples=300)
    @given(words_strategy(4, 24), words_strategy(4, 12), st.data())
    def test_join_cancellation_at_every_cut(self, a, tail, data):
        """b starts with the inverse of a's suffix from any cut 0..|a|, so
        anything from no letter to all of a (tail empty) cancels."""
        cut = data.draw(st.integers(0, len(a)))
        b = multiply(invert(Word(a.letters[cut:])), tail)
        expected = reduce(a.letters + b.letters)
        assert _cancellation(a.letters, b.letters) == (len(a) + len(b) - len(expected)) // 2
        assert multiply(a, b) == expected

    def test_long_full_cancellation(self):
        x = promote(TowerElement(0, word(1)), 7).word
        assert len(x) == 16_384
        assert _cancellation(x.letters, invert(x).letters) == 16_384
        assert multiply(x, invert(x)) == IDENTITY
        for k in (1, 1000, 8191, 16_383):
            assert multiply(x, invert(Word(x.letters[-k:]))) == Word(x.letters[:-k])

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

    def test_more_letters_than_an_index_holds_is_refused(self):
        # refused before the tuple is built, so no OverflowError or MemoryError
        for w, k in ((word(1), 10**30), (word(1, 2), -(sys.maxsize // 2 + 1)), (word(1, 2, -1), 10**19)):
            with pytest.raises(LengthLimitError, match="sys.maxsize"):
                power(w, k)

    @given(words_strategy(max_len=8), st.integers(1, 5))
    def test_support_preserved(self, w, k):
        assert support(power(w, k)) == support(w)
        assert support(power(w, -k)) == support(w)


class TestRank:
    def test_index_set_and_rank_messages(self):
        w = word(1, -3, -3, -2)
        assert support(w) == {1, 2, 3} and max_index(w) == 3 and max_index(IDENTITY) == 0
        validate_rank(w, 3)
        validate_rank(IDENTITY, 1)
        with pytest.raises(ValueError) as info:
            validate_rank(w, 2)
        assert str(info.value) == "word x1*x3^-2*x2^-1 uses generators beyond rank 2"
        for n in (0, -1):
            with pytest.raises(ValueError) as info:
                validate_rank(IDENTITY, n)
            assert str(info.value) == "rank must be positive"


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
        assert str(Word((1, -2))) == "x1*x2^-1"

    @given(
        st.lists(st.tuples(letter_strategy(rank=3), st.integers(1, 12)), max_size=10),
        st.sampled_from(["x", "y"]),
    )
    def test_format_matches_oracle(self, runs, symbol):
        w = reduce(l for l, n in runs for _ in range(n))
        assert format_word(w, symbol=symbol) == oracle_format_word(w, symbol=symbol)

    @settings(max_examples=30)
    @given(st.integers(0, 2**32), st.integers(0, 5), st.sampled_from(["x", "y"]))
    def test_format_long_words_matches_oracle(self, seed, trailing, symbol):
        """Long words with no repeated letter take the join-at-once path;
        one trailing run takes the run-rewriting path."""
        rng = random.Random(seed)
        letters = [rng.randint(1, 40)]
        while len(letters) < 4000:
            l = rng.choice((-1, 1)) * rng.randint(1, 40)
            if l != letters[-1] and l != -letters[-1]:
                letters.append(l)
        no_repeats = Word(tuple(letters))
        with_run = Word(no_repeats.letters + no_repeats.letters[-1:] * trailing)
        for u in (no_repeats, with_run):
            assert format_word(u, symbol=symbol) == oracle_format_word(u, symbol=symbol)
            assert max_index(u) == max(abs(l) for l in u.letters)
            assert support(u) == frozenset(abs(l) for l in u.letters)

    @pytest.mark.parametrize(
        "letters,text",
        [
            ((1, 1, 2), "x1^2*x2"),  # a run at the first position
            ((2, -1, -1), "x2*x1^-2"),  # a run at the last position
            ((-3, -3, -3), "x3^-3"),  # the word is one run
            ((1, 1, 2, 2, 2, -1), "x1^2*x2^3*x1^-1"),  # two adjacent runs
            ((5,), "x5"),
            ((-5,), "x5^-1"),
            ((4, -7, 4, 7), "x4*x7^-1*x4*x7"),  # no run
            ((1,) * 1_000_000, "x1^1000000"),
            ((-3,) * 250_000, "x3^-250000"),
            ((2,) * 4 + (1, -3) + (-1,) * 5, "x2^4*x1*x3^-1*x1^-5"),  # runs at both ends
            ((1, 1, 2, -1, -1, -1, 2, 1, 1, 1, 1), "x1^2*x2*x1^-3*x2*x1^4"),  # x1, x1^-1 in turn
            ((3,) * 5 + (-2,) * 5 + (3,) * 5 + (-2,) * 5, "x3^5*x2^-5*x3^5*x2^-5"),
            ((12,), "x12"),
        ],
    )
    def test_runs_at_every_position(self, letters, text):
        w = Word(letters)
        start = time.perf_counter()
        assert format_word(w) == text
        assert time.perf_counter() - start < 1.0  # x1^1000000 included
        assert oracle_format_word(w) == text
        assert parse_word(text) == w
        assert format_word(w, symbol="y") == oracle_format_word(w, "y") == text.replace("x", "y")

    @pytest.mark.parametrize("symbol", ["x", "y"])
    def test_promoted_words_without_and_with_a_run(self, symbol):
        """A 32,768-letter promoted word has no letter equal to its
        successor; a run spliced in at the start, the middle or the end
        turns it into a word with one run."""
        x = promote(TowerElement(1, word(2, -3)), 8).word.letters
        assert len(x) == 32_768 and not any(a == b for a, b in zip(x, x[1:]))
        mid = len(x) // 2
        for letters in (x, x[:1] + x, x[:mid] + x[mid - 1 : mid] * 3 + x[mid:], x + x[-1:]):
            w = Word(letters)
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

    def test_overlong_integers_are_refused_before_conversion(self):
        ones = "1" * (MAX_INTEGER_DIGITS + 1)
        for text, column in ((f"x{ones}", 2), (f"x2*x1^{ones}", 7), (f"x1^-{ones}", 4)):
            with pytest.raises(WordSyntaxError, match="MAX_INTEGER_DIGITS") as info:
                parse_word(text)
            assert info.value.column == column
        assert parse_word("x" + "1" * MAX_INTEGER_DIGITS).letters == (int("1" * MAX_INTEGER_DIGITS),)

    @pytest.mark.parametrize("text,column", [("x²", 2), ("x1^²", 4), ("x١", 2), ("x1^-٣", 5), ("1²", 2)])
    def test_only_ascii_digits(self, text, column):
        with pytest.raises(WordSyntaxError) as info:
            parse_word(text)
        assert info.value.column == column

    def test_error_column_is_reported(self):
        with pytest.raises(WordSyntaxError) as info:
            parse_word("x1*x*x2")
        assert info.value.column == 5


def parse_outcome(parse, text):
    """The parsed word, or the refusal's message and column."""
    try:
        return parse(text)
    except WordSyntaxError as exc:
        return str(exc), exc.column


def valid_texts():
    """Formatted words and ``1``, grouped with every separator and raised
    to powers, nested."""
    leaves = st.one_of(words_strategy(rank=12, max_len=6).map(format_word), st.just("1"))

    def groups(children):
        return st.builds(
            lambda parts, separator, exponent: f"({separator.join(parts)}){exponent}",
            st.lists(children, max_size=4),
            st.sampled_from(["*", " ", "\t", " * ", "**"]),
            st.sampled_from(["", "^0", "^1", "^2", "^-3", "^12", "^-0"]),
        )

    return st.recursive(leaves, groups, max_leaves=12)


# every token kind, the characters around them, and refused characters
PARSER_PIECES = ["x", "1", "0", "7", "(", ")", "^", "-", " ", "\t", "*", "\n", "+", "y", "²", "٣"]


class TestParserMatchesRecursiveReference:
    """``parse_word`` returns the reference's word, or its message and
    column, on valid texts, on valid texts with one character changed, and
    on texts of random pieces."""

    @given(valid_texts())
    def test_valid_texts(self, text):
        expected = reference_parse_word(text)
        assert parse_word(text) == expected

    @settings(max_examples=200)
    @given(valid_texts(), st.data())
    def test_one_character_changed(self, text, data):
        i = data.draw(st.integers(0, len(text)))
        piece = data.draw(st.sampled_from(PARSER_PIECES + [""]))
        cut = data.draw(st.integers(0, 1))
        changed = text[:i] + piece + text[i + cut :]
        assert parse_outcome(parse_word, changed) == parse_outcome(reference_parse_word, changed)

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(PARSER_PIECES + ["x1", "x23", "x2^-1", "^-2"]), max_size=12))
    def test_random_pieces(self, pieces):
        text = "".join(pieces)
        assert parse_outcome(parse_word, text) == parse_outcome(reference_parse_word, text)

    @pytest.mark.parametrize(
        "text",
        ["x1^2^3", "(^2)", "x1 ^2", "x1^-", ")", "(", "11", "x0", "x00", "", "()", "(x1))",
         "x1^-0", "1^5", "(x1 x2)^-2 * x2", "x1^3x2", "x12^", "x1\n", ")^2", "(x1^"],
    )
    def test_examples(self, text):
        assert parse_outcome(parse_word, text) == parse_outcome(reference_parse_word, text)

    def test_nesting_depth_is_unbounded(self):
        depth = 10_000
        assert depth > sys.getrecursionlimit()
        assert parse_word("(" * depth + "x1" + ")" * depth) == Word((1,))
        with pytest.raises(WordSyntaxError, match="expected '\\)'") as info:
            parse_word("(" * depth + "x1" + ")" * (depth - 1))
        assert info.value.column == 2 * depth + 2


class TestLengthBudget:
    """``parse_word(text, max_length)`` refuses a power before building it
    and a running product once it exceeds the budget; within the budget it
    returns what the unbudgeted parse returns."""

    @settings(max_examples=200)
    @given(valid_texts(), st.integers(0, 40))
    def test_budget_only_refuses(self, text, max_length):
        full = parse_word(text)
        try:
            assert parse_word(text, max_length) == full
        except LengthLimitError:
            pass
        else:
            assert len(full) <= max_length

    @pytest.mark.parametrize(
        "text,message",
        [
            ("x1^100000000", "column 1: power of 100000000 letters (limit 10)"),
            ("x2*(x1*x2)^-50000000", "column 10: power of 100000000 letters (limit 10)"),
            ("x1^1000000000000", "column 1: power of 1000000000000 letters (limit 10)"),
            ("x1^20*x1^-20", "column 1: power of 20 letters (limit 10)"),
            ("x2*(x1*x3^5*x1^-1)^2", "column 18: power of 12 letters (limit 10)"),
            ("x1^6 x2^5", "column 6: word of 11 letters (limit 10)"),
            ("x1^6*(x2^5)", "column 11: word of 11 letters (limit 10)"),
        ],
    )
    def test_refusals_name_length_limit_and_column(self, text, message):
        with pytest.raises(LengthLimitError) as info:
            parse_word(text, 10)
        assert str(info.value) == message

    def test_within_budget(self):
        # a power's conjugator counts once: x1 x2^5 x1^-1 has 7 letters
        assert len(parse_word("(x1*x2*x1^-1)^5", 7)) == 7
        # cancellation between terms that each fit is not refused
        assert parse_word("x1^10*x1^-10", 10) == IDENTITY
        assert parse_word("1^100000000000", 0) == IDENTITY
