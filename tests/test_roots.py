"""Primitive roots, k-th roots, and centralizers against brute-force oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loctower.roots import (
    centralizer_generator,
    commutes,
    kth_root,
    primitive_root,
)
from loctower.words import (
    IDENTITY,
    IdentityWordError,
    invert,
    multiply,
    power,
    word,
)

from conftest import (
    iter_reduced_tuples,
    nonempty_words_strategy,
    oracle_primitive_root,
    words_strategy,
)


class TestPrimitiveRoot:
    def test_examples(self):
        dec = primitive_root(word(1, 2, 1, 2))
        assert dec.root == word(1, 2) and dec.exponent == 2
        dec = primitive_root(word(1))
        assert dec.root == word(1) and dec.exponent == 1
        # conjugated power: x3 (x1 x2^-1)^3 x3^-1
        w = power(word(3, 1, -2, -3), 3)
        dec = primitive_root(w)
        assert dec.root == word(3, 1, -2, -3) and dec.exponent == 3

    def test_identity_rejected(self):
        with pytest.raises(IdentityWordError):
            primitive_root(IDENTITY)

    @pytest.mark.parametrize("k", [12, 30, 64, 97, 3072])
    @pytest.mark.parametrize("conj", [IDENTITY, word(3, -2), word(2, 2)])
    def test_known_powers(self, k, conj):
        # the core of v opens with (x1 x2)^2, a near-period that a period
        # test comparing too few letters would accept
        core = word(1, 2, 1, 2, 1, -3)
        v = multiply(multiply(conj, core), invert(conj))
        assert len(v) == len(core) + 2 * len(conj)
        dec = primitive_root(power(v, k))
        assert (dec.root, dec.exponent) == (v, k)
        dec = primitive_root(power(v, -k))
        assert (dec.root, dec.exponent) == (invert(v), k)

    @given(nonempty_words_strategy(rank=2, max_len=8))
    def test_matches_oracle(self, w):
        dec = primitive_root(w)
        root, exponent = oracle_primitive_root(w.letters)
        assert (dec.root.letters, dec.exponent) == (root, exponent)

    def test_matches_oracle_exhaustive_rank2(self):
        for letters in iter_reduced_tuples(6, 2):
            w = word(*letters)
            dec = primitive_root(w)
            root, exponent = oracle_primitive_root(letters)
            assert (dec.root.letters, dec.exponent) == (root, exponent), w

    @given(nonempty_words_strategy())
    def test_decomposition_and_primitivity(self, w):
        dec = primitive_root(w)
        assert power(dec.root, dec.exponent) == w
        assert primitive_root(dec.root).exponent == 1

    @given(nonempty_words_strategy(max_len=6), st.integers(1, 5))
    def test_exponent_multiplies(self, w, k):
        dec = primitive_root(w)
        lifted = primitive_root(power(w, k))
        assert lifted.root == dec.root
        assert lifted.exponent == k * dec.exponent


class TestKthRoot:
    def test_examples(self):
        assert kth_root(word(1, 2, 1, 2), 2) == word(1, 2)
        assert kth_root(word(1, 2, 1, 2), 4) is None
        for p in (2, 3, 5, 7):
            assert kth_root(word(1), p) is None
        assert kth_root(IDENTITY, 3) == IDENTITY
        assert kth_root(word(1, 1), -2) == word(-1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            kth_root(word(1), 0)

    @given(nonempty_words_strategy(max_len=6), st.integers(2, 6))
    def test_recovers_constructed_powers(self, v, k):
        w = power(v, k)
        root = kth_root(w, k)
        assert root is not None and power(root, k) == w

    @given(nonempty_words_strategy(max_len=8), st.integers(2, 6))
    def test_soundness_and_uniqueness(self, w, k):
        root = kth_root(w, k)
        if root is None:
            # no v of plausible length satisfies v^k == w
            assert primitive_root(w).exponent % k != 0
        else:
            assert power(root, k) == w
            # uniqueness: roots of the same element coincide
            assert kth_root(power(root, k), k) == root

    def test_negative_exponent_inverts(self):
        w = power(word(1, 2), 3)
        assert kth_root(w, -3) == invert(word(1, 2))


class TestCentralizer:
    def test_examples(self):
        assert centralizer_generator(word(1, 2, 1, 2)) == word(1, 2)
        assert centralizer_generator(word(1)) == word(1)

    def test_identity_rejected(self):
        with pytest.raises(IdentityWordError):
            centralizer_generator(IDENTITY)

    @given(nonempty_words_strategy(max_len=8), st.integers(-4, 4))
    def test_powers_of_generator_commute(self, w, k):
        c = centralizer_generator(w)
        assert commutes(w, power(c, k))

    @given(nonempty_words_strategy(rank=2, max_len=6), nonempty_words_strategy(rank=2, max_len=6))
    @settings(max_examples=200)
    def test_commuting_iff_common_root(self, a, b):
        same_root = centralizer_generator(a) in (
            centralizer_generator(b),
            invert(centralizer_generator(b)),
        )
        assert commutes(a, b) == same_root

    def test_noncommuting_example(self):
        assert not commutes(word(1), word(2))
        assert commutes(word(1, 2), word(1, 2, 1, 2))
