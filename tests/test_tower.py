"""Commutator-embedding tower: phi and its inverse, normal forms, the
colimit group law, root transfer, and centralizer compatibility."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loctower.roots import kth_root, primitive_root
from loctower.tower import (
    NO_ROOT_PROVEN,
    ROOT_FOUND,
    LengthLimitError,
    TowerElement,
    centralizer_compat,
    h_identity,
    h_inverse,
    h_multiply,
    has_p_root_in_H,
    level_index_range,
    normalize,
    phi,
    phi_preimage,
    promote,
    root_transfer,
)
from loctower.words import (
    IDENTITY,
    Word,
    commutator,
    invert,
    multiply,
    power,
    reduce,
    support,
    word,
)

from conftest import oracle_phi_preimage, random_nonempty_word, random_word


def random_level_word(rng, level, max_len):
    return random_word(rng, max_len, level_index_range(level))


def level_letters(level):
    indices = level_index_range(level)
    return st.integers(indices.start, indices.stop - 1).flatmap(lambda i: st.sampled_from((i, -i)))


def level_words(level, max_len):
    return st.lists(level_letters(level), max_size=max_len).map(reduce)


class TestPhi:
    def test_examples(self):
        assert phi(0, word(1)) == commutator(word(2), word(3))
        assert phi(1, word(2, 3)) == multiply(
            commutator(word(4), word(5)), commutator(word(6), word(7))
        )
        assert phi(0, word(-1)) == invert(commutator(word(2), word(3)))
        assert phi(2, IDENTITY) == IDENTITY

    def test_rejects_wrong_level(self):
        with pytest.raises(ValueError):
            phi(1, word(1))
        with pytest.raises(ValueError):
            phi(0, word(2))

    def test_length_quadruples(self):
        rng = random.Random(11)
        for level in range(3):
            for _ in range(50):
                w = random_level_word(rng, level, 10)
                image = phi(level, w)
                assert len(image) == 4 * len(w)
                assert support(image) == {
                    2 * i + b for i in support(w) for b in (0, 1)
                }

    def test_homomorphism(self):
        rng = random.Random(12)
        for _ in range(100):
            a = random_level_word(rng, 1, 8)
            b = random_level_word(rng, 1, 8)
            assert phi(1, multiply(a, b)) == multiply(phi(1, a), phi(1, b))
            assert phi(1, invert(a)) == invert(phi(1, a))

    def test_length_guard(self):
        with pytest.raises(LengthLimitError):
            phi(0, word(1, 1, 1), max_length=8)


class TestPhiPreimage:
    def test_examples(self):
        assert phi_preimage(0, commutator(word(2), word(3))) == word(1)
        assert phi_preimage(0, word(2)) is None
        assert phi_preimage(0, IDENTITY) == IDENTITY
        assert phi_preimage(1, phi(1, word(2, -3, 2))) == word(2, -3, 2)

    def test_round_trip_random(self):
        rng = random.Random(13)
        for level in range(4):
            for _ in range(60):
                w = random_level_word(rng, level, 8)
                assert phi_preimage(level, phi(level, w)) == w

    def test_non_image_words(self):
        # a commutator with the wrong block shape is not in the image
        assert phi_preimage(0, commutator(word(2, 2), word(3))) is None
        assert phi_preimage(0, word(2, 3)) is None
        assert phi_preimage(1, word(4, 5, -4, -5, 6)) is None

    def test_block_aligned_near_misses(self):
        # four letters at a time, each block a wrong shape
        for letters in [
            (4, 5, -4, -7),
            (4, 5, 4, -5),
            (5, 4, -5, -5),
            (4, 7, -4, -7),
            (6, 5, -6, -5),
            (-4, -5, 4, 5),
            (-5, -4, 5, 4),
            (4, 5, -4, -5, 4, 5, -4, -7),
        ]:
            assert phi_preimage(1, word(*letters)) is None, letters

    def test_heads_that_cancel(self):
        # the heads 2, 3 read as x1 x1^-1; the blocks do not match, so this
        # is a plain non-image, not an unreduced preimage
        assert phi_preimage(0, word(2, 3, -2, 3, 3, 2, 3, 2)) is None
        assert phi_preimage(1, word(4, 5, -4, -5, 5, 4, -5, 4)) is None

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3), st.data())
    def test_matches_oracle(self, level, data):
        image = list(phi(level, data.draw(level_words(level, 10))).letters)
        near_miss = image[:]
        if image:
            # one letter replaced; reduce() cancels what the swap unreduces
            i = data.draw(st.integers(0, len(image) - 1))
            near_miss[i] = data.draw(level_letters(level + 1))
        for u in (Word(image), reduce(near_miss), data.draw(level_words(level + 1, 12))):
            assert phi_preimage(level, u) == oracle_phi_preimage(level, u), (level, u)

    def test_inverse_blocks(self):
        assert phi_preimage(1, word(5, 4, -5, -4)) == word(-2)
        assert phi_preimage(1, word(4, 5, -4, -5, 7, 6, -7, -6)) == word(2, -3)
        assert phi_preimage(0, word(3, 2, -3, -2)) == word(-1)


class TestNormalizePromote:
    def test_examples(self):
        e = normalize(1, phi(0, word(1)))
        assert e == TowerElement(0, word(1))
        e = normalize(1, word(2))
        assert e == TowerElement(1, word(2))

    def test_promote_example(self):
        e = promote(TowerElement(0, word(1)), 2)
        assert e.level == 2 and len(e.word) == 16
        assert e.word == phi(1, phi(0, word(1)))

    def test_promote_below_level_rejected(self):
        with pytest.raises(ValueError):
            promote(TowerElement(1, word(2)), 0)

    def test_promote_length_guard(self):
        with pytest.raises(LengthLimitError):
            promote(TowerElement(0, word(1)), 4, max_length=100)

    def test_normalize_after_promote_is_identity(self):
        rng = random.Random(14)
        for _ in range(50):
            level = rng.randint(0, 2)
            e = normalize(level, random_level_word(rng, level, 6))
            lifted = promote(e, e.level + rng.randint(0, 2))
            assert normalize(lifted.level, lifted.word) == e


class TestColimitGroup:
    def test_identity_and_inverse(self):
        rng = random.Random(15)
        for _ in range(40):
            level = rng.randint(0, 2)
            e = normalize(level, random_level_word(rng, level, 6))
            assert h_multiply(e, h_identity()) == e
            assert h_multiply(h_identity(), e) == e
            assert h_multiply(e, h_inverse(e)) == h_identity()

    def test_cross_level_multiplication(self):
        a = TowerElement(0, word(1))
        b = normalize(1, word(2))
        ab = h_multiply(a, b)
        # x1 at level 1 is [x2,x3]; product with x2 gives [x2,x3]*x2
        assert ab.level == 1
        assert ab.word == multiply(commutator(word(2), word(3)), word(2))

    def test_associative(self):
        rng = random.Random(16)
        for _ in range(25):
            es = [
                normalize(l, random_level_word(rng, l, 4))
                for l in (rng.randint(0, 2) for _ in range(3))
            ]
            a, b, c = es
            assert h_multiply(h_multiply(a, b), c) == h_multiply(a, h_multiply(b, c))


class TestRootTransfer:
    def test_examples(self):
        assert root_transfer(0, word(1, 1), 2) == word(1)
        for p in (2, 3, 5):
            assert root_transfer(0, word(1), p) is None
        w = word(2, 3, -2)
        assert root_transfer(1, power(w, 3), 3) == w

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            root_transfer(0, word(1), 0)

    def test_existence_coincides_with_image(self):
        from loctower.roots import kth_root

        rng = random.Random(17)
        for _ in range(150):
            level = rng.randint(0, 2)
            k = rng.randint(2, 5)
            w = random_level_word(rng, level, 6)
            if rng.random() < 0.5 and w:
                w = power(w, k)  # force positives half the time
            v = root_transfer(level, w, k)
            direct = kth_root(w, k)
            image_root = kth_root(phi(level, w), k)
            assert (v is None) == (direct is None) == (image_root is None)
            if v is not None:
                assert phi(level, v) == image_root


class TestRootCertificates:
    def test_square_has_root(self):
        e = normalize(0, word(1, 1))
        cert = has_p_root_in_H(e, 2, 3)
        assert cert.status == ROOT_FOUND
        assert cert.witness == TowerElement(0, word(1))

    def test_generator_is_rootless(self):
        e = TowerElement(0, word(1))
        for p in (2, 3, 5):
            theorem = has_p_root_in_H(e, p, 4)
            exhaustive = has_p_root_in_H(e, p, 4, cross_check=True)
            assert theorem.status == NO_ROOT_PROVEN
            assert exhaustive.status == NO_ROOT_PROVEN
            assert exhaustive.checked_levels == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_distinguished_word_rootless_at_levels_5_to_7(self, p):
        for n in range(5, 8):
            w = promote(TowerElement(0, word(1)), n).word
            assert len(w) == 4**n
            assert kth_root(w, p) is None, (p, n)
            assert primitive_root(w).exponent == 1

    def test_modes_agree_random(self):
        rng = random.Random(18)
        for _ in range(60):
            level = rng.randint(0, 2)
            p = rng.choice([2, 3])
            e = normalize(level, random_level_word(rng, level, 6))
            if rng.random() < 0.4 and e.word:
                e = normalize(e.level, power(e.word, p))
            theorem = has_p_root_in_H(e, p, e.level + 2)
            exhaustive = has_p_root_in_H(e, p, e.level + 2, cross_check=True)
            assert theorem.status == exhaustive.status
            if theorem.status == ROOT_FOUND:
                assert theorem.witness == exhaustive.witness

    def test_invalid_arguments(self):
        e = TowerElement(1, word(2))
        with pytest.raises(ValueError):
            has_p_root_in_H(e, 1, 3)
        with pytest.raises(ValueError):
            has_p_root_in_H(e, 2, 0)

    def test_composite_p_rejected(self):
        e = TowerElement(0, word(1, 1, 1, 1))
        for p in (0, 4, 6, 9, 561):
            with pytest.raises(ValueError, match="prime"):
                has_p_root_in_H(e, p, 2)
            with pytest.raises(ValueError, match="prime"):
                has_p_root_in_H(e, p, 2, cross_check=True)


class TestCentralizerCompat:
    def test_examples(self):
        assert centralizer_compat(0, word(1))
        assert centralizer_compat(1, word(2, 3, 2, 3))

    def test_random_sample(self):
        rng = random.Random(19)
        for _ in range(150):
            level = rng.randint(0, 2)
            w = random_nonempty_word(rng, 8, level_index_range(level))
            assert centralizer_compat(level, w)

    def test_identity_rejected(self):
        from loctower.words import IdentityWordError

        with pytest.raises(IdentityWordError):
            centralizer_compat(0, IDENTITY)


class TestPerfectnessRelation:
    def test_generators_become_commutators(self):
        for level in range(4):
            for i in level_index_range(level):
                assert phi(level, Word((i,))) == commutator(
                    Word((2 * i,)), Word((2 * i + 1,))
                )
