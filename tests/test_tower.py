"""Commutator-embedding tower: phi and its inverse, normal forms, the
colimit group law, root transfer, and centralizer compatibility."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loctower import adjunction, tower
from loctower.adjunction import witness_nonperfect
from loctower.cli import run
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
    normalize,
    phi,
    phi_preimage,
    promote,
    root_transfer,
    validate_level_word,
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

from conftest import (
    level_index_range,
    level_letters,
    level_words,
    oracle_distinguished_word,
    oracle_expand,
    oracle_phi_preimage,
    oracle_promote,
    oracle_strip,
    random_nonempty_word,
    random_word,
    refused_at_once,
)


def random_level_word(rng, level, max_len):
    return random_word(rng, max_len, level_index_range(level))


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
        with pytest.raises(ValueError, match="^target level 0 is below current level 1$"):
            promote(TowerElement(1, word(2)), 0)

    def test_promote_length_guard(self):
        with pytest.raises(LengthLimitError):
            promote(TowerElement(0, word(1)), 4, max_length=100)
        assert len(promote(TowerElement(0, word(1)), 3, max_length=64).word) == 64
        # the identity counts as one letter, so deep promotions are refused
        # before any level is built
        start = time.perf_counter()
        with pytest.raises(LengthLimitError, match="limit 3"):
            phi(0, IDENTITY, max_length=3)
        with pytest.raises(LengthLimitError, match="limit 100"):
            promote(TowerElement(0, IDENTITY), 10**9, max_length=100)
        with pytest.raises(LengthLimitError, match="limit 100"):
            has_p_root_in_H(TowerElement(0, IDENTITY), 2, 10**9, cross_check=True, max_length=100)
        assert time.perf_counter() - start < 1.0

    def test_promotion_to_its_own_level_checks_word_and_budget(self):
        with pytest.raises(ValueError, match=r"^generator x1 is not valid at level 2 "):
            promote(TowerElement(2, word(1)), 2)
        x5 = TowerElement(0, word(1, 1, 1, 1, 1))
        with pytest.raises(LengthLimitError, match=r"level 0 to 0 would give 4\^0\*5 letters \(limit 3\)"):
            promote(x5, 0, max_length=3)
        assert promote(x5, 0, max_length=5) == x5

    def test_identity_normalizes_to_level_zero(self):
        start = time.perf_counter()
        assert normalize(3 * 10**6, IDENTITY) == TowerElement(0, IDENTITY)
        assert time.perf_counter() - start < 1.0

    def test_deep_levels_are_decided_by_bit_length(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"x1 is not valid at level 1000000000 \(it is a level-0"):
            normalize(10**9, word(1))
        with pytest.raises(ValueError, match=r"x4 is not valid at level 1 \(it is a level-2"):
            phi(1, word(2, 4))
        assert time.perf_counter() - start < 1.0
        assert normalize(10**4, word(2**10**4)) == TowerElement(10**4, word(2**10**4))

    def test_mixed_levels_name_the_first_offender_in_word_order(self):
        cases = [
            (2, word(4, 8, 2), "x8", 3),
            (2, word(4, 2, 8), "x2", 1),
            (2, word(5, -9, 7, -3), "x9", 3),
            (1, word(-3, 1, 2, 9), "x1", 0),
            (2, word(5, -9, 6), "x9", 3),
            (3, word(-1), "x1", 0),
        ]
        for n, w, name, level in cases:
            message = f"generator {name} is not valid at level {n} (it is a level-{level} generator)"
            with pytest.raises(ValueError) as info:
                validate_level_word(n, w)
            assert str(info.value) == message
        rng = random.Random(808)
        for _ in range(200):
            n = rng.randint(0, 4)
            w = random_word(rng, 12, range(1, 2 ** (n + 2)))
            bad = [abs(l) for l in w.letters if abs(l).bit_length() != n + 1]
            if not bad:
                validate_level_word(n, w)
                continue
            with pytest.raises(ValueError, match=rf"^generator x{bad[0]} is not valid at level {n} \("):
                validate_level_word(n, w)

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

    def test_budget_refuses_first(self):
        """phi(w) has 4|w| letters, the identity counting as one; the budget
        is checked before the identity and level checks."""
        message = refused_at_once(lambda: centralizer_compat(1, power(word(2), 10), max_length=10))
        assert message == "promotion from level 1 to 2 would give 4^1*10 letters (limit 10)"
        message = refused_at_once(lambda: centralizer_compat(0, IDENTITY, max_length=3))
        assert message == "promotion from level 0 to 1 would give 4^1*1 letters (limit 3)"
        big = power(word(1), 300_000)  # x1 is not a level-1 generator
        message = refused_at_once(lambda: centralizer_compat(1, big, max_length=10))
        assert message == "promotion from level 1 to 2 would give 4^1*300000 letters (limit 10)"

    @settings(max_examples=60)
    @given(st.integers(0, 3), st.data())
    def test_budget_only_refuses(self, level, data):
        """At 4|w| letters or more the answer is the unbudgeted one; one
        letter less is refused."""
        w = data.draw(level_words(level, 10).filter(bool))
        expected = centralizer_compat(level, w)
        assert centralizer_compat(level, w, max_length=4 * len(w)) == expected
        assert centralizer_compat(level, w, max_length=None) == expected
        with pytest.raises(LengthLimitError):
            centralizer_compat(level, w, max_length=4 * len(w) - 1)


class TestPerfectnessRelation:
    def test_generators_become_commutators(self):
        for level in range(4):
            for i in level_index_range(level):
                assert phi(level, Word((i,))) == commutator(
                    Word((2 * i,)), Word((2 * i + 1,))
                )


class TestOneLevelCheckPerElement:
    """An element's word is checked once, when the element is made; the
    kernels trust the elements they are given and the results they build."""

    def test_construction_checks_the_word(self):
        with pytest.raises(ValueError) as info:
            TowerElement(5, word(1))
        assert str(info.value) == "generator x1 is not valid at level 5 (it is a level-0 generator)"
        with pytest.raises(ValueError, match="^level must be nonnegative$"):
            TowerElement(-1, IDENTITY)

    @pytest.fixture
    def level_checks(self, monkeypatch):
        """Run a call and count the validate_level_word calls made in tower;
        ``count.calls`` then holds the (level, word length) of each."""
        calls = []

        def counting(n, w):
            calls.append((n, len(w)))
            validate_level_word(n, w)

        monkeypatch.setattr(tower, "validate_level_word", counting)

        def count(call):
            calls.clear()
            call()
            return len(calls)

        count.calls = calls
        return count

    def test_raw_entry_points_check_once(self, level_checks):
        top = promote(TowerElement(0, word(1)), 2).word
        calls = [
            lambda: TowerElement(2, top),
            lambda: normalize(2, top),
            lambda: normalize(0, IDENTITY),
            lambda: phi(2, top),
            lambda: phi_preimage(1, top),
            lambda: root_transfer(0, word(1, 1), 2),
            lambda: root_transfer(2, top, 2),
            lambda: centralizer_compat(2, top),
        ]
        assert [level_checks(call) for call in calls] == [1] * len(calls)

    @pytest.mark.parametrize("max_level", [2, 3, 7])
    def test_kernels_check_nothing(self, level_checks, max_level):
        a, b = TowerElement(1, word(2, 3)), TowerElement(0, word(1))
        square = TowerElement(0, word(1, 1))
        calls = [
            lambda: promote(a, max_level),
            lambda: promote(b, max_level, max_length=4**max_level),
            lambda: h_inverse(a),
            lambda: h_multiply(a, b),
            lambda: h_multiply(b, h_inverse(b)),
        ]
        for e in (a, b, square):
            for cross_check in (False, True):
                calls.append(lambda e=e, c=cross_check: has_p_root_in_H(e, 2, max_level, c))
        assert [level_checks(call) for call in calls] == [0] * len(calls)

    @pytest.mark.parametrize("k", range(6))
    def test_normalize_checks_the_stripped_word_once(self, level_checks, k):
        w = promote(TowerElement(3, word(8, 9, -10)), 3 + k).word
        assert level_checks(lambda: normalize(3 + k, w)) == 1
        assert level_checks.calls == [(3, 3)]

    def test_centralizer_check_command_checks_once(self, level_checks, capsys):
        argv = ["tower", "centralizer-check", "x4*x5^2*x7", "--level", "2"]
        assert level_checks(lambda: run(argv)) == 1
        assert level_checks.calls == [(2, 4)]
        assert "compatible=true" in capsys.readouterr().out

    def test_witness_builds_no_element(self, level_checks):
        assert level_checks(lambda: witness_nonperfect(4, 3, 2)) == 0


def near_miss_image(c: Word, level: int, levels: int) -> Word:
    """c expanded ``levels`` times, then its last letter negated: the block
    heads are those of the image, but the last block has the wrong shape,
    so the word is no image at all."""
    u = oracle_promote(TowerElement(level, c), level + levels).word.letters
    return Word(u[:-1] + (-u[-1],))


class TestOnePassKernelsMatchPerLevelOracles:
    """Promotion through one block table and stripping by reading the heads
    down, then checking once, agree with the kernels that crossed one level
    per pass (``oracle_promote``, ``oracle_strip``) on levels 0-7."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 7), st.data())
    def test_promote(self, base, data):
        target = data.draw(st.integers(base, 7))
        e = TowerElement(base, data.draw(level_words(base, 4)))
        assert promote(e, target) == oracle_promote(e, target)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_normalize(self, base, data):
        """Full strips, partial strips, near misses anywhere or inside a
        block, products with a short top, random words and the identity."""
        level = data.draw(st.integers(base, 7))
        c = data.draw(level_words(base, 5))
        image = oracle_promote(TowerElement(base, c), level).word
        letters = list(image.letters)
        inputs = [image, Word(), data.draw(level_words(level, 12))]
        inputs.append(multiply(image, data.draw(level_words(level, 8))))
        if letters:
            i = data.draw(st.integers(0, len(letters) - 1))
            replaced = letters[:]
            replaced[i] = data.draw(level_letters(level))
            inputs.append(reduce(replaced))
            # a non-head letter negated keeps every block head
            j = data.draw(st.integers(0, len(letters) - 1))
            if j % 4:
                letters[j] = -letters[j]
                inputs.append(reduce(letters))
        if c and level > base:
            mid = data.draw(st.integers(base + 1, level))
            miss = near_miss_image(c, base, mid - base)
            inputs.append(oracle_promote(TowerElement(mid, miss), level).word)
        for u in inputs:
            assert normalize(level, u) == oracle_strip(level, u), (level, u)

    @pytest.mark.parametrize("depth", range(1, 5))
    def test_heads_that_read_further_down_than_the_word_strips(self, depth):
        """Every block head reads down ``depth`` levels, but the bottom
        check fails: the near miss sits ``depth - j`` levels up, so the
        word strips exactly j levels."""
        c = word(8, 9, -10)  # three letters: the heads stop reading here
        for j in range(depth):
            miss = near_miss_image(c, 3, depth - j)
            w = oracle_promote(TowerElement(3 + depth - j, miss), 3 + depth).word
            assert normalize(3 + depth, w) == TowerElement(3 + depth - j, miss)
            assert normalize(3 + depth, w) == oracle_strip(3 + depth, w)

    def test_promoted_word_times_a_short_top(self):
        """Tops that keep len % 4 == 0 and every head decodable: the heads
        read down one level, or three (a 16-letter near miss), before the
        bottom check fails, and nothing strips."""
        image = oracle_promote(TowerElement(5, word(32, 33, -34)), 7).word
        tops = [(word(200, 201, -200, 201), 1), (word(202, 203, 204, 205), 1)]
        tops.append((near_miss_image(word(40), 5, 2), 3))
        for top, depth in tops:
            w = multiply(image, top)
            assert len(w) == len(image) + len(top)
            assert tower._decode_heads(w.letters, 7)[0] == depth
            assert normalize(7, w) == oracle_strip(7, w) == TowerElement(7, w)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_invalid_expansions_name_the_inputs_first_offender(self, level, data):
        """An exact k-fold expansion of an invalid word is refused with the
        message the input's own check gives, at the input level."""
        k = data.draw(st.integers(0, level))
        wrong = data.draw(st.sampled_from([l for l in (level - k - 1, level - k + 1) if l >= 0]))
        mixed = st.one_of(level_letters(level - k), level_letters(wrong))
        letters = reduce(data.draw(st.lists(mixed, min_size=1, max_size=6))).letters
        for _ in range(k):
            letters = oracle_expand(letters)
        w = Word(letters)
        if not w or all(abs(l).bit_length() == level + 1 for l in letters):
            return
        with pytest.raises(ValueError) as expected:
            validate_level_word(level, w)
        with pytest.raises(ValueError) as info:
            normalize(level, w)
        assert str(info.value) == str(expected.value)
        with pytest.raises(ValueError, match="^level must be nonnegative$"):
            normalize(-1, w)

    def test_invalid_expansion_example(self):
        w = Word(oracle_expand(oracle_expand((8, 4))))  # x4 is a level-2 generator
        with pytest.raises(ValueError) as info:
            normalize(5, w)
        assert str(info.value) == "generator x16 is not valid at level 5 (it is a level-4 generator)"
        with pytest.raises(ValueError, match="^level must be nonnegative$"):
            normalize(-1, IDENTITY)

    def test_relabelled_expansion_is_the_distinguished_word(self):
        for n in range(8):
            assert Word(tower._expand((1,), n, shift=1)) == oracle_distinguished_word(n)


class TestOnePass:
    """Each kernel reads a word a fixed number of times, however many
    levels it crosses."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        """Run a call and list the (levels, letters out) of each expansion
        made in tower and adjunction."""
        calls = []
        expand = tower._expand

        def counting(letters, levels=1, shift=0):
            out = expand(letters, levels, shift)
            calls.append((levels, len(out)))
            return out

        monkeypatch.setattr(tower, "_expand", counting)
        monkeypatch.setattr(adjunction, "_expand", counting)

        def record(call):
            calls.clear()
            call()
            return list(calls)

        return record

    @pytest.mark.parametrize("gap", range(1, 8))
    def test_a_promotion_expands_once(self, expansions, gap):
        e = TowerElement(1, word(2, -3, 2))
        assert expansions(lambda: promote(e, 1 + gap)) == [(gap, 3 * 4**gap)]
        assert expansions(lambda: witness_nonperfect(gap, 2, 1)) == [(gap, 4**gap)]
        assert expansions(lambda: promote(e, 1)) == []

    @pytest.mark.parametrize("k", range(1, 6))
    def test_a_full_strip_expands_once(self, expansions, k):
        w = promote(TowerElement(3, word(8, 9, -10)), 3 + k).word
        assert expansions(lambda: normalize(3 + k, w)) == [(k, len(w))]

    def test_heads_that_name_no_letter_are_not_expanded(self, expansions):
        for w in (word(-8, 9, 10, 11), word(8, 9, -8, -9, -10, 11, 10, -11)):
            assert expansions(lambda: normalize(3, w)) == []

    @pytest.mark.parametrize("depth", range(1, 6))
    def test_a_failed_bottom_check_reads_a_fixed_number_of_times(self, expansions, depth):
        """One full expansion, then one-level checks on words that shrink
        by 4 each level: under 2.5 times the word's length in all."""
        for j in range(depth):
            miss = near_miss_image(word(8, 9, -10), 3, depth - j)
            w = promote(TowerElement(3 + depth - j, miss), 3 + depth).word
            calls = expansions(lambda: normalize(3 + depth, w))
            assert calls[0] == (depth, len(w))
            assert all(levels == 1 for levels, _ in calls[1:])
            assert sum(n for _, n in calls) < 2.5 * len(w)
