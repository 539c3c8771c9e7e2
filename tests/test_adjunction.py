"""Prüfer arithmetic, amalgam normal forms, the quotient map, and the
non-perfectness witness pipeline."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loctower.adjunction import (
    AdjunctionGroup,
    AmalgamElement,
    PruferElement,
    TPower,
    _coset_rep,
    _power_of,
    adjoin_root,
    amalgam_identity,
    amalgam_invert,
    amalgam_multiply,
    amalgam_normalize,
    parse_prufer,
    prufer,
    prufer_add,
    prufer_quotient_map,
    prufer_zero,
    witness_nonperfect,
)
from loctower.roots import MILLER_RABIN_BOUND, is_prime, primitive_root
from loctower.words import (
    IDENTITY,
    IdentityWordError,
    Word,
    invert,
    multiply,
    power,
    reduce,
    word,
)

from conftest import (
    letter_strategy,
    nonempty_words_strategy,
    oracle_coset_rep,
    oracle_power_of,
    random_word,
    words_strategy,
)


class TestPrimality:
    def test_cases(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
        sieve = [False, False] + [True] * 9999
        for i in range(2, 101):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
        assert [is_prime(n) for n in range(10001)] == sieve

    def test_large_and_strong_pseudoprimes(self):
        start = time.perf_counter()
        assert is_prime(2**61 - 1)
        assert time.perf_counter() - start < 0.1
        # 2047 and 3215031751 are strong pseudoprimes to the first 1 and 4
        # prime bases; 561 is a Carmichael number
        for n in (2047, 3215031751, 561, (2**31 - 1) * 1000003):
            assert not is_prime(n)

    def test_refuses_beyond_bound(self):
        with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
            is_prime(2**89 - 1)
        with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
            PruferElement(2**89 - 1, 1, 1)


class TestCosetRep:
    @settings(max_examples=200, deadline=None)
    @given(
        nonempty_words_strategy(rank=3, max_len=5),
        words_strategy(rank=3, max_len=4),
        words_strategy(rank=3, max_len=10),
        st.integers(-12, 12),
    )
    def test_matches_window_oracle(self, core, conj, head, k):
        x = multiply(multiply(conj, core), invert(conj))
        w = multiply(head, power(x, k))
        assert _coset_rep(x, w) == oracle_coset_rep(x, w)


class TestPowerOf:
    @settings(max_examples=300, deadline=None)
    @given(
        nonempty_words_strategy(rank=3, max_len=5),
        words_strategy(rank=3, max_len=4),
        st.integers(-6, 6),
        st.data(),
    )
    def test_matches_root_oracle(self, core, conj, e, data):
        x = primitive_root(multiply(multiply(conj, core), invert(conj))).root
        a = power(x, e)
        assert _power_of(x, a) == oracle_power_of(x, a) == e
        # non-powers of exactly the length of a power of x
        same_length = data.draw(st.lists(letter_strategy(3), min_size=len(a), max_size=len(a)))
        for b in (reduce(same_length), multiply(a, data.draw(words_strategy(rank=3, max_len=6)))):
            assert _power_of(x, b) == oracle_power_of(x, b), (x, b)

    def test_same_length_non_powers(self):
        x = word(3, 1, 2, -3)  # conjugated, |c| = 1, |u| = 2
        assert _power_of(x, word(3, 1, 2, 1, 2, -3)) == 2
        assert _power_of(x, word(3, -2, -1, -2, -1, -3)) == -2
        for a in (word(3, 1, 2, 2, 1, -3), word(3, 2, 1, 2, 1, -3), word(2, 1, 2, 1, 2, 1)):
            assert _power_of(x, a) is None
        assert _power_of(x, word(3, 1, 2, 1, -3)) is None  # remainder
        assert _power_of(x, word(1, 2)) is None  # e = 0
        assert _power_of(x, word(1)) is None  # shorter than the conjugator


class TestPrufer:
    def test_canonical_form(self):
        assert prufer(2, 1, 2) == PruferElement(2, 1, 2)
        assert prufer(2, 2, 2) == PruferElement(2, 1, 1)  # 2/4 = 1/2
        assert prufer(2, 4, 2) == prufer_zero(2)
        assert prufer(3, 10, 2) == PruferElement(3, 1, 2)  # 10/9 = 1/9 mod 1
        assert prufer(5, -1, 1) == PruferElement(5, 4, 1)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            PruferElement(4, 1, 1)  # not prime
        with pytest.raises(ValueError):
            PruferElement(2, 2, 2)  # numerator not a unit
        with pytest.raises(ValueError):
            PruferElement(2, 0, 1)  # zero must have exponent 0

    def test_addition(self):
        half = prufer(2, 1, 1)
        quarter = prufer(2, 1, 2)
        assert prufer_add(half, half) == prufer_zero(2)
        assert prufer_add(quarter, quarter) == half
        assert prufer_add(quarter, half) == prufer(2, 3, 2)

    def test_mismatched_primes(self):
        with pytest.raises(ValueError):
            prufer_add(prufer(2, 1, 1), prufer(3, 1, 1))

    def test_group_axioms(self):
        rng = random.Random(41)
        elems = [prufer(3, rng.randrange(27), 3) for _ in range(30)]
        zero = prufer_zero(3)
        for a in elems:
            assert prufer_add(a, zero) == a
            assert prufer_add(a, prufer(3, -a.numerator, a.exponent)) == zero
        for a, b in zip(elems, elems[1:]):
            assert prufer_add(a, b) == prufer_add(b, a)

    def test_order_and_scale(self):
        a = prufer(5, 2, 3)
        assert a.order == 125
        assert prufer(5, 125 * a.numerator, a.exponent) == prufer_zero(5)
        assert prufer(5, 25 * a.numerator, a.exponent) != prufer_zero(5)

    def test_parse_and_str(self):
        assert parse_prufer(2, "1/4") == prufer(2, 1, 2)
        assert parse_prufer(2, "0") == prufer_zero(2)
        assert parse_prufer(3, "5/9") == prufer(3, 5, 2)
        assert str(prufer(2, 3, 2)) == "3/4"
        assert str(prufer_zero(7)) == "0"
        with pytest.raises(ValueError):
            parse_prufer(2, "1/6")
        with pytest.raises(ValueError):
            parse_prufer(2, "x")


def group_t2_x1():
    """<x1, x2, t | t^2 = x1>."""
    return AdjunctionGroup(2, word(1), 2, 1)


def free_image(expression):
    """Embed an expression of group_t2_x1 into F(x2, t) via x1 -> t^2.

    Faithful because x1 is a basis element: the adjunction is the free
    group on {x2, t} with x1 renamed to t^2.
    """
    out = []
    for item in expression:
        if isinstance(item, TPower):
            out.extend([3] * item.exponent if item.exponent >= 0 else [-3] * -item.exponent)
        else:
            for l in item.letters:
                if abs(l) == 1:
                    out.extend((3, 3) if l > 0 else (-3, -3))
                else:
                    out.append(l)
    return reduce(out)


def random_expression(rng, group, max_syllables=6):
    items = []
    for _ in range(rng.randint(0, max_syllables)):
        if rng.random() < 0.5:
            items.append(TPower(rng.randint(-2 * group.relation_exponent, 2 * group.relation_exponent)))
        else:
            items.append(random_word(rng, 4, range(1, group.base_rank + 1)))
    return items


class TestAdjunctionGroup:
    def test_validation(self):
        with pytest.raises(IdentityWordError):
            AdjunctionGroup(2, IDENTITY, 2, 1)
        with pytest.raises(ValueError):
            AdjunctionGroup(2, word(1), 4, 1)  # not prime
        with pytest.raises(ValueError):
            AdjunctionGroup(2, word(1), 2, 0)  # depth < 1
        with pytest.raises(ValueError):
            AdjunctionGroup(2, word(1, 1), 2, 1)  # not primitive

    def test_adjoin_root_rebases_proper_powers(self):
        with pytest.warns(UserWarning):
            g = adjoin_root(2, word(1, 1), 2, 1)
        assert g.root_of == word(1)

    def test_relation_exponent(self):
        assert AdjunctionGroup(1, word(1), 3, 2).relation_exponent == 9


class TestNormalForm:
    def test_defining_relation_collapses(self):
        g = group_t2_x1()
        e = amalgam_normalize(g, (TPower(1), TPower(1), invert(word(1))))
        assert e.is_identity()

    def test_t_power_absorption(self):
        g = group_t2_x1()
        e = amalgam_normalize(g, (TPower(2),))
        assert e.syllables == () and e.tail == 1  # t^2 = x1
        e = amalgam_normalize(g, (TPower(3),))
        assert e.syllables == (TPower(1),) and e.tail == 1

    def test_base_words_merge_around_trivial_t(self):
        g = group_t2_x1()
        e = amalgam_normalize(g, (word(2), TPower(0), word(2)))
        assert e.syllables == (word(2, 2),) and e.tail == 0

    def test_nontrivial_commutator(self):
        g = group_t2_x1()
        e = amalgam_normalize(g, (word(2), TPower(1), invert(word(2)), TPower(-1)))
        assert not e.is_identity()

    def test_syllable_constraints_enforced(self):
        g = group_t2_x1()
        with pytest.raises(ValueError):
            AmalgamElement(g, (TPower(2),), 0)  # exponent out of range
        with pytest.raises(ValueError):
            AmalgamElement(g, (TPower(1), TPower(1)), 0)  # not alternating
        with pytest.raises(ValueError):
            AmalgamElement(g, (IDENTITY,), 0)  # trivial base syllable

    def test_relation_insertion_is_invisible(self):
        """Inserting t^q x^-1 or x t^-q anywhere leaves the element fixed."""
        rng = random.Random(42)
        for depth, prime in ((1, 2), (2, 2), (1, 3)):
            g = AdjunctionGroup(2, word(1), prime, depth)
            q = g.relation_exponent
            for _ in range(60):
                expr = random_expression(rng, g)
                reference = amalgam_normalize(g, expr)
                padding = rng.choice(
                    [
                        [TPower(q), invert(g.root_of)],
                        [g.root_of, TPower(-q)],
                        [TPower(-q), g.root_of],
                    ]
                )
                where = rng.randint(0, len(expr))
                assert amalgam_normalize(g, expr[:where] + padding + expr[where:]) == reference

    def test_round_trip_through_expression(self):
        rng = random.Random(43)
        g = AdjunctionGroup(3, word(1, 2), 3, 1)
        for _ in range(80):
            e = amalgam_normalize(g, random_expression(rng, g))
            assert amalgam_normalize(g, e.to_expression()) == e


class TestAmalgamGroupLaw:
    def test_identity_and_inverse(self):
        rng = random.Random(44)
        g = AdjunctionGroup(2, word(1, 2), 2, 2)
        one = amalgam_identity(g)
        for _ in range(60):
            e = amalgam_normalize(g, random_expression(rng, g))
            assert amalgam_multiply(e, one) == e
            assert amalgam_multiply(one, e) == e
            assert amalgam_multiply(e, amalgam_invert(e)).is_identity()
            assert amalgam_multiply(amalgam_invert(e), e).is_identity()

    def test_associative(self):
        rng = random.Random(45)
        g = group_t2_x1()
        for _ in range(40):
            a, b, c = (
                amalgam_normalize(g, random_expression(rng, g, 4)) for _ in range(3)
            )
            assert amalgam_multiply(amalgam_multiply(a, b), c) == amalgam_multiply(
                a, amalgam_multiply(b, c)
            )

    def test_mixed_groups_rejected(self):
        a = amalgam_identity(group_t2_x1())
        b = amalgam_identity(AdjunctionGroup(2, word(2), 2, 1))
        with pytest.raises(ValueError):
            amalgam_multiply(a, b)


class TestNormalFormFaithful:
    def test_injective_into_free_model(self):
        """In <x1,x2,t | t^2=x1> distinct normal forms map to distinct
        elements of the free group on {x2, t}, and normalization never
        changes the image."""
        rng = random.Random(46)
        g = group_t2_x1()
        seen = {}
        for _ in range(250):
            expr = random_expression(rng, g)
            e = amalgam_normalize(g, expr)
            image = free_image(expr)
            assert free_image(e.to_expression()) == image
            key = (e.syllables, e.tail)
            if key in seen:
                assert seen[key] == image
            else:
                for other_key, other_image in seen.items():
                    assert other_image != image or other_key == key
                seen[key] = image

    def test_identity_only_maps_to_identity(self):
        rng = random.Random(47)
        g = group_t2_x1()
        for _ in range(200):
            expr = random_expression(rng, g)
            e = amalgam_normalize(g, expr)
            assert e.is_identity() == (free_image(expr) == IDENTITY)


class TestPruferQuotient:
    def test_homomorphism(self):
        rng = random.Random(48)
        g = AdjunctionGroup(2, word(1), 2, 2)
        for _ in range(60):
            a = amalgam_normalize(g, random_expression(rng, g))
            b = amalgam_normalize(g, random_expression(rng, g))
            assert prufer_quotient_map(g, amalgam_multiply(a, b)) == prufer_add(
                prufer_quotient_map(g, a), prufer_quotient_map(g, b)
            )

    def test_base_dies_and_t_generates(self):
        g = AdjunctionGroup(2, word(1), 3, 2)
        base = amalgam_normalize(g, (word(1, 2, -1),))
        assert prufer_quotient_map(g, base).is_zero()
        t = amalgam_normalize(g, (TPower(1),))
        image = prufer_quotient_map(g, t)
        assert image == prufer(3, 1, 2)
        assert image.order == 9

    def test_surjective_onto_torsion(self):
        g = AdjunctionGroup(1, word(1), 2, 3)
        images = {
            str(
                prufer_quotient_map(
                    g, amalgam_normalize(g, (TPower(1),) * j)
                )
            )
            for j in range(8)
        }
        assert len(images) == 8  # all of the 8-torsion subgroup

    def test_wrong_group_rejected(self):
        g = group_t2_x1()
        other = AdjunctionGroup(2, word(2), 2, 1)
        with pytest.raises(ValueError):
            prufer_quotient_map(other, amalgam_identity(g))


class TestWitness:
    @pytest.mark.parametrize(
        "n,p,d",
        [(0, 2, 1), (1, 2, 2), (2, 3, 1), (2, 5, 2)],
    )
    def test_reports(self, n, p, d):
        report = witness_nonperfect(n, p, d)
        assert report.rootless
        assert report.base_rank == 2**n
        assert report.quotient_order == p**d
        assert report.relator_image.is_zero()
        assert report.t_image == prufer(p, 1, d)
        assert report.t_image.order == p**d
        assert len(report.distinguished) == 4**n
        data = report.to_dict()
        assert data["quotient"] == f"Z/{p ** d}"

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            witness_nonperfect(0, 2, 0)
        with pytest.raises(ValueError):
            witness_nonperfect(-1, 2, 1)
        with pytest.raises(ValueError):
            witness_nonperfect(0, 4, 1)
