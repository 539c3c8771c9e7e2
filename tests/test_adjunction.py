"""Prüfer arithmetic, amalgam normal forms, the quotient map, and the
non-perfectness witness pipeline."""

import random
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loctower import adjunction
from loctower.adjunction import (
    MAX_RELATION_BITS,
    AdjunctionGroup,
    AmalgamElement,
    NonPerfectReport,
    TPower,
    _coset_rep,
    adjoin_root,
    amalgam_identity,
    amalgam_invert,
    amalgam_multiply,
    amalgam_normalize,
    parse_prufer,
    prufer_quotient_map,
    witness_nonperfect,
)
from loctower.roots import MILLER_RABIN_BOUND, is_prime, kth_root, primitive_root
from loctower.words import (
    IDENTITY,
    IdentityWordError,
    LengthLimitError,
    Word,
    format_word,
    invert,
    multiply,
    power,
    reduce,
    word,
)

from conftest import (
    is_cyclically_reduced,
    letter_strategy,
    nonempty_words_strategy,
    oracle_coset_rep,
    oracle_distinguished_word,
    oracle_power_of,
    oracle_primitive_root,
    random_word,
    refused_at_once,
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
            parse_prufer(2**89 - 1, "0")


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
    """Powers of x come out of _coset_rep as the empty representative."""

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
        assert oracle_power_of(x, a) == e
        assert _coset_rep(x, a) == (IDENTITY, e)
        # non-powers of exactly the length of a power of x
        same_length = data.draw(st.lists(letter_strategy(3), min_size=len(a), max_size=len(a)))
        for b in (reduce(same_length), multiply(a, data.draw(words_strategy(rank=3, max_len=6)))):
            k = oracle_power_of(x, b)
            if k is None:
                assert _coset_rep(x, b)[0], (x, b)
            else:
                assert _coset_rep(x, b) == (IDENTITY, k)

    def test_same_length_non_powers(self):
        x = word(3, 1, 2, -3)  # conjugated, |c| = 1, |u| = 2
        assert _coset_rep(x, word(3, 1, 2, 1, 2, -3)) == (IDENTITY, 2)
        assert _coset_rep(x, word(3, -2, -1, -2, -1, -3)) == (IDENTITY, -2)
        for a in (word(3, 1, 2, 2, 1, -3), word(3, 2, 1, 2, 1, -3), word(2, 1, 2, 1, 2, 1)):
            assert _coset_rep(x, a)[0]
        assert _coset_rep(x, word(3, 1, 2, 1, -3))[0]  # remainder
        assert _coset_rep(x, word(1, 2))[0]  # e = 0
        assert _coset_rep(x, word(1))[0]  # shorter than the conjugator


class TestPrufer:
    """Prüfer elements are Fractions in [0, 1) whose denominator is the order."""

    def test_canonical_form(self):
        assert parse_prufer(2, "1/4") == Fraction(1, 4)
        assert parse_prufer(2, "2/4") == Fraction(1, 2)
        assert parse_prufer(2, "4/4") == 0
        assert parse_prufer(3, "10/9") == Fraction(1, 9)  # 10/9 = 1/9 mod 1
        assert parse_prufer(5, "-1/5") == Fraction(4, 5)

    def test_invalid_rejected(self):
        for p in (4, 1, 0, -3):
            with pytest.raises(ValueError, match=f"{p} is not prime"):
                parse_prufer(p, "1/4")

    def test_addition(self):
        half = parse_prufer(2, "1/2")
        quarter = parse_prufer(2, "1/4")
        assert (half + half) % 1 == 0
        assert (quarter + quarter) % 1 == half
        assert (quarter + half) % 1 == Fraction(3, 4)

    def test_group_axioms(self):
        rng = random.Random(41)
        elems = [parse_prufer(3, f"{rng.randrange(27)}/27") for _ in range(30)]
        for a in elems:
            assert 0 <= a < 1 and 27 % a.denominator == 0
            assert (a + 0) % 1 == a
            assert (a + parse_prufer(3, f"{-a.numerator}/{a.denominator}")) % 1 == 0

    def test_order_and_scale(self):
        a = parse_prufer(5, "2/125")
        assert a.denominator == 125
        assert 125 * a % 1 == 0
        assert 25 * a % 1 != 0

    def test_parse_and_str(self):
        assert str(parse_prufer(2, "3/4")) == "3/4"
        assert str(parse_prufer(7, "0")) == "0"
        assert str(parse_prufer(7, "49/49")) == "0"
        for text in ("1/6", "x", "1.5", "1/0", "1/-4"):
            with pytest.raises(ValueError):
                parse_prufer(2, text)


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

    def test_refusals_name_the_fault(self):
        for build in (AdjunctionGroup, adjoin_root):
            with pytest.raises(IdentityWordError) as info:
                build(1, IDENTITY, 2, 1)
            assert str(info.value) == "cannot adjoin a root to the identity"
        with pytest.raises(ValueError) as info:
            AmalgamElement(AdjunctionGroup(2, word(1), 2, 1), (word(2), word(2, 2)), 0)
        assert str(info.value) == "syllables must alternate"

    @given(
        nonempty_words_strategy(3, 8).filter(
            lambda v: is_cyclically_reduced(v) and oracle_primitive_root(v.letters)[1] == 1
        ),
        st.integers(2, 5),
        st.sampled_from((2, 3, 5)),
        st.integers(1, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_adjoin_root_rebases_proper_powers(self, v, k, p, d):
        """v^k is rebased onto v; the group it returns is the whole report."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = adjoin_root(3, power(v, k), p, d)
        assert g.root_of == v
        assert g == AdjunctionGroup(3, v, p, d)
        assert caught == []

    def test_relation_exponent(self):
        assert AdjunctionGroup(1, word(1), 3, 2).relation_exponent == 9

    def test_relation_exponent_is_bounded(self):
        largest = AdjunctionGroup(1, word(1), 2, MAX_RELATION_BITS - 1).relation_exponent
        assert largest.bit_length() == MAX_RELATION_BITS
        start = time.perf_counter()
        for p, d in ((2, MAX_RELATION_BITS), (3, 2600), (2, 10**9), (10**9 + 7, 10**9)):
            with pytest.raises(ValueError, match="MAX_RELATION_BITS"):
                AdjunctionGroup(1, word(1), p, d)
            with pytest.raises(ValueError, match="MAX_RELATION_BITS"):
                witness_nonperfect(1, p, d)
        assert time.perf_counter() - start < 1.0


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


def normal_form_bound(g, expression) -> int:
    """B of :func:`amalgam_normalize`: sum(|w| + 2|x|) over base words w
    plus |x| * sum(|e| // p^d + 1) over t-powers t^e."""
    x, q = len(g.root_of), g.relation_exponent
    return sum(
        len(i) + 2 * x if isinstance(i, Word) else x * (abs(i.exponent) // q + 1)
        for i in expression
    )


BUDGET_GROUPS = [
    AdjunctionGroup(2, word(1), 2, 1),
    AdjunctionGroup(2, word(1, 2), 3, 1),
    AdjunctionGroup(2, word(1, 2, -1, -1), 2, 2),
]


class TestNormalizeBudget:
    """``amalgam_normalize`` refuses an expression whose bound B exceeds
    ``max_length`` before it builds anything; within the budget it returns
    what the unbudgeted call returns, in no more than B letters."""

    def test_refused_before_built(self):
        g = adjoin_root(1, word(1), 2, 1)
        expression = [TPower(10**12), word(1)]
        message = refused_at_once(lambda: amalgam_normalize(g, expression, max_length=10))
        assert message == "normal form bound of 500000000004 letters (limit 10)"
        # before the rank check, and past an item that is not a factor
        with pytest.raises(LengthLimitError, match="bound of 22 letters"):
            amalgam_normalize(g, [power(word(2), 20)], max_length=10)
        with pytest.raises(LengthLimitError, match="bound of 500000000001 letters"):
            amalgam_normalize(g, [TPower(10**12), "x1"], max_length=10)
        with pytest.raises(TypeError, match="must be Word or TPower"):
            amalgam_normalize(g, ["x1"], max_length=10)

    @settings(max_examples=150)
    @given(
        st.sampled_from(BUDGET_GROUPS),
        st.lists(st.one_of(st.integers(-20, 20).map(TPower), words_strategy(2, 6)), max_size=6),
    )
    def test_budget_only_refuses(self, g, expression):
        bound = normal_form_bound(g, expression)
        e = amalgam_normalize(g, expression)
        assert amalgam_normalize(g, expression, max_length=bound) == e
        assert amalgam_normalize(g, expression, max_length=None) == e
        letters = sum(len(s) for s in e.syllables if isinstance(s, Word))
        assert letters + abs(e.tail) * len(g.root_of) <= bound
        if bound:
            with pytest.raises(LengthLimitError) as info:
                amalgam_normalize(g, expression, max_length=bound - 1)
            assert str(info.value) == f"normal form bound of {bound} letters (limit {bound - 1})"


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
            assert prufer_quotient_map(g, amalgam_multiply(a, b)) == (
                prufer_quotient_map(g, a) + prufer_quotient_map(g, b)
            ) % 1

    def test_base_dies_and_t_generates(self):
        g = AdjunctionGroup(2, word(1), 3, 2)
        base = amalgam_normalize(g, (word(1, 2, -1),))
        assert prufer_quotient_map(g, base) == 0
        t = amalgam_normalize(g, (TPower(1),))
        image = prufer_quotient_map(g, t)
        assert image == Fraction(1, 9)
        assert image.denominator == 9

    def test_surjective_onto_torsion(self):
        g = AdjunctionGroup(1, word(1), 2, 3)
        images = {
            prufer_quotient_map(g, amalgam_normalize(g, (TPower(1),) * j))
            for j in range(8)
        }
        assert images == {Fraction(j, 8) for j in range(8)}  # the 8-torsion subgroup

    def test_wrong_group_rejected(self):
        g = group_t2_x1()
        other = AdjunctionGroup(2, word(2), 2, 1)
        with pytest.raises(ValueError):
            prufer_quotient_map(other, amalgam_identity(g))


def _reference_report(n: int, x: Word, p: int, d: int) -> NonPerfectReport:
    """The level-n report on the distinguished word x, its images read off
    the normal forms of the defining relator t^(p^d) * x^-1 and of t."""
    group = AdjunctionGroup(2**n, x, p, d)
    relator = amalgam_normalize(group, (TPower(p**d), invert(x)))
    t = amalgam_normalize(group, (TPower(1),))
    return NonPerfectReport(
        n,
        group,
        prufer_quotient_map(group, relator),
        prufer_quotient_map(group, t),
        format_word(x),
    )


class TestWitness:
    @pytest.mark.parametrize(
        "n,p,d",
        [(0, 2, 1), (1, 2, 2), (2, 3, 1), (2, 5, 2)],
    )
    def test_reports(self, n, p, d):
        report = witness_nonperfect(n, p, d)
        x = report.group.root_of
        assert primitive_root(x).exponent == 1
        assert kth_root(x, p) is None
        assert report.group.base_rank == 2**n
        assert report.relator_image == 0
        assert report.t_image == Fraction(1, p**d)
        assert report.t_image.denominator == p**d
        assert len(x) == 4**n
        data = report.to_dict()
        assert data["quotient"] == f"Z/{p ** d}"

    def test_reports_match_relabelled_promotion(self):
        """Every report equals the one built from x1 promoted to level n and
        then shifted onto base labels, for levels 0-7, p in {2, 3, 5} and
        d in {1, 2, 3}.  The witness reads its images off the quotient map's
        definition; the reference computes them here instead, from the
        normal forms of the defining relator and of t."""
        for n in range(8):
            x = oracle_distinguished_word(n)
            for p in (2, 3, 5):
                for d in (1, 2, 3):
                    expected = _reference_report(n, x, p, d)
                    report = witness_nonperfect(n, p, d)
                    assert report == expected
                    assert report.to_dict() == expected.to_dict()

    def test_builds_no_normal_form(self, monkeypatch):
        """The witness calls neither the amalgam normal form nor the
        quotient map, and its reports are unchanged for levels 0-6."""
        cases = [(n, p, d) for n in range(7) for p in (2, 3, 5) for d in (1, 2, 3)]
        words = [oracle_distinguished_word(n) for n in range(7)]
        expected = [_reference_report(n, words[n], p, d) for n, p, d in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the witness built a normal form")

        monkeypatch.setattr(adjunction, "amalgam_normalize", refuse)
        monkeypatch.setattr(adjunction, "prufer_quotient_map", refuse)
        assert [witness_nonperfect(*case) for case in cases] == expected

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            witness_nonperfect(0, 2, 0)
        with pytest.raises(ValueError, match="target level -1 is below current level 0"):
            witness_nonperfect(-1, 2, 1)
        with pytest.raises(ValueError):
            witness_nonperfect(0, 4, 1)
