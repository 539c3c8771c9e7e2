"""Presentations, Smith normal form, and abelian invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loctower.presentations import (
    AbelianInvariants,
    Presentation,
    PresentationSyntaxError,
    abelianization,
    exponent_sums,
    format_abelian_invariants,
    is_perfect,
    parse_presentation,
    relation_matrix,
    smith_normal_form,
    tower_truncation,
    triangle_group,
    triangle_is_finite,
)
from loctower.words import IDENTITY, Word, invert, multiply, power, word

from conftest import determinant, matrix_multiply, oracle_smith_normal_form, random_word


def random_matrix(rng, max_dim=8, bound=20):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows)
    )


def check_snf(matrix, snf):
    """Full validity: u @ m @ v == d, u and v unimodular, d a nonnegative
    diagonal divisibility chain."""
    assert matrix_multiply(matrix_multiply(snf.u, matrix), snf.v) == snf.d
    assert abs(determinant(snf.u)) == 1
    assert abs(determinant(snf.v)) == 1
    diag = snf.diagonal()
    for i, row in enumerate(snf.d):
        for j, entry in enumerate(row):
            if i != j:
                assert entry == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


class TestSmithNormalForm:
    def test_examples(self):
        snf = smith_normal_form([[3, -8], [-2, 6]])
        assert snf.diagonal() == (1, 2)
        check_snf(((3, -8), (-2, 6)), snf)

        snf = smith_normal_form([[2, 0], [0, 3]])
        assert snf.diagonal() == (1, 6)

        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.diagonal() == (0, 0)

        snf = smith_normal_form([[6, 10, 15]])
        assert snf.diagonal() == (1,)

    def test_random_validity(self):
        rng = random.Random(271828)
        for _ in range(300):
            m = random_matrix(rng)
            check_snf(m, smith_normal_form(m))

    def test_diagonal_invariant_under_transposition(self):
        rng = random.Random(314159)
        for _ in range(60):
            m = random_matrix(rng, max_dim=5, bound=9)
            t = tuple(zip(*m))
            assert smith_normal_form(m).diagonal() == smith_normal_form(t).diagonal()

    def test_diagonal_invariant_under_row_permutation(self):
        rng = random.Random(99)
        for _ in range(60):
            m = list(random_matrix(rng, max_dim=5, bound=9))
            shuffled = m[:]
            rng.shuffle(shuffled)
            assert (
                smith_normal_form(m).diagonal()
                == smith_normal_form(shuffled).diagonal()
            )

    def test_unit_dense_and_truncation_matrices(self):
        rng = random.Random(4242)
        matrices = [relation_matrix(tower_truncation(7))]
        for _ in range(40):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            matrices.append(
                tuple(tuple(rng.choice((-1, 1, -1, 1, 0, 2)) for _ in range(cols)) for _ in range(rows))
            )
        for m in matrices:
            check_snf(m, smith_normal_form(m))

    def test_matches_full_scan_reference(self):
        rng = random.Random(1993)
        matrices = [relation_matrix(tower_truncation(n)) for n in range(1, 6)]
        for _ in range(300):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            values = rng.choice(((-1, 1), (-1, 0, 1), (-2, -1, 0, 1, 2), tuple(range(-9, 10))))
            matrices.append(
                tuple(tuple(rng.choice(values) for _ in range(cols)) for _ in range(rows))
            )
        for m in matrices:
            snf = smith_normal_form(m)
            assert (snf.d, snf.u, snf.v) == oracle_smith_normal_form(m)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])


class TestDeterminant:
    def test_examples(self):
        assert determinant(()) == 1
        assert determinant(((5,),)) == 5
        assert determinant(((1, 2), (3, 4))) == -2
        assert determinant(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24
        assert determinant(((1, 1), (1, 1))) == 0

    def test_matches_permutation_expansion(self):
        import itertools

        rng = random.Random(55)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            expected = 0
            for perm in itertools.permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = sign
                for i in range(n):
                    term *= m[i][perm[i]]
                expected += term
            assert determinant(m) == expected


class TestRelationMatrix:
    def test_triangle_matrix(self):
        p = triangle_group(3, 8, 2)
        assert relation_matrix(p) == ((3, -8), (-2, 6))

    def test_free_group(self):
        p = Presentation(3, ())
        assert relation_matrix(p) == ()

    def test_exponent_sums(self):
        assert exponent_sums(word(1, 2, -1, -2, 2), 3) == (0, 1, 0)


class TestAbelianization:
    def test_triangle_examples(self):
        inv = abelianization(triangle_group(3, 8, 2))
        assert inv == AbelianInvariants((2,), 0)
        assert format_abelian_invariants(inv) == "Z/2"

    def test_free_groups(self):
        assert abelianization(Presentation(4, ())) == AbelianInvariants((), 4)

    def test_trivializing_relators(self):
        p = Presentation(2, (word(1), word(2)))
        inv = abelianization(p)
        assert inv.is_trivial()
        assert is_perfect(p)
        assert format_abelian_invariants(inv) == "0"

    def test_tower_truncations_are_free(self):
        for n in range(5):
            inv = abelianization(tower_truncation(n))
            assert inv == AbelianInvariants((), 2**n)
            assert not is_perfect(tower_truncation(n))

    def test_invariant_under_relator_conjugation_and_inversion(self):
        rng = random.Random(2024)
        for _ in range(40):
            relators = [
                random_word(rng, 6, [1, 2, 3]) for _ in range(rng.randint(1, 3))
            ]
            p = Presentation(3, tuple(relators))
            mangled = []
            for r in relators:
                c = random_word(rng, 3, [1, 2, 3])
                conjugated = multiply(multiply(c, r), invert(c))
                mangled.append(invert(conjugated) if rng.random() < 0.5 else conjugated)
            q = Presentation(3, tuple(mangled))
            assert abelianization(p) == abelianization(q)

    def test_perfect_presentations_have_solvable_exponent_systems(self):
        # perfection means every unit vector lies in the integer row space
        candidates = [
            Presentation(2, (word(1), word(2))),
            Presentation(2, (word(1, 2), word(1, -2))),  # Z/2 x Z/... check below
            triangle_group(3, 8, 2),
        ]
        for p in candidates:
            m = relation_matrix(p)
            snf = smith_normal_form(m)
            diag = snf.diagonal()
            solvable_all = all(
                _row_space_contains_unit(snf, j, p.generator_count)
                for j in range(p.generator_count)
            )
            assert is_perfect(p) == solvable_all


def _row_space_contains_unit(snf, j, n):
    """Does x @ m = e_j have an integer solution?  Solve via z @ d = e_j @ v."""
    ev = [snf.v[j][c] for c in range(len(snf.v[0]))]
    diag = snf.diagonal()
    for c, value in enumerate(ev):
        d = diag[c] if c < len(diag) else 0
        if d == 0:
            if value != 0:
                return False
        elif value % d:
            return False
    return True


class TestTriangleFiniteness:
    @pytest.mark.parametrize(
        "params,finite",
        [
            ((3, 8, 2), False),
            ((2, 3, 5), True),
            ((2, 3, 3), True),
            ((2, 2, 7), True),
            ((3, 3, 3), False),
            ((4, 4, 4), False),
            ((-2, 3, 5), True),
        ],
    )
    def test_criterion(self, params, finite):
        assert triangle_is_finite(*params) == finite

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            triangle_is_finite(0, 1, 1)
        with pytest.raises(ValueError):
            triangle_group(1, 0, 1)


class TestFormatting:
    def test_cases(self):
        assert format_abelian_invariants(AbelianInvariants((), 1)) == "Z"
        assert format_abelian_invariants(AbelianInvariants((), 3)) == "Z^3"
        assert format_abelian_invariants(AbelianInvariants((2, 4), 1)) == "Z + Z/2 + Z/4"
        assert format_abelian_invariants(AbelianInvariants((), 0)) == "0"

    def test_invalid_invariants_rejected(self):
        with pytest.raises(ValueError):
            AbelianInvariants((3, 4), 0)  # not a divisibility chain
        with pytest.raises(ValueError):
            AbelianInvariants((1,), 0)


class TestParser:
    def test_triangle_style_input(self):
        text = """
        # central extension with chained equalities
        gens: 2
        x1^3 = x2^8 = (x1*x2)^2
        """
        p = parse_presentation(text)
        assert p.generator_count == 2
        assert relation_matrix(p) == ((3, -8), (-2, 6))

    def test_plain_relators(self):
        p = parse_presentation("gens: 3\nx1*x2^-1\nx3")
        assert len(p.relators) == 2

    def test_errors(self):
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("x1*x2")  # missing header
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("gens: 0\n")
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("gens: 2\nx1*zz")
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("")
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("gens: 1\nx2")  # relator beyond rank

    def test_error_line_is_reported(self):
        with pytest.raises(PresentationSyntaxError) as info:
            parse_presentation("gens: 2\nx1\nx?")
        assert info.value.line == 3
