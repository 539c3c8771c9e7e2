"""Presentations, Smith normal form, and abelian invariants."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loctower.presentations import (
    AbelianInvariants,
    _eliminate_units,
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
from loctower.words import IDENTITY, LengthLimitError, Word, commutator, invert, multiply, power, reduce, word

from conftest import (
    determinant,
    matrix_multiply,
    oracle_abelianization,
    oracle_smith_normal_form,
    random_word,
    refused_at_once,
    words_strategy,
)


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
        matrices += [(), ((), ()), ((0, 0, 0),), ((0,), (0,)), ((0, 0), (0, 0))]
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

    def test_truncation_relators_are_the_commutator_construction(self):
        for n in range(9):
            assert tower_truncation(n).relators == tuple(
                multiply(word(i), invert(commutator(word(2 * i), word(2 * i + 1))))
                for i in range(1, 2**n)
            )

    def test_tower_truncations_are_free(self):
        for n in range(9):
            inv = abelianization(tower_truncation(n))
            assert inv == AbelianInvariants((), 2**n) == oracle_abelianization(tower_truncation(n))
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


def presentation_of(matrix) -> Presentation:
    """One relator per row: the product of x_j^m[j] over the columns."""
    return Presentation(
        len(matrix[0]),
        tuple(
            reduce(l for j, e in enumerate(row, start=1) for l in [j if e > 0 else -j] * abs(e))
            for row in matrix
        ),
    )


def uniform_matrix(n, seed=1, bound=20):
    """The dense n x n matrices of the SNF growth table in ROADMAP.md."""
    rng = random.Random(seed)
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def random_unimodular(rng, n):
    """A product of 2n elementary row operations, with the rows shuffled."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[j] = [x + c * y for x, y in zip(m[j], m[i])]
    rng.shuffle(m)
    return m


def udv_matrix(rng, n, bound=300):
    """U*D*V with U, V unimodular and D a divisibility chain, sometimes
    ending in 0; redrawn until every entry is at most ``bound``."""
    while True:
        chain = [1]
        for _ in range(n - 1):
            chain.append(chain[-1] * rng.choice((1, 1, 2, 3)))
        if rng.random() < 0.5:
            chain[-1] = 0
        d = [[chain[i] if i == j else 0 for j in range(n)] for i in range(n)]
        m = matrix_multiply(matrix_multiply(random_unimodular(rng, n), d), random_unimodular(rng, n))
        if max(abs(x) for row in m for x in row) <= bound:
            return m


@st.composite
def presentations(draw):
    """Rows with many units (which fill in when they share a column), plus
    zero rows (commutators), general words, duplicates, or no relator."""
    rank = draw(st.integers(1, 6))
    entries = st.sampled_from((-3, -2, -1, -1, 0, 0, 0, 1, 1, 2, 5))
    rows = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank), max_size=7))
    relators = list(presentation_of(rows).relators) if rows else []
    words = words_strategy(rank, 10)
    relators += draw(st.lists(st.builds(commutator, words, words), max_size=2))
    relators += draw(st.lists(words, max_size=2))
    if relators:
        relators += draw(st.lists(st.sampled_from(relators), max_size=2))
    return Presentation(rank, tuple(draw(st.permutations(relators))))


class TestAbelianizationMatchesOracle:
    """The sparse unit elimination against the Smith diagonal of the whole
    relation matrix."""

    @settings(max_examples=400, deadline=None)
    @given(presentations())
    def test_random_presentations(self, p):
        assert abelianization(p) == oracle_abelianization(p)

    def test_unit_zero_and_duplicate_rows(self):
        cases = [
            Presentation(3, ()),
            Presentation(2, (word(1, 2, -1, -2),)),
            Presentation(2, (word(1), word(1), word(1, 1))),
            Presentation(3, (word(1, 2), word(2, 3), word(1, 3))),
            Presentation(3, (word(1, 2, 2), word(2, 3, 3, 3), word(1, 1, 3))),
        ]
        for p in cases:
            assert abelianization(p) == oracle_abelianization(p)

    def test_triangle_groups(self):
        for params in ((3, 8, 2), (2, 3, 5), (-4, 6, 9), (12, -18, 30), (1, 1, 1), (40, 40, -40)):
            p = triangle_group(*params)
            assert abelianization(p) == oracle_abelianization(p)

    def test_dense_udv_presentations(self):
        """Square U*D*V relation matrices, D a divisibility chain, as in the
        benchmark's dense abelian queries."""
        rng = random.Random(17)
        for n in (3, 4, 5, 6, 7) * 4:
            p = presentation_of(udv_matrix(rng, n))
            assert abelianization(p) == oracle_abelianization(p)

    @pytest.mark.parametrize("n", [8, 10, 11])
    def test_roadmap_dense_matrices(self, n):
        """The full Smith reduction with transforms takes about 10 s at
        n = 11, so that answer is pinned; abelianization must take under 5 s."""
        p = presentation_of(uniform_matrix(n))
        start = time.perf_counter()
        inv = abelianization(p)
        assert time.perf_counter() - start < 5
        pinned = AbelianInvariants((2, 2571045180688324), 0)
        assert inv == (pinned if n == 11 else oracle_abelianization(p))


def smith_unit_phase(matrix):
    """The block that smith_normal_form's unit pivots leave, and their
    number: the first +-1 in row-major order is swapped to (t, t) and its
    column cleared by row operations, until the block holds no unit."""
    a = [list(row) for row in matrix]
    t = 0
    while True:
        pivot = next(
            ((i, j) for i in range(t, len(a)) for j in range(t, len(a[0])) if abs(a[i][j]) == 1),
            None,
        )
        if pivot is None:
            return [row[t:] for row in a[t:]], t
        i, j = pivot
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        for k in range(len(a)):
            if k != t and a[k][t]:
                f = a[k][t] * a[t][t]
                a[k] = [x - f * y for x, y in zip(a[k], a[t])]
        t += 1


def without_zero_lines(matrix):
    rows = [row for row in matrix if any(row)]
    cols = [j for j in range(len(rows[0])) if any(row[j] for row in rows)] if rows else []
    return [[row[j] for j in cols] for row in rows]


def test_unit_elimination_follows_smith_pivot_order():
    """Without its zero rows and columns, a matrix reaches the Smith
    reduction exactly as the reduction's own unit pivots would leave it."""
    rng = random.Random(23)
    for _ in range(300):
        m = without_zero_lines(random_matrix(rng, bound=rng.choice((2, 3, 20))))
        if not m:
            continue
        block, units = smith_unit_phase(m)
        rows = [{j: x for j, x in enumerate(row) if x} for row in m]
        assert _eliminate_units(rows) == (without_zero_lines(block), units)


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


class TestTriangleBudget:
    """``triangle_group`` refuses relators over ``max_length`` letters, by
    the bound max(|l| + |m|, |m| + 2|n|), before it builds them and before
    it checks for zero parameters."""

    @pytest.mark.parametrize(
        "params,message",
        [
            ((2, 3, 10**6), "triangle relator of 2000003 letters (limit 10)"),
            ((0, 3, 5), "triangle relator of 13 letters (limit 10)"),
            ((10**12, 0, 1), "triangle relator of 1000000000000 letters (limit 10)"),
        ],
    )
    def test_refused_before_built(self, params, message):
        assert refused_at_once(lambda: triangle_group(*params, max_length=10)) == message

    @given(st.tuples(*[st.integers(-6, 6)] * 3), st.integers(0, 30))
    def test_budget_only_refuses(self, params, max_length):
        l, m, n = params
        bound = max(abs(l) + abs(m), abs(m) + 2 * abs(n))
        if bound > max_length:
            with pytest.raises(LengthLimitError) as info:
                triangle_group(l, m, n, max_length)
            assert str(info.value) == f"triangle relator of {bound} letters (limit {max_length})"
        elif 0 in params:
            with pytest.raises(ValueError, match="nonzero"):
                triangle_group(l, m, n, max_length)
        else:
            pres = triangle_group(l, m, n, max_length)
            assert pres == triangle_group(l, m, n) == triangle_group(l, m, n, None)
            assert max(map(len, pres.relators)) <= max_length


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
        # the longer relator, x1^3*x2^-8, has 11 letters
        assert parse_presentation(text, 11) == p

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

    @pytest.mark.parametrize("count", ["٣", "+3", "3_000", "", "3 4", "x"])
    def test_generator_count_is_ascii_digits(self, count):
        with pytest.raises(PresentationSyntaxError, match="^line 2: invalid generator count: column "):
            parse_presentation(f"# header\ngens: {count}\nx1")
        assert parse_presentation("gens: 03\nx1").generator_count == 3

    def test_error_line_is_reported(self):
        with pytest.raises(PresentationSyntaxError) as info:
            parse_presentation("gens: 2\nx1\nx?")
        assert info.value.line == 3

    @pytest.mark.parametrize(
        "text,message",
        [
            ("gens: 1\nx1^3000001", "line 2: column 1: power of 3000001 letters (limit 10)"),
            ("gens: 2\n\nx1^5 = x2 = x1^3000001", "line 3: column 2: power of 3000001 letters (limit 10)"),
            ("gens: 2\nx1^6 = x2^5", "line 2: relator of 11 letters (limit 10)"),
            ("gens: 1\nx1^99999999999999999999", "line 2: power of 99999999999999999999 letters exceeds sys.maxsize"),
        ],
    )
    def test_length_budget_names_the_line(self, text, message):
        max_length = None if "exceeds" in message else 10
        with pytest.raises(LengthLimitError) as info:
            parse_presentation(text, max_length)
        assert type(info.value) is LengthLimitError
        assert str(info.value).startswith(message)
