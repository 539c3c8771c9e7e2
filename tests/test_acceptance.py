"""End-to-end acceptance checks.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failure of any assertion fails the corresponding criterion.
"""

import random
import time
from fractions import Fraction

from loctower.adjunction import (
    AdjunctionGroup,
    TPower,
    amalgam_normalize,
    witness_nonperfect,
)
from loctower.presentations import (
    AbelianInvariants,
    abelianization,
    relation_matrix,
    smith_normal_form,
    triangle_group,
    triangle_is_finite,
)
from loctower.roots import kth_root, primitive_root
from loctower.stallings import build_graph, contains, express
from loctower.tower import (
    NO_ROOT_PROVEN,
    TowerElement,
    centralizer_compat,
    has_p_root_in_H,
    phi,
    promote,
    root_transfer,
)
from loctower.words import (
    IDENTITY,
    Word,
    invert,
    multiply,
    power,
    reduce,
    substitute,
    support,
    word,
)

from conftest import (
    determinant,
    enumerated_primitive_roots,
    iter_reduced_tuples,
    level_index_range,
    matrix_multiply,
    random_nonempty_word,
    random_word,
)


def _report(n, text):
    print(f"\nPASS criterion {n}: {text}")


def test_criterion_1_triangle_abelianizations():
    start = time.monotonic()

    inv = abelianization(triangle_group(3, 8, 2))
    assert inv == AbelianInvariants((2,), 0)
    assert not triangle_is_finite(3, 8, 2)

    assert triangle_is_finite(2, 3, 5)
    pres = triangle_group(2, 3, 5)
    m = relation_matrix(pres)
    snf = smith_normal_form(m)
    # full Smith-normal-form consistency for the (2,3,5) relation matrix
    assert matrix_multiply(matrix_multiply(snf.u, m), snf.v) == snf.d
    assert abs(determinant(snf.u)) == 1 and abs(determinant(snf.v)) == 1
    diag = snf.diagonal()
    assert all(d >= 0 for d in diag)
    inv235 = abelianization(pres)
    expected_torsion = tuple(d for d in diag if d >= 2)
    assert inv235 == AbelianInvariants(expected_torsion, 2 - sum(1 for d in diag if d))

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(
        1,
        f"G(3,8,2) abelianizes to Z/2 (infinite type) and G(2,3,5) is finite "
        f"with SNF-consistent abelianization, in {elapsed:.3f}s",
    )


def test_criterion_2_power_support_exhaustive():
    start = time.monotonic()
    count = 0
    exponents = (1, 2, 3, 4, 5, -1, -2, -3, -4, -5)
    for letters in iter_reduced_tuples(8, 3):
        w = Word(letters)
        s = support(w)
        for k in exponents:
            assert support(power(w, k)) == s, (w, k)
        count += 1
    elapsed = time.monotonic() - start
    assert count == sum(6 * 5 ** (l - 1) for l in range(1, 9))
    assert elapsed < 120.0
    _report(
        2,
        f"support(w^k) == support(w) for all {count} reduced words of length "
        f"<= 8 over 3 generators and 0 < |k| <= 5, in {elapsed:.1f}s",
    )


def test_criterion_3_root_transfer_equivalence():
    rng = random.Random(0xC3)
    checked = 0
    positives = 0
    while checked < 1000:
        level = rng.randint(0, 2)
        k = rng.randint(2, 5)
        w = random_word(rng, 8, level_index_range(level))
        if rng.random() < 0.5 and w:
            w = power(w, k)  # guarantee a healthy share of positives
        image = phi(level, w)
        direct = kth_root(w, k)
        image_root = kth_root(image, k)
        # root existence coincides for w and phi(w)
        assert (direct is None) == (image_root is None), (level, w, k)
        v = root_transfer(level, w, k)
        assert (v is None) == (direct is None)
        if v is not None:
            assert power(v, k) == w
            assert phi(level, v) == image_root
            positives += 1
        checked += 1
    assert positives >= 300
    _report(
        3,
        f"k-th root existence transfers across phi on {checked} random words "
        f"(levels 0-2, 2 <= k <= 5, {positives} with roots), with witnesses "
        f"mapping onto the image roots",
    )


def test_criterion_4_distinguished_element_rootless():
    start = time.monotonic()
    base = TowerElement(0, word(1))
    for p in (2, 3, 5):
        for n in range(5):
            lifted = promote(base, n)
            # direct computation at each level
            assert kth_root(lifted.word, p) is None, (p, n)
        theorem = has_p_root_in_H(base, p, 4)
        exhaustive = has_p_root_in_H(base, p, 4, cross_check=True)
        assert theorem.status == NO_ROOT_PROVEN
        assert exhaustive.status == NO_ROOT_PROVEN
        assert theorem.status == exhaustive.status
        assert exhaustive.checked_levels == (0, 1, 2, 3, 4)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(
        4,
        f"the distinguished generator has no p-th root for p in (2,3,5) at "
        f"any level <= 4; theorem-mode and exhaustive certificates agree, "
        f"in {elapsed:.2f}s",
    )


def test_criterion_5_centralizer_compatibility():
    rng = random.Random(0xC5)
    checked = 0
    while checked < 500:
        level = rng.randint(0, 2)
        w = random_nonempty_word(rng, 10, level_index_range(level))
        assert centralizer_compat(level, w), (level, w)
        checked += 1
    _report(
        5,
        f"phi maps centralizer generators onto centralizer generators for "
        f"{checked} random nontrivial words of length <= 10 at levels <= 2",
    )


def test_criterion_6_nonperfect_witnesses():
    start = time.monotonic()
    for p, d in ((2, 1), (2, 2), (3, 1), (3, 2)):
        report = witness_nonperfect(2, p, d)
        assert primitive_root(report.group.root_of).exponent == 1
        assert kth_root(report.group.root_of, p) is None
        assert report.relator_image == 0
        assert report.t_image == Fraction(1, p**d)
        assert report.t_image.denominator == p**d
        assert report.to_dict()["quotient"] == f"Z/{p**d}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        6,
        f"level-2 root adjunction surjects onto Z/p^d for (p,d) in "
        f"((2,1),(2,2),(3,1),(3,2)), in {elapsed:.2f}s",
    )


def test_criterion_7_oracle_equivalences():
    # (a) primitive roots against every enumerated power r^k, k >= 2
    start = time.monotonic()
    count = 0
    roots = enumerated_primitive_roots(8, 3)
    for letters in iter_reduced_tuples(8, 3):
        dec = primitive_root(Word(letters))
        assert (dec.root.letters, dec.exponent) == roots.get(letters, (letters, 1)), letters
        count += 1
    roots_elapsed = time.monotonic() - start

    # (b) membership against products of at most 4 generators/inverses
    rng = random.Random(0xC7)
    positive = negative = 0
    for _ in range(100):
        gens = [random_nonempty_word(rng, 5, [1, 2, 3]) for _ in range(3)]
        graph = build_graph(gens)
        moves = gens + [invert(g) for g in gens]
        frontier = [IDENTITY]
        brute = {IDENTITY}
        for _ in range(4):
            frontier = [multiply(w, m) for w in frontier for m in moves]
            brute.update(frontier)
        for target in brute:
            assert contains(graph, target), (gens, target)
            positive += 1
        probe = random_word(rng, 6, [1, 2, 3])
        if probe not in brute and not contains(graph, probe):
            assert express(graph, probe) is None
            negative += 1
    assert positive > 1000 and negative > 30

    # (c) Smith normal form validity on random matrices
    for _ in range(1000):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = tuple(
            tuple(rng.randint(-20, 20) for _ in range(cols)) for _ in range(rows)
        )
        snf = smith_normal_form(m)
        assert matrix_multiply(matrix_multiply(snf.u, m), snf.v) == snf.d
        assert abs(determinant(snf.u)) == 1
        assert abs(determinant(snf.v)) == 1
        diag = snf.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0

    _report(
        7,
        f"primitive roots match the enumerated powers on all {count} words of "
        f"length <= 8 (in {roots_elapsed:.1f}s); membership matches 4-factor product "
        f"search on 100 random subgroups; SNF valid on 1000 random matrices",
    )


def test_criterion_8_amalgam_normal_forms_inject():
    group = AdjunctionGroup(2, word(1), 2, 1)

    def free_image(expression):
        # x1 -> t^2 identifies the adjunction with the free group on x2, t
        out = []
        for item in expression:
            if isinstance(item, TPower):
                out.extend([3 if item.exponent >= 0 else -3] * abs(item.exponent))
            else:
                for l in item.letters:
                    out.extend(((3, 3) if l > 0 else (-3, -3)) if abs(l) == 1 else (l,))
        return reduce(out)

    rng = random.Random(0xC8)
    by_normal_form = {}
    trials = 0
    for _ in range(2000):
        expr = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.5:
                expr.append(TPower(rng.randint(-4, 4)))
            else:
                expr.append(random_word(rng, 4, [1, 2]))
        element = amalgam_normalize(group, expr)
        if len(element.syllables) > 6:
            continue
        image = free_image(expr)
        # normalization preserves the element
        assert free_image(element.to_expression()) == image
        key = (element.syllables, element.tail)
        if key in by_normal_form:
            assert by_normal_form[key] == image
        else:
            by_normal_form[key] = image
        trials += 1
    # distinct normal forms give distinct free-group elements: injectivity
    images = list(by_normal_form.values())
    assert len(set(images)) == len(images)
    assert trials >= 1000 and len(by_normal_form) >= 200
    _report(
        8,
        f"normal forms with <= 6 syllables in <x1,x2,t | t^2=x1> inject into "
        f"the free group on (x2, t) ({len(by_normal_form)} distinct forms "
        f"from {trials} expressions)",
    )
