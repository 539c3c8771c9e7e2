"""Words are validated where they enter; kernels wrap reduced results unchecked.

Every result built through ``words._reduced`` must pass the full check of
``Word.__post_init__``, and every tower element built through
``tower._element`` or ``tower._strip`` the level check of
``TowerElement.__post_init__``.  The inputs below stress each call site's
reason for skipping it, and an AST scan pins the set of call sites, so a new
unchecked caller needs an edit here.
"""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import loctower
from loctower.adjunction import witness_nonperfect
from loctower.roots import centralizer_generator, kth_root, primitive_root
from loctower.tower import (
    TowerElement,
    centralizer_compat,
    h_inverse,
    h_multiply,
    has_p_root_in_H,
    normalize,
    phi,
    phi_preimage,
    promote,
    root_transfer,
)
from loctower.words import (
    Word,
    cyclic_reduce,
    invert,
    max_index,
    multiply,
    power,
    reduce,
)

from conftest import (
    is_cyclically_reduced,
    level_letters,
    level_words,
    nonempty_words_strategy,
    oracle_distinguished_word,
    oracle_expand,
    oracle_phi_preimage,
    oracle_promote,
    relabel_to_base,
    words_strategy,
)


def assert_valid(r: Word) -> None:
    """``r`` passes the constructor's full check and keeps its letters."""
    assert type(r.letters) is tuple
    assert Word(r.letters) == r, r.letters


def assert_valid_element(e: TowerElement) -> None:
    """``e`` passes the level check of the constructor and keeps its fields."""
    assert_valid(e.word)
    assert TowerElement(e.level, e.word) == e


def conjugate(c: Word, u: Word) -> Word:
    return multiply(multiply(c, u), invert(c))


def cyclic_cores(rank=3, max_len=6):
    return nonempty_words_strategy(rank, max_len).map(lambda w: cyclic_reduce(w)[1])


class TestWords:
    @given(words_strategy(4, 16))
    def test_invert(self, w):
        r = invert(w)
        assert_valid(r)
        assert multiply(w, r) == Word()

    @given(words_strategy(4, 16))
    def test_cyclic_reduce(self, w):
        conj, core = cyclic_reduce(w)
        assert_valid(conj)
        assert_valid(core)
        assert is_cyclically_reduced(core)
        assert conjugate(conj, core) == w

    @given(words_strategy(3, 6), cyclic_cores(), st.integers(-7, 7))
    def test_power_of_conjugates(self, c, u, k):
        w = conjugate(c, u)
        r = power(w, k)
        assert_valid(r)
        letters = w.letters if k >= 0 else invert(w).letters
        assert r == reduce(letters * abs(k))


class TestRoots:
    @given(words_strategy(3, 5), cyclic_cores(3, 5), st.integers(1, 6), st.booleans())
    def test_roots_of_conjugated_powers(self, c, v, k, conjugated):
        if not conjugated:
            c = Word()
        w = power(conjugate(c, v), k)
        dec = primitive_root(w)
        assert_valid(dec.root)
        assert power(dec.root, dec.exponent) == w
        assert dec.exponent % k == 0
        for j in range(1, k + 1):
            for signed in (j, -j):
                root = kth_root(w, signed)
                if k % j == 0:
                    assert root is not None
                if root is not None:
                    assert_valid(root)
                    assert power(root, signed) == w


class TestTower:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.data())
    def test_phi_promote_normalize(self, level, data):
        w = data.draw(level_words(level, 10))
        image = phi(level, w)
        assert_valid(image)
        top = promote(TowerElement(level, w), level + 2)
        assert_valid(top.word)
        assert top.word == phi(level + 1, image)
        e = normalize(level + 2, top.word)
        assert_valid(e.word)
        assert e == normalize(level, w)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.data())
    def test_preimages_of_images_near_misses_and_random_words(self, level, data):
        image = list(phi(level, data.draw(level_words(level, 10))).letters)
        near_miss = image[:]
        if image:
            i = data.draw(st.integers(0, len(image) - 1))
            near_miss[i] = data.draw(level_letters(level + 1))
        for u in (Word(image), reduce(near_miss), data.draw(level_words(level + 1, 12))):
            pre = phi_preimage(level, u)
            assert pre == oracle_phi_preimage(level, u)
            if pre is not None:
                assert_valid(pre)
                assert phi(level, pre) == u
            e = normalize(level + 1, u)
            assert_valid(e.word)
            assert promote(e, level + 1).word == u


class TestTrustedElements:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    def test_normal_forms_promotions_and_products(self, i, j, data):
        a = TowerElement(i, data.draw(level_words(i, 8)))
        b = TowerElement(j, data.draw(level_words(j, 8)))
        top = promote(a, i + 2)
        results = [top, normalize(i, a.word), normalize(top.level, top.word), h_inverse(a)]
        results += [h_inverse(top), h_multiply(a, b), h_multiply(top, h_inverse(a))]
        for e in results:
            assert_valid_element(e)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2), st.sampled_from([2, 3]), st.integers(0, 2), st.booleans(), st.data())
    def test_root_witnesses_and_roots(self, level, p, k, cross_check, data):
        """Root witnesses in both modes, always found for a p^k-th power
        with k > 0, and the roots and centralizer generators that
        root_transfer and centralizer_compat expand unchecked."""
        w = data.draw(level_words(level, 6))
        e = normalize(level, power(w, p**k))
        cert = has_p_root_in_H(e, p, level + 2, cross_check)
        if k:
            assert cert.witness is not None
        if cert.witness is not None:
            assert_valid_element(cert.witness)
        v = root_transfer(level, power(w, p), p)
        assert_valid_element(TowerElement(level, v))
        if w:
            assert_valid_element(TowerElement(level, centralizer_generator(w)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 4), st.data())
    def test_root_and_centralizer_images_of_conjugated_powers(self, level, k, data):
        """root_transfer and centralizer_compat compare the raw expansion
        of a root with the image's root, without making an element; on
        conjugated powers, where roots and generators carry a conjugator,
        both agree with the checked one-level-per-pass promotion."""
        c, u = data.draw(level_words(level, 4)), data.draw(level_words(level, 4))
        w = conjugate(c, power(u, k))
        image = phi(level, w)
        v = root_transfer(level, w, k)
        assert oracle_promote(TowerElement(level, v), level + 1).word == kth_root(image, k)
        if w:
            assert centralizer_compat(level, w)
            mapped = oracle_promote(TowerElement(level, centralizer_generator(w)), level + 1).word
            assert mapped in (centralizer_generator(image), invert(centralizer_generator(image)))


class TestAdjunction:
    @given(st.integers(0, 5), st.data())
    def test_relabel_to_base(self, level, data):
        """The base-label expansion of a relabelled word is phi's image
        relabelled one level up."""
        w = data.draw(level_words(level, 16))
        r = Word(oracle_expand(relabel_to_base(w.letters, level), shift=1))
        image = phi(level, w)
        assert_valid(image)
        assert max_index(r) <= 2 ** (level + 1)
        assert r.letters == relabel_to_base(image.letters, level + 1)

    def test_relabel_promoted_generator(self):
        """x1 expanded in base labels is x1 promoted by the doubling
        convention with its indices shifted down by 2^n - 1."""
        for level in range(8):
            r = witness_nonperfect(level, 2, 1).group.root_of
            assert_valid(r)
            assert r == oracle_distinguished_word(level)
            assert len(r) == 4**level and max_index(r) == 2**level


UNVALIDATED_CALLERS = {
    ("words", "invert"),
    ("words", "power"),
    ("words", "cyclic_reduce"),
    ("roots", "primitive_root"),
    ("tower", "promote"),
    ("tower", "phi_preimage"),
    ("tower", "_strip"),
    ("adjunction", "witness_nonperfect"),
}
NEVER_UNVALIDATED = ("cli", "stallings", "presentations")
TRUSTED_ELEMENT_CALLERS = {
    ("tower", "_strip"),
    ("tower", "promote"),
    ("tower", "h_inverse"),
}
STRIP_CALLERS = {
    ("tower", "normalize"),
    ("tower", "h_multiply"),
    ("tower", "has_p_root_in_H"),
}
NEVER_TRUSTED_ELEMENTS = ("cli", "stallings", "presentations", "adjunction")


def _source_trees():
    package = Path(loctower.__file__).parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}


def _names(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _callers(name: str) -> set[tuple[str, str]]:
    """The (module, function) pairs whose body calls ``name``."""
    callers = set()
    for module, tree in _source_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = (n.func for n in ast.walk(node) if isinstance(n, ast.Call))
                if name in set().union(*map(_names, calls)):
                    callers.add((module, node.name))
    return callers


class TestUnvalidatedCallSites:
    def test_callers_of_reduced_are_pinned(self):
        assert _callers("_reduced") == UNVALIDATED_CALLERS

    def test_entry_points_never_use_reduced(self):
        trees = _source_trees()
        for module in NEVER_UNVALIDATED:
            assert "_reduced" not in _names(trees[module]), module

    def test_callers_of_trusted_elements_are_pinned(self):
        assert _callers("_element") == TRUSTED_ELEMENT_CALLERS
        assert _callers("_strip") == STRIP_CALLERS

    def test_entry_points_never_use_trusted_elements(self):
        trees = _source_trees()
        for module in NEVER_TRUSTED_ELEMENTS:
            assert not {"_element", "_strip"} & _names(trees[module]), module
