"""The colimit of free groups along the commutator embedding.

Level n hosts the free group on generators x_{2^n}, ..., x_{2^{n+1}-1}; the
bonding map phi_n substitutes x_i -> [x_{2i}, x_{2i+1}].  Elements of the
colimit group are carried as (level, word) pairs in minimal-level form.

Index convention: the doubling convention above is used everywhere.  The
relabelled variant x_i -> [x_{2i-1}, x_{2i}] on 1-indexed generators is the
same map up to the index bijection i -> i + 2^n - 1 at level n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .roots import centralizer_generator, is_prime, kth_root
from .words import IDENTITY, IdentityWordError, Word, invert, multiply


class LengthLimitError(ValueError):
    """A promotion would exceed the configured word-length guard."""


def level_index_range(n: int) -> range:
    """Generator indices of the level-n free group."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    return range(2**n, 2 ** (n + 1))


def validate_level_word(n: int, w: Word) -> None:
    indices = level_index_range(n)
    letters = w.letters
    if not letters or (
        indices.start <= min(map(abs, letters)) and max(map(abs, letters)) < indices.stop
    ):
        return
    bad = next(abs(l) for l in letters if abs(l) not in indices)
    raise ValueError(
        f"generator x{bad} is not valid at level {n} "
        f"(expected indices {indices.start}..{indices.stop - 1})"
    )


def generator(i: int) -> Word:
    return Word((i,))


def _expand(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of phi: x_i -> (2i, 2i+1, -2i, -2i-1), x_i^-1 -> (2i+1, 2i,
    -2i-1, -2i), through one table entry per distinct letter."""
    table = {}
    for l in set(letters):
        i = abs(l)
        block = (2 * i, 2 * i + 1, -2 * i, -2 * i - 1)
        table[l] = block if l > 0 else (block[1], block[0], block[3], block[2])
    return tuple(chain.from_iterable(map(table.__getitem__, letters)))


def _phi_letters(letters: tuple[int, ...], max_length: int | None) -> tuple[int, ...]:
    if max_length is not None and 4 * len(letters) > max_length:
        raise LengthLimitError(
            f"phi image would have {4 * len(letters)} letters (limit {max_length})"
        )
    return _expand(letters)


def _preimage_letters(letters: tuple[int, ...]) -> tuple[int, ...] | None:
    """The letters whose :func:`_expand` is ``letters``, or None.

    The head a of each 4-letter block names the only candidate letter: a
    even means x_(a/2), a odd means x_((a-1)/2)^-1, and a < 2 means none.
    Re-expanding the candidates and comparing settles the rest.  A match
    is freely reduced whenever ``letters`` is, because x_i x_i^-1 expands
    to blocks that cancel at their join.
    """
    if len(letters) % 4:
        return None
    heads = letters[0::4]
    decode = {}
    for a in set(heads):
        if a < 2:
            return None
        decode[a] = a >> 1 if a % 2 == 0 else -(a >> 1)
    pre = tuple(map(decode.__getitem__, heads))
    return pre if _expand(pre) == letters else None


def phi(n: int, w: Word, max_length: int | None = None) -> Word:
    """Letter-wise substitution x_i -> [x_{2i}, x_{2i+1}], reduced.

    The image of a reduced word is already reduced (blocks never cancel at
    their boundaries), so the length is exactly 4*len(w).
    """
    validate_level_word(n, w)
    return Word(_phi_letters(w.letters, max_length))


def phi_preimage(n: int, u: Word) -> Word | None:
    """The unique w with phi(n, w) = u, or None when u is outside the image.

    phi(n, w) is the concatenation of the 4-letter blocks of w's letters,
    and no block cancels against its neighbour, so u is an image exactly
    when it splits into blocks (2i, 2i+1, -2i, -2i-1), read as x_i, and
    (2i+1, 2i, -2i-1, -2i), read as x_i^-1.
    """
    validate_level_word(n + 1, u)
    pre = _preimage_letters(u.letters)
    return None if pre is None else Word(pre)


def root_transfer(n: int, w: Word, k: int) -> Word | None:
    """v with v^k = w and phi(n, v) = kth_root(phi(n, w), k), when the image
    has a k-th root; None otherwise.  Root existence for w and its image
    always coincide."""
    if k == 0:
        raise ValueError("k must be nonzero")
    validate_level_word(n, w)
    image_root = kth_root(phi(n, w), k)
    if image_root is None:
        return None
    v = kth_root(w, k)
    assert v is not None and phi(n, v) == image_root
    return v


@dataclass(frozen=True)
class TowerElement:
    """Element of the colimit group as a (level, word) pair.

    Canonical values (as produced by :func:`normalize`) use the lowest level
    at which the element exists, so dataclass equality coincides with
    equality in the colimit group.
    """

    level: int
    word: Word


def normalize(level: int, w: Word) -> TowerElement:
    """Minimal-level representative: strip phi-preimages until none exists.

    The preimage of a level-n word lies at level n - 1, so only the input
    is checked, and only the final letters become a Word.
    """
    validate_level_word(level, w)
    letters = w.letters
    while level > 0:
        pre = _preimage_letters(letters)
        if pre is None:
            break
        letters = pre
        level -= 1
    return TowerElement(level, w if letters is w.letters else Word(letters))


def promote(e: TowerElement, target: int, max_length: int | None = None) -> TowerElement:
    """Apply phi repeatedly; same colimit element, higher-level word.

    The result is generally not in canonical form (that is the point).
    """
    if target < e.level:
        raise ValueError(f"target level {target} is below current level {e.level}")
    if target == e.level:
        return TowerElement(target, e.word)
    validate_level_word(e.level, e.word)
    letters = e.word.letters
    for _ in range(e.level, target):
        letters = _phi_letters(letters, max_length)
    return TowerElement(target, Word(letters))


def h_identity() -> TowerElement:
    return TowerElement(0, IDENTITY)


def h_inverse(e: TowerElement) -> TowerElement:
    return TowerElement(e.level, invert(e.word))


def h_multiply(a: TowerElement, b: TowerElement) -> TowerElement:
    """Colimit group law: promote to a common level, multiply, normalize."""
    level = max(a.level, b.level)
    wa = promote(a, level).word
    wb = promote(b, level).word
    return normalize(level, multiply(wa, wb))


ROOT_FOUND = "ROOT_FOUND"
NO_ROOT_PROVEN = "NO_ROOT_PROVEN"


@dataclass(frozen=True)
class RootCertificate:
    """Outcome of a p-root search in the colimit group.

    ``theorem`` mode records a root failure at the element's own level; the
    root-transfer equivalence then rules out roots at every higher level.
    ``cross-check`` mode instead tests every level up to ``max_level``.
    """

    status: str
    prime: int
    mode: str
    base_level: int
    checked_levels: tuple[int, ...]
    witness: TowerElement | None


def has_p_root_in_H(
    e: TowerElement,
    p: int,
    max_level: int,
    cross_check: bool = False,
    max_length: int | None = None,
) -> RootCertificate:
    """Decide whether ``e`` has a p-th root in the colimit group."""
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    if max_level < e.level:
        raise ValueError("max_level must be at least the element's level")
    if not cross_check:
        root = kth_root(e.word, p)
        if root is not None:
            return RootCertificate(
                ROOT_FOUND, p, "theorem", e.level, (e.level,), normalize(e.level, root)
            )
        return RootCertificate(NO_ROOT_PROVEN, p, "theorem", e.level, (e.level,), None)

    witness = None
    found_levels = []
    for level in range(e.level, max_level + 1):
        w = promote(e, level, max_length=max_length).word
        root = kth_root(w, p)
        if root is not None:
            found_levels.append(level)
            if witness is None:
                witness = normalize(level, root)
    checked = tuple(range(e.level, max_level + 1))
    if witness is not None:
        # a root at any level is a root at every higher level
        assert found_levels == list(range(found_levels[0], max_level + 1))
        return RootCertificate(ROOT_FOUND, p, "cross-check", e.level, checked, witness)
    return RootCertificate(NO_ROOT_PROVEN, p, "cross-check", e.level, checked, None)


def centralizer_compat(n: int, w: Word) -> bool:
    """True iff phi maps the centralizer generator of ``w`` onto a generator
    of the centralizer of phi(w).  Both sides are computed independently via
    primitive roots; the contract is that this always holds."""
    if not w:
        raise IdentityWordError("centralizer compatibility needs a nontrivial word")
    validate_level_word(n, w)
    c = centralizer_generator(w)
    c_image = centralizer_generator(phi(n, w))
    mapped = phi(n, c)
    return mapped == c_image or mapped == invert(c_image)
