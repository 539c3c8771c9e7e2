"""The colimit of free groups along the commutator embedding.

Level n hosts the free group on generators x_{2^n}, ..., x_{2^{n+1}-1}; the
bonding map phi_n substitutes x_i -> [x_{2i}, x_{2i+1}].  Elements of the
colimit group are carried as (level, word) pairs in minimal-level form.
Every ``TowerElement`` holds a word valid at its level: the constructor
checks it once, and kernels whose result is valid by construction wrap it
with :func:`_element` instead of checking it again.  :func:`normalize`
strips first and checks only the stripped word: k levels of phi add k bits
to every index.  Promotion and stripping read a word a fixed number of times.

A k-fold expansion is built from blocks: the block of a letter at depth
k >= 1 is the join of the depth-(k-1) blocks of the four letters of its
image, built bottom-up over the signed generators the expansion reaches,
and the word is then read once through the table of its letters' blocks.

Index convention: the doubling convention above is used everywhere.  The
relabelled variant x_i -> [x_{2i-1}, x_{2i}] on 1-indexed generators is the
same map up to the index bijection i -> i + 2^n - 1 at level n; the
non-perfectness witness writes its word in those labels by relabelling
the level-n letters its blocks are joined from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .roots import centralizer_generator, is_prime, kth_root
from .words import IDENTITY, IdentityWordError, LengthLimitError, Word, _reduced, invert
from .words import multiply, support


def validate_level_word(n: int, w: Word) -> None:
    """Check that ``w`` lives at level n: x_i is a level-n generator exactly
    when i has n + 1 bits, which decides deep levels without building 2^n."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    # bit length is monotone in i, so the extreme indices decide every
    # letter; they are found among the distinct letters, and the word is
    # walked only to name its first offender
    indices = support(w)
    if not indices or min(indices).bit_length() == n + 1 == max(indices).bit_length():
        return
    bad = next(i for i in map(abs, w.letters) if i.bit_length() != n + 1)
    raise ValueError(
        f"generator x{bad} is not valid at level {n} "
        f"(it is a level-{bad.bit_length() - 1} generator)"
    )


def _images(letters: tuple[int, ...], levels: int) -> list[dict[int, tuple[int, ...]]]:
    """The one-level images met on the way down ``levels`` levels from
    ``letters``: one dict per level, top first, from each signed generator
    reached at that level to its image, x_i -> (2i, 2i+1, -2i, -2i-1) and
    x_i^-1 -> (2i+1, 2i, -2i-1, -2i)."""
    layers: list[dict[int, tuple[int, ...]]] = []
    reached = set(letters)
    for _ in range(levels):
        if layers:  # the letters of the images one level up
            reached = set(chain.from_iterable(layers[-1].values()))
        layer = {}
        for l in reached:
            j = 2 * abs(l)
            layer[l] = (j, j + 1, -j, -j - 1) if l > 0 else (j + 1, j, -j - 1, -j)
        layers.append(layer)
    return layers


def _expand(letters: tuple[int, ...], levels: int = 1) -> tuple[int, ...]:
    """Letters of phi applied ``levels`` >= 1 times, by blocks: a letter's
    depth-1 block is its image, and its depth-k block the tuple join of the
    depth-(k-1) blocks of the four letters of its image, built bottom-up
    over the :func:`_images` the expansion reaches.  The word is then read
    once through the table of its letters' 4^levels-letter blocks.

    No expansion holds a letter equal to its successor.  Every block starts
    with a positive letter and ends with a negative one: an image does, and
    a join starts with its first sub-block and ends with its last.  Inside
    an image no two neighbours are equal (j, j + 1, -j, -j - 1 and their
    swaps), and at every join of two blocks a negative letter meets a
    positive one."""
    layers = _images(letters, levels)
    blocks = layers.pop()  # the depth-1 blocks are the images
    while layers:
        blocks = {
            l: blocks[a] + blocks[b] + blocks[c] + blocks[d]
            for l, (a, b, c, d) in layers.pop().items()
        }
    if len(letters) == 1:  # the word is its one letter's block
        return blocks[letters[0]]
    out: list[int] = []
    for l in letters:
        out += blocks[l]
    return tuple(out)


def _decode_heads(letters: tuple[int, ...], levels: int) -> tuple[int, tuple[int, ...]]:
    """(k, c): the 4-letter block heads of ``letters`` read down k <=
    ``levels`` times, c being the only word whose k-fold :func:`_expand`
    can be ``letters``.  A head a names x_(a/2) when even, x_((a-1)/2)^-1
    when odd and no letter when a < 2; reading stops there, or at a length
    that is not a multiple of 4."""
    k = 0
    while k < levels and len(letters) % 4 == 0:
        heads = letters[0::4]
        decode = {a: a >> 1 if a % 2 == 0 else -(a >> 1) for a in set(heads)}
        if min(decode, default=2) < 2:
            break
        letters = tuple(map(decode.__getitem__, heads))
        k += 1
    return k, letters


def _preimage_letters(letters: tuple[int, ...]) -> tuple[int, ...] | None:
    """The letters whose :func:`_expand` is ``letters``, or None.  A match
    is freely reduced whenever ``letters`` is, because x_i x_i^-1 expands
    to blocks that cancel at their join."""
    k, pre = _decode_heads(letters, 1)
    return pre if k and _expand(pre) == letters else None


def phi(n: int, w: Word, max_length: int | None = None) -> Word:
    """Letter-wise substitution x_i -> [x_{2i}, x_{2i+1}], reduced.

    The image of a reduced word is already reduced (blocks never cancel at
    their boundaries), so the length is exactly 4*len(w).
    """
    return promote(TowerElement(n, w), n + 1, max_length).word


def phi_preimage(n: int, u: Word) -> Word | None:
    """The unique w with phi(n, w) = u, or None when u is outside the image.

    phi(n, w) is the concatenation of the 4-letter blocks of w's letters,
    and no block cancels against its neighbour, so u is an image exactly
    when it splits into blocks (2i, 2i+1, -2i, -2i-1), read as x_i, and
    (2i+1, 2i, -2i-1, -2i), read as x_i^-1.
    """
    validate_level_word(n + 1, u)
    pre = _preimage_letters(u.letters)
    # a preimage holding x_i x_i^-1 would expand to a cancelling join of u
    return None if pre is None else _reduced(pre)


def root_transfer(n: int, w: Word, k: int) -> Word | None:
    """v with v^k = w and phi(n, v) = kth_root(phi(n, w), k), when the image
    has a k-th root; None otherwise.  Root existence for w and its image
    always coincide."""
    if k == 0:
        raise ValueError("k must be nonzero")
    image_root = kth_root(phi(n, w), k)
    if image_root is None:
        return None
    v = kth_root(w, k)
    if v is None or _expand(v.letters) != image_root.letters:
        raise AssertionError("tower: the k-th root of w does not map onto the image's root")
    return v


@dataclass(frozen=True)
class TowerElement:
    """Element of the colimit group as a (level, word) pair.

    The word is valid at the level: construction runs
    :func:`validate_level_word` once, so no element holds another word.
    Canonical values (as produced by :func:`normalize`) use the lowest level
    at which the element exists, so dataclass equality coincides with
    equality in the colimit group.
    """

    level: int
    word: Word

    def __post_init__(self) -> None:
        validate_level_word(self.level, self.word)


def _element(level: int, w: Word) -> TowerElement:
    """An element whose word is known to be valid; each caller says why."""
    e = object.__new__(TowerElement)
    object.__setattr__(e, "level", level)
    object.__setattr__(e, "word", w)
    return e


def normalize(level: int, w: Word) -> TowerElement:
    """Minimal-level representative: strip phi-preimages until none exists.

    The word is stripped first, then checked once: an exact k-fold image
    is valid at level n exactly when its preimage is valid at level n - k,
    because each level adds one bit to every index.  Only a failed check
    reads the input again, to name its first offender at the input level.
    The identity lives at level 0.
    """
    e = _strip(level, w)
    try:
        validate_level_word(e.level if w else level, e.word)
    except ValueError:
        validate_level_word(level, w)
        raise
    return e


def _strip(level: int, w: Word) -> TowerElement:
    """:func:`normalize` without the check.  The block heads are read down
    as far as they go, and one expansion of the lowest candidate checks
    them all; heads that read further down than the word strips fall back
    to peeling one level at a time."""
    if not w:
        return _element(0, w)
    letters = w.letters
    k, pre = _decode_heads(letters, level)
    if k and _expand(pre, k) != letters:
        depth, k, pre = k, 0, letters  # w is not a depth-fold image
        while k + 1 < depth and (down := _preimage_letters(pre)) is not None:
            k, pre = k + 1, down
    # reduced as in phi_preimage; valid k levels down when w is valid at level
    return _element(level - k, _reduced(pre) if k else w)


def _check_promotion(level: int, length: int, target: int, max_length: int | None) -> None:
    """Refuse a ``target`` below ``level``, and a promotion of a
    ``length``-letter word to ``target`` that gives more than
    ``max_length`` letters, the identity counting as one.  Each level
    multiplies the length by 4, so 4^k * m is compared by bit length first
    and a huge k costs nothing."""
    k, m = target - level, max(length, 1)
    if k < 0:
        raise ValueError(f"target level {target} is below current level {level}")
    if max_length is not None and (2 * k > max_length.bit_length() or m << 2 * k > max_length):
        raise LengthLimitError(
            f"promotion from level {level} to {target} would give 4^{k}*{m} letters "
            f"(limit {max_length})"
        )


def promote(e: TowerElement, target: int, max_length: int | None = None) -> TowerElement:
    """Apply phi repeatedly; same colimit element, higher-level word.

    The result is generally not in canonical form (that is the point).
    ``max_length`` is checked once, before the levels are expanded in one pass.
    """
    _check_promotion(e.level, len(e.word), target, max_length)
    if target == e.level:
        return e
    # by parity a block's last letter cancels the next block's head only in
    # x_i x_i^-1 or x_i^-1 x_i, which a reduced word does not hold, so each
    # phi image of a reduced word is reduced, and x_2i, x_2i+1 are one level up
    return _element(target, _reduced(_expand(e.word.letters, target - e.level)))


def h_identity() -> TowerElement:
    return TowerElement(0, IDENTITY)


def h_inverse(e: TowerElement) -> TowerElement:
    return _element(e.level, invert(e.word))  # the same indices


def h_multiply(a: TowerElement, b: TowerElement) -> TowerElement:
    """Colimit group law: promote to a common level, multiply, normalize."""
    level = max(a.level, b.level)
    wa = promote(a, level).word
    wb = promote(b, level).word
    return _strip(level, multiply(wa, wb))  # written in level-`level` letters


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
    """Decide whether ``e`` has a p-th root in the colimit group.

    Theorem mode checks the element's own level alone; cross-check mode
    checks every level up to ``max_level``.  ``max_length`` bounds the
    promotions; it is checked once, for the last level, before any level
    is built.
    """
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    if max_level < e.level:
        raise ValueError("max_level must be at least the element's level")
    levels = range(e.level, (max_level if cross_check else e.level) + 1)
    _check_promotion(e.level, len(e.word), levels[-1], max_length)
    witness, found_levels = None, []
    for level in levels:
        root = kth_root(promote(e, level).word, p)
        if root is not None:
            found_levels.append(level)
            if witness is None:
                witness = _strip(level, root)  # written in level-`level` letters
    # a root at any level is a root at every higher level
    if found_levels != list(levels[len(levels) - len(found_levels) :]):
        raise AssertionError("tower: a p-th root found at one level is missing at a higher one")
    status = NO_ROOT_PROVEN if witness is None else ROOT_FOUND
    mode = "cross-check" if cross_check else "theorem"
    return RootCertificate(status, p, mode, e.level, tuple(levels), witness)


def centralizer_compat(n: int, w: Word, max_length: int | None = None) -> bool:
    """True iff phi maps the centralizer generator of ``w`` onto a generator
    of the centralizer of phi(w).  Both sides are computed independently via
    primitive roots; the contract is that this always holds.  ``max_length``
    bounds phi(w) as in :func:`promote`, and is checked first."""
    _check_promotion(n, len(w), n + 1, max_length)
    if not w:
        raise IdentityWordError("centralizer compatibility needs a nontrivial word")
    c_image = centralizer_generator(phi(n, w))
    mapped = _expand(centralizer_generator(w).letters)
    return mapped == c_image.letters or mapped == invert(c_image).letters
