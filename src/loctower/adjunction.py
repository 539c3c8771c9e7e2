"""Finite-depth p-root adjunction and its Prüfer-group quotient.

Adjoining a p^d-th root t to a primitive element x of a free group F gives
the amalgamated product F *_<x> <t> with x = t^(p^d).  Elements carry a
unique normal form: an alternating sequence of coset-representative
syllables followed by a power of x.  Killing the base and sending t to
1/p^d defines a surjection onto the p^d-torsion of the Prüfer group, the
finite-stage shadow of the non-perfectness of the localized tower group.

The Prüfer group Z(p^infinity) = Z[1/p]/Z is a set of rationals mod 1, so
its elements are ``Fraction``s in [0, 1), in lowest terms; the order of
an element is its denominator, a power of p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .roots import is_prime, primitive_root
from .tower import _check_promotion, _images
from .words import (
    IdentityWordError,
    Word,
    WordSyntaxError,
    _cancellation,
    _check_length,
    _conjugator_length,
    _integer,
    _reduced,
    format_word,
    invert,
    multiply,
    power,
    validate_rank,
)


# ---------------------------------------------------------------------------
# the adjunction group and its normal form


# p^depth is refused above this many bits, before it is computed; its
# decimal form, which reports print, then has at most 1,234 digits.
MAX_RELATION_BITS = 4096


def _check_relation(p: int, d: int) -> None:
    """Refuse a non-prime p, a depth d < 1 and p^d above MAX_RELATION_BITS
    bits; p^d has more than d * (bitlen(p) - 1) bits, so huge depths never
    reach the power."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("depth must be >= 1")
    if d * (p.bit_length() - 1) >= MAX_RELATION_BITS or (p**d).bit_length() > MAX_RELATION_BITS:
        raise ValueError(
            f"relation exponent {p}^{d} has more than {MAX_RELATION_BITS} bits "
            "(adjunction.MAX_RELATION_BITS)"
        )


@dataclass(frozen=True)
class AdjunctionGroup:
    """<F_base_rank, t | t^(p^depth) = root_of> with root_of primitive."""

    base_rank: int
    root_of: Word
    prime: int
    depth: int

    def __post_init__(self) -> None:
        if not self.root_of:
            raise IdentityWordError("cannot adjoin a root to the identity")
        validate_rank(self.root_of, self.base_rank)
        _check_relation(self.prime, self.depth)
        if primitive_root(self.root_of).exponent != 1:
            raise ValueError("root_of must be primitive; use adjoin_root to rebase")

    @property
    def relation_exponent(self) -> int:
        return self.prime**self.depth


def adjoin_root(base_rank: int, x: Word, p: int, d: int) -> AdjunctionGroup:
    """Build the adjunction, rebasing a proper power onto its primitive root.

    The amalgamated subgroup must be the full centralizer of x for the
    normal form to be well defined, so v^k is rebased to v; the rebase
    shows as a group whose root_of differs from x.
    """
    if x:  # a rank refusal names x, not the root it is rebased onto
        validate_rank(x, base_rank)
    return AdjunctionGroup(base_rank, primitive_root(x).root if x else x, p, d)


@dataclass(frozen=True)
class TPower:
    """A syllable t^exponent of the adjoined root generator."""

    exponent: int


@dataclass(frozen=True)
class AmalgamElement:
    """Normal form: alternating coset-representative syllables (base words
    and t-powers with 0 < j < p^depth), then a trailing power of root_of.
    Two elements are equal iff their normal forms are identical."""

    group: AdjunctionGroup
    syllables: tuple[Word | TPower, ...]
    tail: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "syllables", tuple(self.syllables))
        q = self.group.relation_exponent
        previous_is_t = None
        for s in self.syllables:
            if isinstance(s, TPower):
                if not 0 < s.exponent < q:
                    raise ValueError("t-syllable exponent out of range")
                if previous_is_t is True:
                    raise ValueError("syllables must alternate")
                previous_is_t = True
            else:
                if not s:
                    raise ValueError("trivial base syllable")
                if previous_is_t is False:
                    raise ValueError("syllables must alternate")
                previous_is_t = False

    def is_identity(self) -> bool:
        return not self.syllables and self.tail == 0

    def to_expression(self) -> tuple[Word | TPower, ...]:
        items = list(self.syllables)
        if self.tail:
            items.append(power(self.group.root_of, self.tail))
        return tuple(items)

    def __str__(self) -> str:
        parts = []
        for s in self.to_expression():
            if isinstance(s, TPower):
                parts.append("t" if s.exponent == 1 else f"t^{s.exponent}")
            else:
                parts.append(format_word(s))
        return "*".join(parts) if parts else "1"


def _coset_rep(x: Word, w: Word) -> tuple[Word, int]:
    """Canonical representative of the left coset w<x>, for nontrivial x.

    Returns (rep, e) with w = rep * x^e; the representative is the minimal
    element of the coset under (length, letters) order, which makes it
    unique per coset.

    Write x = c u c^-1 with u cyclically reduced, and let C be the number of
    letters w cancels against c u u u ... (for k > 0; against c u^-1 u^-1 ...
    for k < 0).  Then |w x^k| = |w| - k|u| while |c| + k|u| < C, and
    |w| + 2|c| + k|u| - 2C once |c| + k|u| > C: in k > 0 the length falls
    strictly, then rises strictly.  So with k0 = max(0, (C - |c|) // |u|)
    every shortest w x^k with k > 0 has k in {k0, k0 + 1}, and the minimum
    over all k is among the at most 5 candidates 0, +-k0, +-(k0 + 1).  C is
    counted against one power x^(+-K) with K|u| > |w|, which cancels all C
    letters.  The cost is O(|w| + |x|).  For w = x^e the candidate -e gives
    the empty representative, so (IDENTITY, e) says that w is a power of x.
    """
    c = _conjugator_length(x.letters)
    u = len(x) - 2 * c
    reach = len(w) // u + 2
    candidates = {0}
    for s in (1, -1):
        cancelled = _cancellation(w.letters, power(x, s * reach).letters)
        k0 = max(0, (cancelled - c) // u)
        candidates.update((s * k0, s * (k0 + 1)))
    reps = {k: multiply(w, power(x, k)) for k in candidates}
    best = min(candidates, key=lambda k: (len(reps[k]), reps[k].letters))
    return reps[best], -best


def amalgam_identity(group: AdjunctionGroup) -> AmalgamElement:
    return AmalgamElement(group, (), 0)


def amalgam_normalize(
    group: AdjunctionGroup, expression: Sequence[Word | TPower], max_length: int | None = None
) -> AmalgamElement:
    """Normal form of a product of base words and t-powers.

    Deterministic; t^(p^depth) is absorbed into the base via the defining
    relation and trivial syllables vanish.  Each normal form met on the
    way, the result too, and each power of x built on the way has at most
    B letters, B = sum(|w| + 2|x|) over base words w plus
    |x| * sum(|e| // p^d + 1) over t-powers t^e: t^e moves at most
    |e| // p^d + 1 powers of x into the tail, splitting a syllable into a
    coset representative and a power of x adds at most |x|, and the coset
    search builds powers of x at most 2|x| past the syllable.  A B above
    ``max_length`` is refused before anything is built.
    """
    x = group.root_of
    q = group.relation_exponent
    if max_length is not None:
        bases = [len(i) + 2 * len(x) for i in expression if isinstance(i, Word)]
        shifts = [abs(i.exponent) // q + 1 for i in expression if isinstance(i, TPower)]
        _check_length("normal form bound", sum(bases) + len(x) * sum(shifts), max_length)
    syllables: list[Word | TPower] = []
    tail = 0

    for item in expression:
        if isinstance(item, TPower):
            total = q * tail + item.exponent
            if syllables and isinstance(syllables[-1], TPower):
                total += syllables.pop().exponent
            j = total % q
            if j:
                syllables.append(TPower(j))
            tail = (total - j) // q
        elif isinstance(item, Word):
            if item:
                validate_rank(item, group.base_rank)
            a = multiply(power(x, tail), item)
            if syllables and isinstance(syllables[-1], Word):
                a = multiply(syllables.pop(), a)
            rep, tail = _coset_rep(x, a)
            if rep:
                syllables.append(rep)
        else:
            raise TypeError(f"expression items must be Word or TPower, got {item!r}")
    return AmalgamElement(group, tuple(syllables), tail)


def amalgam_multiply(a: AmalgamElement, b: AmalgamElement) -> AmalgamElement:
    if a.group != b.group:
        raise ValueError("elements of different adjunction groups")
    return amalgam_normalize(a.group, a.to_expression() + b.to_expression())


def amalgam_invert(e: AmalgamElement) -> AmalgamElement:
    items: list[Word | TPower] = []
    for s in reversed(e.to_expression()):
        items.append(TPower(-s.exponent) if isinstance(s, TPower) else invert(s))
    return amalgam_normalize(e.group, tuple(items))


# ---------------------------------------------------------------------------
# the quotient onto p-power torsion


def prufer_quotient_map(g: AdjunctionGroup, e: AmalgamElement) -> Fraction:
    """Homomorphism killing the base and sending t to 1/p^depth mod 1.

    Well defined because t^(p^depth) = x maps to p^depth * 1/p^depth = 0,
    matching the image of x; surjective onto the p^depth-torsion subgroup.
    """
    if e.group != g:
        raise ValueError("element does not belong to the given group")
    t_total = sum(s.exponent for s in e.syllables if isinstance(s, TPower))
    return Fraction(t_total, g.relation_exponent) % 1


def parse_prufer(p: int, text: str) -> Fraction:
    """Parse ``a/m`` with m a power of the prime p, or ``0``, as a/m mod 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    text = text.strip()
    if text == "0":
        return Fraction(0)
    slash = text.find("/")
    if slash < 0:
        raise WordSyntaxError("expected 'a/m' or '0'", 1)
    numerator = _integer(text, 0, slash)
    denominator = m = _integer(text, slash + 1)
    while m > 1 and m % p == 0:
        m //= p
    if m != 1:
        raise ValueError(f"denominator must be a power of {p}")
    return Fraction(numerator, denominator) % 1


# ---------------------------------------------------------------------------
# the end-to-end non-perfectness witness


@dataclass(frozen=True)
class NonPerfectReport:
    """Desk-scale witness that the localized tower group has a nontrivial
    abelian quotient: the adjunction stage surjects onto Z/p^depth.

    ``group`` adjoins t to the distinguished word of tower level ``level``;
    building it checks that the word is primitive.  ``relator_image`` and
    ``t_image``, the images of the defining relator and of t in Z(p^infinity),
    are read off the quotient map's definition.  ``distinguished`` is its text.
    """

    level: int
    group: AdjunctionGroup
    relator_image: Fraction
    t_image: Fraction
    distinguished: str

    def to_dict(self) -> dict:
        g = self.group
        return {
            "level": self.level,
            "prime": g.prime,
            "depth": g.depth,
            "base_rank": g.base_rank,
            "distinguished": self.distinguished,
            # AdjunctionGroup refuses a root_of that is a proper power, and
            # in a free group that means it has no p-th root for any p
            "rootless": True,
            "relator": f"t^{g.relation_exponent}*x^-1",
            "relator_image": str(self.relator_image),
            "t_image": str(self.t_image),
            "t_order": self.t_image.denominator,
            "quotient": f"Z/{g.relation_exponent}",
        }


def _distinguished(n: int) -> tuple[tuple[int, ...], str]:
    """The letters of x1 promoted to level n, shifted onto the base labels
    1..2^n, and their text, from one recursion: a level-n letter's block is
    its base label with its name, and a letter's block one level up joins
    the blocks of the four letters of its image, the letters by tuple join
    and the texts by ``*``-join.  The promotion reaches every level-n
    generator.  The text is the one :func:`format_word` gives, with no
    power in it, because no expansion holds a letter equal to its successor
    (see ``tower._expand``)."""
    offset = 2**n - 1
    blocks = {}
    for i in range(2**n, 2 ** (n + 1)):
        a = i - offset
        blocks[i], blocks[-i] = ((a,), f"x{a}"), ((-a,), f"x{a}^-1")
    for layer in reversed(_images((1,), n)):
        joined = {}
        for l, (e, f, g, h) in layer.items():
            (a, s), (b, t), (c, u), (d, v) = blocks[e], blocks[f], blocks[g], blocks[h]
            joined[l] = a + b + c + d, f"{s}*{t}*{u}*{v}"
        blocks = joined
    return blocks[1]


def witness_nonperfect(n: int, p: int, d: int, max_length: int | None = None) -> NonPerfectReport:
    """Adjoin a depth-d p-root to the rootless distinguished element of the
    level-n tower truncation and report the surjection onto Z/p^d.

    The distinguished word, x1 promoted to level n, is written in the base
    labels 1..2^n and built together with its text.  It has 4^n letters;
    ``max_length`` bounds it as in :func:`promote`.  Building the group
    checks that the word is primitive, so it has no p-th root for any p.
    The images come from the definition of :func:`prufer_quotient_map`.
    """
    _check_relation(p, d)
    _check_promotion(0, 1, n, max_length)
    letters, text = _distinguished(n)
    # x1 is reduced, and each expansion keeps a word reduced
    group = AdjunctionGroup(2**n, _reduced(letters), p, d)
    t_image = Fraction(1, group.relation_exponent)
    # t^q * x^-1 maps to q * (1/q) - 0, because x lies in the base
    relator_image = group.relation_exponent * t_image % 1
    return NonPerfectReport(n, group, relator_image, t_image, text)
