"""Finite-depth p-root adjunction and its Prüfer-group quotient.

Adjoining a p^d-th root t to a primitive element x of a free group F gives
the amalgamated product F *_<x> <t> with x = t^(p^d).  Elements carry a
unique normal form: an alternating sequence of coset-representative
syllables followed by a power of x.  Killing the base and sending t to
1/p^d defines a surjection onto the p^d-torsion of the Prüfer group, the
finite-stage shadow of the non-perfectness of the localized tower group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .roots import is_prime, kth_root, primitive_root
from .tower import TowerElement, promote
from .words import (
    IdentityWordError,
    Word,
    cyclic_reduce,
    format_word,
    invert,
    multiply,
    power,
    validate_rank,
)


# ---------------------------------------------------------------------------
# Prüfer group arithmetic


@dataclass(frozen=True)
class PruferElement:
    """a / p^k mod 1 in canonical form: 0 <= a < p^k and p does not divide a
    (a = 0 forces k = 0).  The element has order p^k."""

    prime: int
    numerator: int
    exponent: int

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.exponent < 0 or self.numerator < 0:
            raise ValueError("numerator and exponent must be nonnegative")
        if self.numerator == 0:
            if self.exponent != 0:
                raise ValueError("zero must have exponent 0")
        else:
            if self.numerator >= self.prime**self.exponent:
                raise ValueError("numerator out of range")
            if self.numerator % self.prime == 0:
                raise ValueError("numerator must be a p-unit")

    @property
    def order(self) -> int:
        return self.prime**self.exponent

    def is_zero(self) -> bool:
        return self.numerator == 0

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return f"{self.numerator}/{self.prime**self.exponent}"


def prufer(p: int, numerator: int, exponent: int) -> PruferElement:
    """Canonicalize numerator/p^exponent mod 1."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    a = numerator % (p**exponent) if exponent else 0
    while a and a % p == 0:
        a //= p
        exponent -= 1
    if a == 0:
        exponent = 0
    return PruferElement(p, a, exponent)


def prufer_zero(p: int) -> PruferElement:
    return PruferElement(p, 0, 0)


def prufer_add(a: PruferElement, b: PruferElement) -> PruferElement:
    if a.prime != b.prime:
        raise ValueError("mismatched primes")
    p = a.prime
    k = max(a.exponent, b.exponent)
    num = a.numerator * p ** (k - a.exponent) + b.numerator * p ** (k - b.exponent)
    return prufer(p, num, k)


def prufer_neg(a: PruferElement) -> PruferElement:
    return prufer(a.prime, -a.numerator, a.exponent)


def prufer_scale(a: PruferElement, n: int) -> PruferElement:
    return prufer(a.prime, a.numerator * n, a.exponent)


def parse_prufer(p: int, text: str) -> PruferElement:
    """Parse ``a/p^k`` written as ``a/m`` with m a power of p, or ``0``."""
    text = text.strip()
    if text == "0":
        return prufer_zero(p)
    if "/" not in text:
        raise ValueError(f"expected 'a/m' or '0', got {text!r}")
    num_text, den_text = text.split("/", 1)
    numerator = int(num_text)
    denominator = int(den_text)
    exponent = 0
    while denominator > 1 and denominator % p == 0:
        denominator //= p
        exponent += 1
    if denominator != 1:
        raise ValueError(f"denominator must be a power of {p}")
    return prufer(p, numerator, exponent)


# ---------------------------------------------------------------------------
# the adjunction group and its normal form


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
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if primitive_root(self.root_of).exponent != 1:
            raise ValueError("root_of must be primitive; use adjoin_root to rebase")

    @property
    def relation_exponent(self) -> int:
        return self.prime**self.depth


def adjoin_root(base_rank: int, x: Word, p: int, d: int) -> AdjunctionGroup:
    """Build the adjunction, rebasing a proper power onto its primitive root.

    The amalgamated subgroup must be the full centralizer of x for the
    normal form to be well defined, so v^k is rebased to v with a warning.
    """
    if not x:
        raise IdentityWordError("cannot adjoin a root to the identity")
    dec = primitive_root(x)
    if dec.exponent != 1:
        warnings.warn(
            f"root_of {format_word(x)} is a proper power; rebasing onto its "
            f"primitive root {format_word(dec.root)}",
            stacklevel=2,
        )
        x = dec.root
    return AdjunctionGroup(base_rank, x, p, d)


@dataclass(frozen=True)
class TPower:
    """A syllable t^exponent of the adjoined root generator."""

    exponent: int


Syllable = Union[Word, TPower]


@dataclass(frozen=True)
class AmalgamElement:
    """Normal form: alternating coset-representative syllables (base words
    and t-powers with 0 < j < p^depth), then a trailing power of root_of.
    Two elements are equal iff their normal forms are identical."""

    group: AdjunctionGroup
    syllables: tuple[Syllable, ...]
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

    def to_expression(self) -> tuple[Syllable, ...]:
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


def _power_of(x: Word, a: Word) -> int | None:
    """Exponent e with x^e = a, or None.  Assumes x primitive."""
    if not a:
        return 0
    dec = primitive_root(a)
    if dec.root == x:
        return dec.exponent
    if dec.root == invert(x):
        return -dec.exponent
    return None


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
    read off one product w x^(+-K) with K|u| > |w|, which cancels all C
    letters.  The cost is O(|w| + |x|).
    """
    conj, core = cyclic_reduce(x)
    reach = len(w) // len(core) + 2
    candidates = {0}
    for s in (1, -1):
        far = power(x, s * reach)
        cancelled = (len(w) + len(far) - len(multiply(w, far))) // 2
        k0 = max(0, (cancelled - len(conj)) // len(core))
        candidates.update((s * k0, s * (k0 + 1)))
    reps = {k: multiply(w, power(x, k)) for k in candidates}
    best = min(candidates, key=lambda k: (len(reps[k]), reps[k].letters))
    return reps[best], -best


def amalgam_identity(group: AdjunctionGroup) -> AmalgamElement:
    return AmalgamElement(group, (), 0)


def amalgam_normalize(
    group: AdjunctionGroup, expression: Sequence[Syllable]
) -> AmalgamElement:
    """Normal form of a product of base words and t-powers.

    Deterministic; t^(p^depth) is absorbed into the base via the defining
    relation and trivial syllables vanish.
    """
    x = group.root_of
    q = group.relation_exponent
    syllables: list[Syllable] = []
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
            e = _power_of(x, a)
            if e is not None:
                tail = e
            else:
                rep, e = _coset_rep(x, a)
                syllables.append(rep)
                tail = e
        else:
            raise TypeError(f"expression items must be Word or TPower, got {item!r}")
    return AmalgamElement(group, tuple(syllables), tail)


def amalgam_multiply(a: AmalgamElement, b: AmalgamElement) -> AmalgamElement:
    if a.group != b.group:
        raise ValueError("elements of different adjunction groups")
    return amalgam_normalize(a.group, a.to_expression() + b.to_expression())


def amalgam_invert(e: AmalgamElement) -> AmalgamElement:
    items: list[Syllable] = []
    for s in reversed(e.to_expression()):
        items.append(TPower(-s.exponent) if isinstance(s, TPower) else invert(s))
    return amalgam_normalize(e.group, tuple(items))


# ---------------------------------------------------------------------------
# the quotient onto p-power torsion


def prufer_quotient_map(g: AdjunctionGroup, e: AmalgamElement) -> PruferElement:
    """Homomorphism killing the base and sending t to 1/p^depth.

    Well defined because t^(p^depth) = x maps to p^depth * 1/p^depth = 0,
    matching the image of x; surjective onto the p^depth-torsion subgroup.
    """
    if e.group != g:
        raise ValueError("element does not belong to the given group")
    value = prufer_zero(g.prime)
    for s in e.syllables:
        if isinstance(s, TPower):
            value = prufer_add(value, prufer(g.prime, s.exponent, g.depth))
    return value


@dataclass(frozen=True)
class ExtendedMap:
    """Generator images of a homomorphism to the Prüfer group, extended over
    one root-adjunction stage."""

    group: AdjunctionGroup
    base_images: tuple[PruferElement, ...]
    t_image: PruferElement

    def evaluate_base(self, w: Word) -> PruferElement:
        value = prufer_zero(self.group.prime)
        for letter in w.letters:
            img = self.base_images[abs(letter) - 1]
            value = prufer_add(value, img if letter > 0 else prufer_neg(img))
        return value


def extend_map(
    g: AdjunctionGroup,
    prior_images: Mapping[int, PruferElement],
    relators: Sequence[Word] = (),
) -> ExtendedMap:
    """Extend a base homomorphism over the adjunction stage.

    The image of x generates a cyclic subgroup of order p^k; t is assigned
    the canonical value of order p^(k+depth) whose p^depth-th multiple is
    the image of x.
    """
    images = []
    for i in range(1, g.base_rank + 1):
        img = prior_images.get(i, prufer_zero(g.prime))
        if img.prime != g.prime:
            raise ValueError("mismatched primes in prior images")
        images.append(img)
    partial = ExtendedMap(g, tuple(images), prufer_zero(g.prime))
    for r in relators:
        if not partial.evaluate_base(r).is_zero():
            raise ValueError(
                f"prior images are inconsistent: relator {format_word(r)} "
                "has nonzero image"
            )
    x_image = partial.evaluate_base(g.root_of)
    k = x_image.exponent
    numerator = x_image.numerator if not x_image.is_zero() else 1
    t_image = prufer(g.prime, numerator, k + g.depth)
    assert prufer_scale(t_image, g.relation_exponent) == x_image
    return ExtendedMap(g, tuple(images), t_image)


# ---------------------------------------------------------------------------
# the end-to-end non-perfectness witness


@dataclass(frozen=True)
class NonPerfectReport:
    """Desk-scale witness that the localized tower group has a nontrivial
    abelian quotient: the adjunction stage surjects onto Z/p^depth."""

    level: int
    prime: int
    depth: int
    base_rank: int
    distinguished: Word
    rootless: bool
    relator_name: str
    relator_image: PruferElement
    t_image: PruferElement
    quotient_order: int

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "prime": self.prime,
            "depth": self.depth,
            "base_rank": self.base_rank,
            "distinguished": format_word(self.distinguished),
            "rootless": self.rootless,
            "relator": self.relator_name,
            "relator_image": str(self.relator_image),
            "t_image": str(self.t_image),
            "t_order": self.t_image.order,
            "quotient": f"Z/{self.quotient_order}",
        }

    def render_text(self) -> str:
        q = self.quotient_order
        lines = [
            f"level={self.level} prime={self.prime} depth={self.depth} "
            f"base-rank={self.base_rank}",
            f"distinguished={format_word(self.distinguished)}",
            f"rootless={'true' if self.rootless else 'false'} "
            f"(no {self.prime}-root in the level-{self.level} free group)",
            f"relator {self.relator_name} -> {self.relator_image}",
            f"t -> {self.t_image} (order {self.t_image.order})",
            f"quotient=Z/{q} surjection onto the {q}-torsion verified",
        ]
        return "\n".join(lines)


def _relabel_to_base(w: Word, level: int) -> Word:
    offset = 2**level - 1
    return Word(
        tuple((abs(l) - offset) * (1 if l > 0 else -1) for l in w.letters)
    )


def witness_nonperfect(n: int, p: int, d: int) -> NonPerfectReport:
    """Adjoin a depth-d p-root to the rootless distinguished element of the
    level-n tower truncation and verify the surjection onto Z/p^d."""
    if d < 1:
        raise ValueError("depth must be >= 1")
    if n < 0:
        raise ValueError("level must be nonnegative")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    base_rank = 2**n
    top = promote(TowerElement(0, Word((1,))), n)
    distinguished = _relabel_to_base(top.word, n)
    rootless = kth_root(distinguished, p) is None
    if not rootless:
        raise AssertionError("distinguished element unexpectedly has a p-root")
    group = adjoin_root(base_rank, distinguished, p, d)
    # the defining relator t^(p^d) * x^-1 must die in the Prüfer quotient
    relator = amalgam_normalize(
        group, (TPower(group.relation_exponent), invert(distinguished))
    )
    if not relator.is_identity():
        raise AssertionError("defining relation fails in the amalgam")
    t_image = prufer(p, 1, d)
    relator_image = prufer_quotient_map(group, relator)
    if not relator_image.is_zero():
        raise AssertionError("defining relator has nonzero Prüfer image")
    # t attains 1/p^d, an element of exact order p^d
    attained = prufer_quotient_map(group, amalgam_normalize(group, (TPower(1),)))
    assert attained == t_image and attained.order == p**d
    return NonPerfectReport(
        level=n,
        prime=p,
        depth=d,
        base_rank=base_rank,
        distinguished=distinguished,
        rootless=rootless,
        relator_name=f"t^{group.relation_exponent}*x^-1",
        relator_image=relator_image,
        t_image=t_image,
        quotient_order=p**d,
    )
