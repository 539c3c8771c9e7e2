"""Root extraction and centralizers in free groups.

Every nontrivial element of a free group is a power of a unique primitive
element, which also generates its (infinite cyclic) centralizer.  The
primality test for the p in p-th roots lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    IdentityWordError,
    Word,
    cyclic_reduce,
    invert,
    multiply,
    power,
)


@dataclass(frozen=True)
class RootDecomposition:
    """``power(root, exponent)`` equals the decomposed word and ``root`` is
    not itself a proper power."""

    root: Word
    exponent: int


def primitive_root(w: Word) -> RootDecomposition:
    """Unique primitive v and maximal k >= 1 with w = v^k.

    Cyclically reduces ``w = r u r^-1``, finds the smallest period of the
    core ``u`` by scanning divisors of its length, and conjugates back.
    """
    if not w:
        raise IdentityWordError("identity word has no primitive root")
    conj, core = cyclic_reduce(w)
    n = len(core)
    for d in range(1, n + 1):
        if n % d:
            continue
        if core.letters[:d] * (n // d) == core.letters:
            seed = Word(core.letters[:d])
            root = multiply(multiply(conj, seed), invert(conj))
            return RootDecomposition(root, n // d)
    raise AssertionError("unreachable: d == n always matches")


def kth_root(w: Word, k: int) -> Word | None:
    """The unique v with v^k = w, or None when no such v exists."""
    if k == 0:
        raise ValueError("k must be nonzero")
    if not w:
        return Word()
    if k < 0:
        v = kth_root(w, -k)
        return invert(v) if v is not None else None
    dec = primitive_root(w)
    if dec.exponent % k:
        return None
    return power(dec.root, dec.exponent // k)


def centralizer_generator(w: Word) -> Word:
    """Generator of the centralizer of ``w``: its primitive root.

    A word commutes with ``w`` iff it is a power of the returned word.
    """
    if not w:
        raise IdentityWordError("centralizer of the identity is not cyclic")
    return primitive_root(w).root


def commutes(a: Word, b: Word) -> bool:
    return multiply(a, b) == multiply(b, a)


_SMALL_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
# Miller-Rabin with the bases _SMALL_PRIMES is exact below this bound
# (Sorenson-Webster, "Strong pseudoprimes to twelve prime bases", 2017).
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic primality test, exact for p < MILLER_RABIN_BOUND.

    Trial division by the first 13 primes decides every p < 43^2; larger p
    go through strong-probable-prime tests to those same 13 bases, which no
    composite below the bound passes.  Larger p that trial division does
    not settle are refused with a ValueError naming the bound.
    """
    if p in _SMALL_PRIMES:
        return True
    if p < 2:
        return False
    for q in _SMALL_PRIMES:
        if p % q == 0:
            return False
    if p < 43 * 43:
        return True
    if p >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"primality is only decided below {MILLER_RABIN_BOUND} "
            "(deterministic Miller-Rabin bound)"
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        y = pow(a, d, p)
        if y == 1 or y == p - 1:
            continue
        for _ in range(s - 1):
            y = y * y % p
            if y == p - 1:
                break
        else:
            return False
    return True
