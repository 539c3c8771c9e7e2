"""Root extraction and centralizers in free groups.

Every nontrivial element of a free group is a power of a unique primitive
element, which also generates its (infinite cyclic) centralizer.  The
primality test for the p in p-th roots lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg

from .words import (
    IdentityWordError,
    Word,
    _conjugator_length,
    multiply,
)


@dataclass(frozen=True)
class RootDecomposition:
    """``power(root, exponent)`` equals the decomposed word and ``root`` is
    not itself a proper power."""

    root: Word
    exponent: int


def _prime_divisors(n: int):
    """The distinct primes dividing n >= 1, by trial division up to sqrt(n)."""
    q = 2
    while q * q <= n:
        if n % q == 0:
            yield q
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        yield n


def _root_split(letters: tuple[int, ...]) -> tuple[int, tuple[int, ...], int]:
    """(i, core, d) for nonempty reduced ``letters = c u c^-1``, |c| = i,
    core u: d is the least period of u that divides n = |u|.

    The periods of u that divide n are exactly the multiples of d that
    divide n: two such periods p, p' satisfy p + p' - gcd(p, p') <= n, so
    gcd(p, p') is a period too (Fine and Wilf, Proc. AMS 16, 1965).  Hence
    starting from p = n and dividing p by each prime q of n for as long as
    p / q is still a period leaves exactly d, after O(sqrt n) trial
    divisions and O(log n) slice comparisons.
    """
    i = _conjugator_length(letters)
    core = letters[i : len(letters) - i]
    n = p = len(core)
    for q in _prime_divisors(n):
        while p % q == 0 and core[p // q :] == core[: n - p // q]:
            p //= q
    return i, core, p


def primitive_root(w: Word) -> RootDecomposition:
    """Unique primitive v and maximal k >= 1 with w = v^k.

    With ``w = c u c^-1`` and u cyclically reduced, v is ``c u[:d] c^-1``
    for the least period d of u that divides |u|, and k = |u| / d.
    """
    if not w:
        raise IdentityWordError("identity word has no primitive root")
    letters = w.letters
    i, core, d = _root_split(letters)
    root = Word(letters[:i] + core[:d] + letters[len(letters) - i :])
    return RootDecomposition(root, len(core) // d)


def kth_root(w: Word, k: int) -> Word | None:
    """The unique v with v^k = w, or None when no such v exists.

    v^-k = w exactly when v^k = w^-1, so a negative k inverts w first.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    if not w:
        return Word()
    letters = w.letters
    if k < 0:
        letters, k = tuple(map(neg, reversed(letters))), -k
    i, core, d = _root_split(letters)
    exponent = len(core) // d
    if exponent % k:
        return None
    return Word(letters[:i] + core[:d] * (exponent // k) + letters[len(letters) - i :])


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
