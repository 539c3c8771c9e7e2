"""Reference answers for the benchmark, computed without the library.

A letter is a nonzero integer, ``+i`` for the generator ``x_i`` and ``-i``
for its inverse, exactly as in ``loctower.words``.  Everything here works on
plain tuples of letters so that a defect in the library cannot hide itself
by agreeing with its own checker.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def reduce_letters(raw) -> tuple[int, ...]:
    stack: list[int] = []
    for letter in raw:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def inverse(letters) -> tuple[int, ...]:
    return tuple(-l for l in reversed(letters))


def power_letters(letters, k: int) -> tuple[int, ...]:
    base = letters if k >= 0 else inverse(letters)
    return reduce_letters(tuple(base) * abs(k))


def fmt(letters, symbol: str = "x") -> str:
    """The library's text syntax: runs collapse to ``x3^-2``, identity ``1``."""
    if not letters:
        return "1"
    parts = []
    prev, n = letters[0], 0
    for letter in letters:
        if letter == prev:
            n += 1
            continue
        parts.append(f"{symbol}{prev}" if n == 1 and prev > 0 else f"{symbol}{abs(prev)}^{n if prev > 0 else -n}")
        prev, n = letter, 1
    parts.append(f"{symbol}{prev}" if n == 1 and prev > 0 else f"{symbol}{abs(prev)}^{n if prev > 0 else -n}")
    return "*".join(parts)


def parse_flat(text: str, symbol: str) -> tuple[int, ...]:
    """Inverse of :func:`fmt` on its own output (no parentheses)."""
    if text == "1":
        return ()
    out: list[int] = []
    for part in text.split("*"):
        if not part.startswith(symbol):
            raise ValueError(f"bad factor {part!r}")
        base, _, exponent = part[len(symbol) :].partition("^")
        e = int(exponent) if exponent else 1
        out.extend([int(base) if e > 0 else -int(base)] * abs(e))
    return tuple(out)


def substitute(letters, images) -> tuple[int, ...]:
    out: list[int] = []
    for l in letters:
        img = images[abs(l) - 1]
        out.extend(img if l > 0 else inverse(img))
    return reduce_letters(out)


def phi(letters) -> tuple[int, ...]:
    """x_i -> [x_2i, x_2i+1]; the image of a reduced word is reduced."""
    out: list[int] = []
    for l in letters:
        a, b = 2 * abs(l), 2 * abs(l) + 1
        out.extend((a, b, -a, -b) if l > 0 else (b, a, -b, -a))
    return tuple(out)


def promote(letters, steps: int) -> tuple[int, ...]:
    for _ in range(steps):
        letters = phi(letters)
    return tuple(letters)


def phi_preimage(letters):
    """Decode the 4-letter commutator blocks of a phi image, or None."""
    if len(letters) % 4:
        return None
    out = []
    for i in range(0, len(letters), 4):
        a, b, c, d = letters[i : i + 4]
        if a > 0 and a % 2 == 0 and b == a + 1 and c == -a and d == -b:
            out.append(a // 2)
        elif a > 0 and a % 2 == 1 and b == a - 1 and c == -a and d == -b:
            out.append(-(b // 2))
        else:
            return None
    return tuple(out)


def normal_form(level: int, letters) -> tuple[int, tuple[int, ...]]:
    """Minimal-level representative of an element of the tower colimit."""
    letters = tuple(letters)
    while level > 0:
        pre = phi_preimage(letters)
        if pre is None:
            break
        letters, level = pre, level - 1
    return level, letters


def root_exponent(letters) -> int:
    """Largest k with ``letters`` a k-th power (the word must be nontrivial)."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i, j = i + 1, j - 1
    core = letters[i : j + 1]
    n = len(core)
    for d in range(1, n + 1):
        if n % d == 0 and core[:d] * (n // d) == core:
            return n // d
    raise ValueError("identity has no root")


def format_abelian(torsion, free_rank: int) -> str:
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def triangle_answer(l: int, m: int, n: int) -> str:
    """Abelianization of <x, y | x^l = y^m = (xy)^n> from its 2x2 relation
    matrix ((l, -m), (-n, m - n)): d1 = gcd of the entries, d1*d2 = |det|."""
    d1 = gcd(gcd(l, m), n)
    det = l * (m - n) - m * n
    if det:
        diagonal, free_rank = (d1, abs(det) // d1), 0
    else:
        diagonal, free_rank = (d1,), 1
    torsion = tuple(d for d in diagonal if d >= 2)
    finite = Fraction(1, abs(l)) + Fraction(1, abs(m)) + Fraction(1, abs(n)) > 1
    return f"{format_abelian(torsion, free_rank)} finite={'true' if finite else 'false'}"


def prufer_text(p: int, numerator: int, depth: int) -> str:
    """numerator / p^depth mod 1, written ``a/p^k`` in lowest terms or ``0``."""
    a = numerator % p**depth
    while a and a % p == 0:
        a, depth = a // p, depth - 1
    return f"{a}/{p**depth}" if a else "0"


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
