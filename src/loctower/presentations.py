"""Finite presentations, Smith normal form, and abelianization.

One Smith reduction serves both: ``smith_normal_form`` reads u and v off the
identity blocks of its working matrix, and ``abelianization`` reduces the
non-unit remainder alone.  All matrix arithmetic is exact over Python's
arbitrary-precision integers; intermediate entry blowup in the Smith
reduction is real even for small matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .words import LengthLimitError, Word, WordSyntaxError, _check_length, _integer, invert
from .words import multiply, parse_word, power, validate_rank

Matrix = tuple[tuple[int, ...], ...]


class PresentationSyntaxError(ValueError):
    """Malformed presentation text.  ``line`` is 1-based."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Presentation:
    """Finite presentation; each relator is a word set equal to the identity."""

    generator_count: int
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relators", tuple(self.relators))
        if self.generator_count < 1:
            raise ValueError("generator count must be positive")
        for r in self.relators:
            validate_rank(r, self.generator_count)


@dataclass(frozen=True)
class AbelianInvariants:
    """Abelianization Z^free_rank + sum of Z/d_i with d_1 | d_2 | ..."""

    torsion: tuple[int, ...]
    free_rank: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion entries must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion entries must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def _exponent_row(w: Word) -> dict[int, int]:
    """The nonzero exponent sums of ``w``, keyed by generator index."""
    sums: dict[int, int] = {}
    for l in w.letters:
        g = abs(l)
        sums[g] = sums.get(g, 0) + (1 if l > 0 else -1)
    return {g: x for g, x in sums.items() if x}


def exponent_sums(w: Word, generator_count: int) -> tuple[int, ...]:
    sums = [0] * generator_count
    for g, x in _exponent_row(w).items():
        sums[g - 1] = x
    return tuple(sums)


def relation_matrix(p: Presentation) -> Matrix:
    """One row per relator, one column per generator; entries are exponent
    sums.  A free group yields a 0 x n matrix."""
    return tuple(exponent_sums(r, p.generator_count) for r in p.relators)


@dataclass(frozen=True)
class SmithNormalForm:
    """u @ m @ v == d with d diagonal (nonnegative, divisibility chain) and
    u, v unimodular."""

    d: Matrix
    u: Matrix
    v: Matrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)))


def _diagonalize(a: list[list[int]], nr: int, nc: int) -> list[int]:
    """Reduce the top-left nr x nc block of ``a`` to Smith form in place;
    return its nonzero diagonal.  Row operations move whole rows among the
    first nr, column operations whole columns among the first nc.

    Each step takes the first entry of least absolute value in the remaining
    block as pivot, clears its row and column, and, while some remaining
    entry is not a multiple of the pivot, adds that row and repeats.  A unit
    pivot is taken as soon as it is seen, since no later entry is smaller,
    and it skips the divisibility scan, since every entry is a multiple of
    +-1.  Relation matrices are mostly unit rows, so they reduce in
    O(rows * cols), not cubic time; the result is the same as with full
    scans.
    """

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]

    t = 0
    while t < min(nr, nc):
        pivot, least = None, 0
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (pivot is None or abs(a[i][j]) < least):
                    pivot, least = (i, j), abs(a[i][j])
            if least == 1:
                break
        if pivot is None:
            break
        i = pivot[0]
        a[t], a[i] = a[i], a[t]
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(nr):
                if i == t or not a[i][t]:
                    continue
                add_row(t, i, -(a[i][t] // a[t][t]))
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    dirty = True
            if dirty:
                continue
            for j in range(nc):
                if j == t or not a[t][j]:
                    continue
                add_col(t, j, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            if abs(a[t][t]) == 1:
                break
            rest = range(t + 1, nr)
            offender = next((i for i in rest if any(x % a[t][t] for x in a[i][t + 1 : nc])), None)
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return [a[i][i] for i in range(t)]


def smith_normal_form(matrix) -> SmithNormalForm:
    """Diagonalize an integer matrix by unimodular row and column operations.

    :func:`_diagonalize` reduces the working matrix ``[[m, I], [I, 0]]``
    (its zero corner left out, since no operation reaches it); the same
    operations turn the identity blocks into ``u`` and ``v``.
    """
    m = [[int(x) for x in row] for row in matrix]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if any(len(row) != nc for row in m):
        raise ValueError("matrix rows must have equal length")
    a = [row + [int(i == k) for k in range(nr)] for i, row in enumerate(m)]
    a += [[int(j == k) for k in range(nc)] for j in range(nc)]
    _diagonalize(a, nr, nc)
    return SmithNormalForm(
        tuple(tuple(row[:nc]) for row in a[:nr]),
        tuple(tuple(row[nc:]) for row in a[:nr]),
        tuple(tuple(row) for row in a[nr:]),
    )


def _eliminate_units(rows: list[dict[int, int]]) -> tuple[list[list[int]], int]:
    """Pivot on +-1 entries until none is left; return the dense remainder
    and the number of pivots.

    A pivot at (i, j) clears column j from the other rows by adding
    multiples of row i, then retires row i and column j: each contributes
    a 1 to the Smith diagonal.  Pivots are taken in the order of
    :func:`smith_normal_form`: the first live row holding a unit, and in it
    the first unit column; retired rows and columns trade places with the
    first live one.  So, zero rows and columns aside, the remainder is the
    block that the reduction's own unit pivots would leave.
    """
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    live_rows = list(range(len(rows)))
    live_cols = sorted(col_rows)
    col_at = {j: k for k, j in enumerate(live_cols)}
    done = 0
    while True:
        for at in range(done, len(live_rows)):
            i = live_rows[at]
            units = [j for j, x in rows[i].items() if x == 1 or x == -1]
            if units:
                break
        else:
            break
        row = rows[i]
        j = min(units, key=col_at.__getitem__)
        sign = row[j]
        for k in col_rows[j] - {i}:
            other = rows[k]
            f = other[j] * sign
            for c, x in row.items():
                y = other.get(c, 0) - f * x
                if y:
                    if c not in other:
                        col_rows[c].add(k)
                    other[c] = y
                else:
                    del other[c]
                    col_rows[c].discard(k)
        for c in row:
            col_rows[c].discard(i)
        live_rows[at], live_rows[done] = live_rows[done], i
        c = live_cols[done]
        live_cols[col_at[j]], live_cols[done] = c, j
        col_at[c] = col_at[j]
        done += 1
    rest = [rows[i] for i in live_rows[done:] if rows[i]]
    cols = [j for j in live_cols[done:] if col_rows[j]]
    return [[row.get(j, 0) for j in cols] for row in rest], done


def abelianization(p: Presentation) -> AbelianInvariants:
    """Eliminate the unit pivots of the relation matrix on sparse rows,
    then read the rest off the Smith diagonal of the remainder: zeros and
    missing pivots contribute free rank, entries >= 2 torsion, ones
    nothing."""
    rows = [row for row in map(_exponent_row, p.relators) if row]
    remainder, units = _eliminate_units(rows)
    nonzero = _diagonalize(remainder, len(remainder), len(remainder[0])) if remainder else []
    torsion = tuple(d for d in nonzero if d >= 2)
    return AbelianInvariants(torsion, p.generator_count - units - len(nonzero))


def is_perfect(p: Presentation) -> bool:
    return abelianization(p).is_trivial()


def format_abelian_invariants(inv: AbelianInvariants) -> str:
    """Render as ``Z^r + Z/d1 + Z/d2 + ...``; the trivial group is ``0``."""
    parts = []
    if inv.free_rank == 1:
        parts.append("Z")
    elif inv.free_rank > 1:
        parts.append(f"Z^{inv.free_rank}")
    parts.extend(f"Z/{d}" for d in inv.torsion)
    return " + ".join(parts) if parts else "0"


def triangle_group(l: int, m: int, n: int, max_length: int | None = None) -> Presentation:
    """The central extension <x, y | x^l = y^m = (xy)^n> of a triangle group;
    a relator over ``max_length`` letters is refused first, before it is built."""
    if max_length is not None:
        _check_length("triangle relator", max(abs(l) + abs(m), abs(m) + 2 * abs(n)), max_length)
    if 0 in (l, m, n):
        raise ValueError("triangle parameters must be nonzero")
    x = Word((1,))
    y = Word((2,))
    xy = multiply(x, y)
    return Presentation(
        2,
        (
            multiply(power(x, l), power(y, -m)),
            multiply(power(y, m), power(xy, -n)),
        ),
    )


def triangle_is_finite(l: int, m: int, n: int) -> bool:
    """Finiteness criterion 1/|l| + 1/|m| + 1/|n| > 1, exact arithmetic."""
    if 0 in (l, m, n):
        raise ValueError("triangle parameters must be nonzero")
    return Fraction(1, abs(l)) + Fraction(1, abs(m)) + Fraction(1, abs(n)) > 1


def tower_truncation(n: int) -> Presentation:
    """Depth-n truncation of the commutator-tower presentation:
    generators x_1..x_{2^{n+1}-1}, relators x_i = [x_{2i}, x_{2i+1}] for
    i < 2^n.  Abelianization is free of rank 2^n for every n."""
    if n < 0:
        raise ValueError("depth must be nonnegative")
    count = 2 ** (n + 1) - 1
    # x_i [x_2i, x_2i+1]^-1 = x_i x_2i+1 x_2i x_2i+1^-1 x_2i^-1
    relators = tuple(Word((i, 2 * i + 1, 2 * i, -2 * i - 1, -2 * i)) for i in range(1, 2**n))
    return Presentation(count, relators)


def parse_presentation(text: str, max_length: int | None = None) -> Presentation:
    """Parse the presentation text format.

    A ``gens: n`` line followed by one relator per line in word syntax;
    chained equalities ``w1 = w2 = w3`` become relators ``w1*w2^-1`` and
    ``w2*w3^-1``.  Blank lines and ``#`` comments are skipped.  Every side
    is parsed within ``max_length``, and every relator is held to it; a
    refusal names its line.
    """
    generator_count = None
    relators: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if generator_count is None:
            if not line.startswith("gens:"):
                raise PresentationSyntaxError("expected a 'gens: n' header", lineno)
            try:
                generator_count = _integer(line[len("gens:") :].strip())
            except WordSyntaxError as exc:
                raise PresentationSyntaxError(f"invalid generator count: {exc}", lineno) from None
            if generator_count < 1:
                raise PresentationSyntaxError("generator count must be positive", lineno)
            continue
        try:
            sides = [parse_word(part, max_length) for part in line.split("=")]
            chained = [multiply(a, invert(b)) for a, b in zip(sides, sides[1:])] or sides
            for r in chained:
                _check_length("relator", len(r), max_length)
        except WordSyntaxError as exc:
            raise PresentationSyntaxError(str(exc), lineno) from None
        except LengthLimitError as exc:
            raise LengthLimitError(f"line {lineno}: {exc}") from None
        relators.extend(chained)
    if generator_count is None:
        raise PresentationSyntaxError("missing 'gens: n' header", 1)
    try:
        return Presentation(generator_count, tuple(relators))
    except ValueError as exc:
        raise PresentationSyntaxError(str(exc), 1) from None
