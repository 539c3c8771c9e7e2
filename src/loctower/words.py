"""Exact arithmetic on freely reduced words in free groups.

A letter is a nonzero integer: ``+i`` stands for the generator ``x_i`` and
``-i`` for its inverse.  ``Word`` values are always freely reduced; the
empty word is the group identity.  Words are immutable and every operation
returns a fresh value, so they can be shared freely between tasks.

A word is validated where it enters: the ``Word`` constructor, :func:`reduce`
and the parser check every letter.  Kernels whose result is reduced by
construction from valid inputs (inversion, powers, cyclic reduction, roots,
the tower's block expansion and decoding) wrap it with :func:`_reduced`
instead of checking it again.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import compress, islice
from operator import add, eq, itemgetter, neg
from typing import Iterable, Sequence


class WordSyntaxError(ValueError):
    """Malformed word text.  ``column`` is 1-based."""

    def __init__(self, message: str, column: int) -> None:
        super().__init__(f"column {column}: {message}")
        self.column = column


class IdentityWordError(ValueError):
    """The operation needs a nontrivial word."""


class LengthLimitError(ValueError):
    """A word would exceed ``max_length`` or sys.maxsize letters."""


@dataclass(frozen=True)
class Word:
    """A freely reduced word.

    The constructor rejects unreduced input; use :func:`reduce` to build a
    word from an arbitrary letter sequence.
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        for l in letters:
            if type(l) is not int or l == 0:
                raise ValueError(f"invalid letter {l!r}")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError("word is not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        return format_word(self)


IDENTITY = Word()


def _reduced(letters: tuple[int, ...]) -> Word:
    """Wrap a tuple already known to be freely reduced and made of nonzero
    ints, without the per-letter check of ``Word.__post_init__``.

    Each caller states in a comment why its result is reduced.
    """
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    return w


def word(*letters: int) -> Word:
    """Reduce and wrap a letter sequence.

    >>> word(1, -1)
    Word(letters=())
    >>> word(1, 2, -2, 3).letters
    (1, 3)
    """
    return reduce(letters)


def reduce(raw: Iterable[int]) -> Word:
    """Freely reduce a letter sequence.  Idempotent on reduced input."""
    stack: list[int] = []
    for l in raw:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return Word(tuple(stack))


def _cancellation(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """The number k of letters that cancel where reduced ``x`` meets reduced
    ``y``.  A block of facing letters cancels when all its pairwise sums are
    0, which ``any`` checks in C without creating an int.  The block doubles
    while it cancels, then halves, so k costs O(log k) Python steps."""
    n, m = len(x), min(len(x), len(y))
    k, s = 0, 1
    while k + s <= m and not any(map(add, reversed(x[n - k - s : n - k]), y[k : k + s])):
        k += s
        s *= 2
    while s > 1:
        s //= 2
        if k + s <= m and not any(map(add, reversed(x[n - k - s : n - k]), y[k : k + s])):
            k += s
    return k


def multiply(a: Word, b: Word) -> Word:
    """Reduced concatenation; associative with identity ``IDENTITY``.

    Both factors are reduced, so letters cancel only at the join; past one
    comparison of its facing pair, :func:`_cancellation` counts them.
    """
    x, y = a.letters, b.letters
    if x and y and x[-1] == -y[0]:
        k = _cancellation(x, y)
        return Word(x[: len(x) - k] + y[k:])
    return Word(x + y)


def invert(w: Word) -> Word:
    # a reduced word read backwards with every sign flipped is reduced
    return _reduced(tuple(map(neg, reversed(w.letters))))


def _check_length(what: str, length: int, max_length: int | None) -> None:
    """Refuse ``what`` of ``length`` letters above ``max_length`` or above sys.maxsize."""
    if max_length is not None and length > max_length:
        raise LengthLimitError(f"{what} of {length} letters (limit {max_length})")
    if length > sys.maxsize:
        raise LengthLimitError(f"{what} of {length} letters exceeds sys.maxsize = {sys.maxsize}")


def _power_length(letters: tuple[int, ...], k: int) -> tuple[int, int]:
    """|c| and the length 2|c| + |k|*|u| of the k-th power of ``c u c^-1``."""
    i = _conjugator_length(letters)
    return i, 2 * i + abs(k) * (len(letters) - 2 * i)


def power(w: Word, k: int) -> Word:
    """``w**k`` fully reduced; ``power(w, 0)`` is the identity.

    With ``w = c u c^-1`` and ``u`` cyclically reduced, ``w**k`` is
    ``c u^k c^-1`` letter for letter.  A power of more than sys.maxsize
    letters is refused before it is built.

    >>> str(power(word(1, 2, -1), 3))
    'x1*x2^3*x1^-1'
    """
    if k == 0 or not w:
        return IDENTITY
    letters = w.letters
    if k < 0:
        letters, k = tuple(map(neg, reversed(letters))), -k
    i, length = _power_length(letters, k)
    _check_length("power", length, None)
    n = len(letters)
    # u = letters[i:n-i] is cyclically reduced, so no join of c u^k c^-1
    # cancels: c|u and u|c^-1 are joins of the reduced input, u|u is not
    # x x^-1 because i is maximal
    return _reduced(letters[:i] + letters[i : n - i] * k + letters[n - i :])


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a b a^-1 b^-1, reduced."""
    return multiply(multiply(a, b), multiply(invert(a), invert(b)))


def _conjugator_length(letters: tuple[int, ...]) -> int:
    """Length of the maximal c with ``letters = c u c^-1`` (reduced input)."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return i


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w = conj * core * conj^-1`` with ``core`` cyclically reduced.

    The conjugator is the maximal such prefix; the core of the identity is
    the identity.
    """
    letters = w.letters
    i = _conjugator_length(letters)
    # slices of a reduced word are reduced
    return _reduced(letters[:i]), _reduced(letters[i : len(letters) - i])


def support(w: Word) -> frozenset[int]:
    """Set of generator indices occurring in the reduced word."""
    return frozenset(map(abs, set(w.letters)))


def max_index(w: Word) -> int:
    """Largest generator index used; 0 for the identity."""
    return max(support(w), default=0)


def validate_rank(w: Word, n: int) -> None:
    """Check that ``w`` lives in the free group of rank ``n``."""
    if n < 1:
        raise ValueError("rank must be positive")
    if max_index(w) > n:
        raise ValueError(f"word {format_word(w)} uses generators beyond rank {n}")


def substitute(w: Word, images: Sequence[Word]) -> Word:
    """Replace letter ``+j`` by ``images[j-1]`` (1-indexed) and reduce.

    The expansion streams into the reduction, so memory is bounded by the
    longest reduced prefix, not by the unreduced expansion.
    """
    pieces = {}
    for l in set(w.letters):
        img = images[abs(l) - 1]
        pieces[l] = img.letters if l > 0 else invert(img).letters
    return reduce(x for l in w.letters for x in pieces[l])


def format_word(w: Word, symbol: str = "x") -> str:
    """Render a word in the text syntax, e.g. ``x1*x2^-1``; identity is ``1``.

    Each letter is named through a table.  A word with no letter equal to
    its successor is joined straight from it; otherwise only the runs of a
    repeated letter are rewritten as one power.
    """
    letters = w.letters
    if not letters:
        return "1"
    names = {l: f"{symbol}{l}" if l > 0 else f"{symbol}{-l}^-1" for l in set(letters)}
    if len(letters) > 1 and not any(map(eq, letters, islice(letters, 1, None))):
        return "*".join(itemgetter(*letters)(names))  # two or more keys give a tuple
    parts: list[str | None] = list(map(names.__getitem__, letters))
    runs: dict[int, int] = {}  # first index of a run -> its length
    start = last = -2
    for i in compress(range(len(letters) - 1), map(eq, letters, letters[1:])):
        if i != last + 1:  # a repeat not next to the previous one opens a run
            start = i
        runs[start] = i + 2 - start
        parts[i + 1] = None
        last = i
    for start, run in runs.items():
        l = letters[start]
        parts[start] = f"{symbol}{l}^{run}" if l > 0 else f"{symbol}{-l}^{-run}"
    return "*".join(filter(None, parts))


# Python refuses int() on strings of more than 4,300 digits by default
MAX_INTEGER_DIGITS = 4000
# ASCII digits only: str.isdigit and int() admit '²' or '٣'
_INTEGER = re.compile(r"-?([0-9]*)")


def _integer(text: str, start: int = 0, stop: int | None = None) -> int:
    """The integer that ``text[start:stop]`` spells in full: an optional
    ``-``, then 1 to ``MAX_INTEGER_DIGITS`` ASCII digits.  Every text
    integer is read here; refusals give 1-based columns in ``text``."""
    stop = len(text) if stop is None else stop
    m = _INTEGER.match(text, start, stop)
    digits = m.end(1) - m.start(1)
    if not digits:
        raise WordSyntaxError("expected an integer", m.start(1) + 1)
    if digits > MAX_INTEGER_DIGITS:
        raise WordSyntaxError(
            f"integer of {digits} digits exceeds the limit of "
            f"{MAX_INTEGER_DIGITS} digits (MAX_INTEGER_DIGITS)",
            start + 1,
        )
    if m.end() < stop:
        raise WordSyntaxError(f"unexpected character {text[m.end()]!r}", m.end() + 1)
    return int(m.group())


# after separators, one of: "(", a term (x<index>, 1 or ")") with an
# optional exponent, any other character, or the end
_TOKEN = re.compile(
    r"[ \t*]*(?:(\()|(x([0-9]*)|(1[0-9]?)|(\)))(?:\^(-?[0-9]*))?|(.)|\Z)", re.DOTALL
)


def parse_word(text: str, max_length: int | None = None) -> Word:
    """Parse the text syntax (``x1``, ``x2^-1``, ``(x1*x2)^3``, ``1``).

    One pass over the tokens, with an explicit stack holding the running
    product of each open group, so nesting depth is unbounded.  Over
    ``max_length`` letters, a power is refused before it is built and a
    product once built, at the term's column.
    Guarantees ``parse_word(format_word(w)) == w`` bit-exactly.
    """
    groups = [IDENTITY]
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        pos = m.end()
        opening, _, index, one, closing, exponent, other = m.groups()
        if opening:
            groups.append(IDENTITY)
            continue
        if index is not None:
            if not index:
                raise WordSyntaxError("expected generator index after 'x'", m.start(3) + 1)
            i = _integer(text, m.start(3), m.end(3))
            if i < 1:
                raise WordSyntaxError("generator index must be positive", m.end(3) + 1)
            term = Word((i,))
        elif one:
            if len(one) > 1:
                raise WordSyntaxError("generator syntax is x<index>", m.end(4))
            term = IDENTITY
        elif closing:
            if len(groups) == 1:
                raise WordSyntaxError("unexpected trailing input", m.start(5) + 1)
            term = groups.pop()
        elif other:
            raise WordSyntaxError(f"unexpected character {other!r}", m.start(7) + 1)
        elif len(groups) > 1:
            raise WordSyntaxError("expected ')'", len(text) + 1)
        else:
            return groups[0]
        if exponent is not None:
            k = _integer(text, m.start(6), m.end(6))
            if max_length is not None:
                length = _power_length(term.letters, k)[1]
                _check_length(f"column {m.start(2) + 1}: power", length, max_length)
            term = power(term, k)
        groups[-1] = multiply(groups[-1], term)
        if max_length is not None:
            _check_length(f"column {m.start(2) + 1}: word", len(groups[-1]), max_length)
