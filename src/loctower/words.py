"""Exact arithmetic on freely reduced words in free groups.

A letter is a nonzero integer: ``+i`` stands for the generator ``x_i`` and
``-i`` for its inverse.  ``Word`` values are always freely reduced; the
empty word is the group identity.  Words are immutable and every operation
returns a fresh value, so they can be shared freely between tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import eq, neg
from typing import Iterable, Sequence


class WordSyntaxError(ValueError):
    """Malformed word text.  ``column`` is 1-based."""

    def __init__(self, message: str, column: int) -> None:
        super().__init__(f"column {column}: {message}")
        self.column = column


class IdentityWordError(ValueError):
    """The operation needs a nontrivial word."""


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
            if not isinstance(l, int) or l == 0:
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


def multiply(a: Word, b: Word) -> Word:
    """Reduced concatenation; associative with identity ``IDENTITY``.

    Both factors are reduced, so letters cancel only at the join.
    """
    x, y = a.letters, b.letters
    n, m = len(x), min(len(x), len(y))
    k = 0
    while k < m and x[n - 1 - k] == -y[k]:
        k += 1
    return Word(x[: n - k] + y[k:])


def invert(w: Word) -> Word:
    return Word(tuple(map(neg, reversed(w.letters))))


def power(w: Word, k: int) -> Word:
    """``w**k`` fully reduced; ``power(w, 0)`` is the identity.

    With ``w = c u c^-1`` and ``u`` cyclically reduced, ``w**k`` is
    ``c u^k c^-1`` letter for letter.

    >>> str(power(word(1, 2, -1), 3))
    'x1*x2^3*x1^-1'
    """
    if k == 0 or not w:
        return IDENTITY
    letters = w.letters
    if k < 0:
        letters, k = tuple(map(neg, reversed(letters))), -k
    i, n = _conjugator_length(letters), len(letters)
    return Word(letters[:i] + letters[i : n - i] * k + letters[n - i :])


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
    return Word(letters[:i]), Word(letters[i : len(letters) - i])


def is_cyclically_reduced(w: Word) -> bool:
    return not w or w.letters[0] != -w.letters[-1]


def support(w: Word) -> frozenset[int]:
    """Set of generator indices occurring in the reduced word."""
    return frozenset(map(abs, w.letters))


def max_index(w: Word) -> int:
    """Largest generator index used; 0 for the identity."""
    return max(map(abs, w.letters), default=0)


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

    Each letter is named through a table; only the runs of a repeated
    letter (found where a letter equals its successor) are rewritten as one
    power.
    """
    letters = w.letters
    if not letters:
        return "1"
    names = {l: f"{symbol}{l}" if l > 0 else f"{symbol}{-l}^-1" for l in set(letters)}
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


class _WordParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def fail(self, message: str) -> None:
        raise WordSyntaxError(message, self.pos + 1)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_separators(self) -> None:
        while self.peek() and self.peek() in " \t*":
            self.pos += 1

    def parse_integer(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not self.peek().isdigit():
            self.fail("expected an integer")
        while self.peek().isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])

    def parse_term(self) -> Word:
        c = self.peek()
        if c == "1":
            self.pos += 1
            if self.peek().isdigit():
                self.fail("generator syntax is x<index>")
            base = IDENTITY
        elif c == "x":
            self.pos += 1
            if not self.peek().isdigit():
                self.fail("expected generator index after 'x'")
            index = self.parse_integer()
            if index < 1:
                self.fail("generator index must be positive")
            base = Word((index,))
        elif c == "(":
            self.pos += 1
            base = self.parse_sequence()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
        else:
            self.fail(f"unexpected character {c!r}")
        if self.peek() == "^":
            self.pos += 1
            exponent = self.parse_integer()
            return power(base, exponent)
        return base

    def parse_sequence(self) -> Word:
        result = IDENTITY
        self.skip_separators()
        while self.peek() and self.peek() not in ")":
            result = multiply(result, self.parse_term())
            self.skip_separators()
        return result


def parse_word(text: str) -> Word:
    """Parse the text syntax (``x1``, ``x2^-1``, ``(x1*x2)^3``, ``1``).

    Guarantees ``parse_word(format_word(w)) == w`` bit-exactly.
    """
    parser = _WordParser(text)
    result = parser.parse_sequence()
    if parser.peek():
        parser.fail("unexpected trailing input")
    return result
