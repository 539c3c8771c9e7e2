"""Worst-case table: every family below runs in near-linear time well
inside the default length budget (``cli.DEFAULT_MAX_LENGTH``).

Each row is a family of inputs at three sizes.  The input is built before
the clock starts, each call is timed best of 3 with the collector off (as
``timeit`` does), and the row checks two bounds: the log-log slope fitted
through the three (size, seconds) points, at most 1.3, and a generous wall
bound at the largest size.  Both are checked after each size, so a row
that breaks one fails before its larger sizes run.

Rows checked here:

- ``build_graph`` on 4 random rank-3 words, by total letters;
- ``promote`` of x1, and ``normalize`` of the result, by letters;
- ``promote`` of a random 64-letter level-3 word over all 16 signed
  level-3 generators by 4, 5 and 6 levels, by letters out;
- ``witness_nonperfect(n, 3, 2)``, by the 4^n letters of its word;
- ``amalgam_normalize`` over x1*x2 with p^d = 9 on
  t^(9k+1)*x2*t^(-9k)*x1, by the tail k;
- ``format_word`` on words made of runs, by letters.

Rows pending their fixes in ROADMAP.md, with no bound set yet, because a
bound measured on the code that has the defect would only record it:

- flat and nested parsing, whose terms each re-validate the running
  product (item 2);
- dense abelianization, whose intermediate entries grow (item 3);
- ``express`` in <u^a, u^b> for consecutive Fibonacci a, b, whose check
  expands every witness (item 5);
- ``build_graph`` on conjugates c*x_i*c^-1, whose fold witnesses grow
  quadratically (item 8).
"""

import gc
import math
import random
import time

import pytest

from loctower.adjunction import AdjunctionGroup, TPower, amalgam_normalize, witness_nonperfect
from loctower.stallings import build_graph
from loctower.tower import TowerElement, normalize, promote
from loctower.words import Word, format_word, word

from conftest import random_reduced_letters

MAX_EXPONENT = 1.3

X1 = TowerElement(0, word(1))
ROOT_GROUP = AdjunctionGroup(2, word(1, 2), 3, 2)


def _random_generators(letters: int) -> list[Word]:
    rng = random.Random(letters)
    return [Word(random_reduced_letters(rng, letters // 4, range(1, 4))) for _ in range(4)]


def _tail_expression(k: int) -> list:
    return [TPower(9 * k + 1), word(2), TPower(-9 * k), word(1)]


def _runs(letters: int) -> Word:
    """Runs of 1 to 4 letters over x1..x3 and their inverses, ``letters``
    letters in all."""
    pattern = (1, 2, 2, -3, -3, -3, 2, 2, 2, 2, -1, 3, 3)
    return Word(pattern * (letters // len(pattern)) + (1,) * (letters % len(pattern)))


def _level(letters: int) -> int:
    """The level n at which x1 promotes to ``letters`` = 4^n letters."""
    return (letters.bit_length() - 1) // 2


def _promoted_x1(letters: int) -> tuple[int, Word]:
    n = _level(letters)
    return n, promote(X1, n).word


def _level_3_word(letters: int) -> tuple[TowerElement, int]:
    """A random 64-letter level-3 word over all 16 signed level-3
    generators, and the level it promotes to with ``letters`` = 64 * 4^k
    letters."""
    w = Word(random_reduced_letters(random.Random(2), 64, range(8, 16)))
    assert set(w.letters) == {s * i for i in range(8, 16) for s in (1, -1)}
    return TowerElement(3, w), 3 + _level(letters // 64)


LEVELS_7_TO_9 = (4**7, 4**8, 4**9)

# name: (sizes, build the input for a size, the call timed, wall bound in
# seconds at the largest size)
ROWS = {
    "build_graph": ((640, 10_240, 40_960), _random_generators, build_graph, 3.0),
    "promote_x1": (LEVELS_7_TO_9, _level, lambda n: promote(X1, n), 0.5),
    "normalize_x1": (LEVELS_7_TO_9, _promoted_x1, lambda a: normalize(*a), 0.5),
    "promote_level_3": ((64 * 4**4, 64 * 4**5, 64 * 4**6), _level_3_word, lambda a: promote(*a), 0.5),
    "witness_nonperfect": (LEVELS_7_TO_9, _level, lambda n: witness_nonperfect(n, 3, 2), 0.25),
    "amalgam_tail": (
        (10_000, 40_000, 160_000),
        _tail_expression,
        lambda e: amalgam_normalize(ROOT_GROUP, e),
        2.5,
    ),
    "format_word_runs": ((62_500, 250_000, 1_000_000), _runs, format_word, 2.0),
}


def _best_of_3(call, argument) -> float:
    best = math.inf
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            call(argument)
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def _slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


@pytest.mark.parametrize("name", ROWS)
def test_near_linear_at_budget(name):
    sizes, build, call, wall = ROWS[name]
    seconds = []
    for size in sizes:
        seconds.append(_best_of_3(call, build(size)))
        # a row that breaks a bound fails before a larger size runs
        exponent = _slope(sizes[: len(seconds)], seconds) if len(seconds) > 1 else 1.0
        assert exponent <= MAX_EXPONENT and seconds[-1] <= wall, (name, exponent, seconds)
