"""Shared strategies, random generators, and independent brute-force oracles."""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import deque
from itertools import chain

import pytest
from hypothesis import strategies as st

from loctower.adjunction import TPower
from loctower.presentations import AbelianInvariants, Presentation, relation_matrix, smith_normal_form
from loctower.roots import primitive_root
from loctower.tower import TowerElement, validate_level_word
from loctower.words import (
    IDENTITY,
    MAX_INTEGER_DIGITS,
    LengthLimitError,
    Word,
    WordSyntaxError,
    cyclic_reduce,
    invert,
    multiply,
    parse_word,
    power,
    reduce,
)


def letter_strategy(rank: int = 3):
    return st.integers(-rank, rank).filter(lambda l: l != 0)


def words_strategy(rank: int = 3, max_len: int = 12):
    return st.lists(letter_strategy(rank), max_size=max_len).map(reduce)


def nonempty_words_strategy(rank: int = 3, max_len: int = 12):
    return words_strategy(rank, max_len).filter(lambda w: bool(w))


def level_index_range(n: int) -> range:
    """Generator indices of the level-n free group."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    return range(2**n, 2 ** (n + 1))


def is_cyclically_reduced(w: Word) -> bool:
    return not w or w.letters[0] != -w.letters[-1]


def level_letters(level: int):
    indices = level_index_range(level)
    return st.integers(indices.start, indices.stop - 1).flatmap(lambda i: st.sampled_from((i, -i)))


def level_words(level: int, max_len: int):
    return st.lists(level_letters(level), max_size=max_len).map(reduce)


def random_reduced_letters(rng: random.Random, length: int, alphabet) -> tuple[int, ...]:
    """Uniform-ish freely reduced tuple of exactly `length` letters."""
    alphabet = list(alphabet)
    out: list[int] = []
    while len(out) < length:
        choices = [s * i for i in alphabet for s in (1, -1)]
        if out:
            choices = [c for c in choices if c != -out[-1]]
        out.append(rng.choice(choices))
    return tuple(out)


def random_word(rng: random.Random, max_len: int, alphabet) -> Word:
    return Word(random_reduced_letters(rng, rng.randint(0, max_len), alphabet))


def random_nonempty_word(rng: random.Random, max_len: int, alphabet) -> Word:
    return Word(random_reduced_letters(rng, rng.randint(1, max_len), alphabet))


def iter_reduced_tuples(max_len: int, rank: int):
    """All nonempty freely reduced letter tuples with length <= max_len."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    current = [(l,) for l in alphabet]
    for _ in range(max_len):
        nxt = []
        for t in current:
            yield t
            if len(t) < max_len:
                last = t[-1]
                nxt.extend(t + (l,) for l in alphabet if l != -last)
        current = [t for t in nxt if len(t) <= max_len]
        if not current:
            break


# ---------------------------------------------------------------------------
# oracles (kept independent of the library's algorithmic path)


def naive_reduce(letters) -> tuple[int, ...]:
    """Repeated-scan free reduction; quadratic but transparently correct."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def concat_reduce(a: tuple, b: tuple) -> tuple:
    i, j = len(a), 0
    while i > 0 and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def oracle_cyclic_reduce(letters) -> tuple[tuple, tuple]:
    """Peel matching ends until the first letter is not the inverse of the last."""
    conj: list[int] = []
    core = list(letters)
    while len(core) >= 2 and core[0] == -core[-1]:
        conj.append(core[0])
        core = core[1:-1]
    return tuple(conj), tuple(core)


def oracle_primitive_root(letters) -> tuple[tuple, int]:
    """Maximal-exponent root by enumerating prefix/conjugator candidates.

    Every root of w = r u^k r^-1 has the shape (prefix of w) * (prefix of
    w)^-1, so candidates reduce(w[:a] + inverse(w[:b])) for b <= a cover
    all of them; powers are monotone in length, so the scan terminates.
    """
    n = len(letters)
    best = (letters, 1)
    for a in range(n + 1):
        head = letters[:a]
        for b in range(a + 1):
            tail = tuple(-l for l in reversed(letters[:b]))
            cand = concat_reduce(head, tail)
            if not cand or len(cand) > n:
                continue
            acc = cand
            k = 1
            # |cand^k| grows strictly with k, so this loop terminates
            while len(acc) <= n:
                if acc == letters and k > best[1]:
                    best = (cand, k)
                acc = concat_reduce(acc, cand)
                k += 1
    return best


def enumerated_primitive_roots(max_len: int, rank: int) -> dict[tuple, tuple[tuple, int]]:
    """Primitive root and exponent of every proper power of length <= max_len.

    Raises every reduced r with |r| <= max_len to each k >= 2 while
    |r^k| <= max_len (|r^k| grows strictly with k) and keeps the largest k
    per power.  A root is never longer than its power, so every root is
    enumerated; a word missing from the result is its own root with
    exponent 1.
    """
    roots: dict[tuple, tuple[tuple, int]] = {}
    for r in iter_reduced_tuples(max_len, rank):
        acc, k = concat_reduce(r, r), 2
        while len(acc) <= max_len:
            if roots.get(acc, ((), 0))[1] < k:
                roots[acc] = (r, k)
            acc, k = concat_reduce(acc, r), k + 1
    return roots


def oracle_power(w: Word, k: int) -> Word:
    """``w**k`` from the cyclic reduction, inverting the whole result for
    k < 0 (the library's earlier four-Word version)."""
    if k == 0 or not w:
        return IDENTITY
    if k < 0:
        return invert(oracle_power(w, -k))
    conj, core = cyclic_reduce(w)
    letters = conj.letters + core.letters * k + invert(conj).letters
    return Word(letters)


def oracle_format_word(w: Word, symbol: str = "x") -> str:
    """Text syntax by one loop over every letter with a run counter."""
    if not w:
        return "1"
    parts = []
    current, run = w.letters[0], 0
    for l in w.letters + (0,):  # 0 is never a letter: it closes the last run
        if l == current:
            run += 1
            continue
        if current > 0:
            parts.append(f"{symbol}{current}^{run}" if run != 1 else f"{symbol}{current}")
        else:
            parts.append(f"{symbol}{-current}^{-run}")
        current, run = l, 1
    return "*".join(parts)


class _RecursiveWordParser:
    """The recursive descent parser that ``parse_word`` replaced, one
    method per grammar rule; the reference for its values, messages and
    columns."""

    DIGITS = frozenset("0123456789")

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
        if self.peek() not in self.DIGITS:
            self.fail("expected an integer")
        first_digit = self.pos
        while self.peek() in self.DIGITS:
            self.pos += 1
        if self.pos - first_digit > MAX_INTEGER_DIGITS:
            raise WordSyntaxError(
                f"integer of {self.pos - first_digit} digits exceeds the limit of "
                f"{MAX_INTEGER_DIGITS} digits (MAX_INTEGER_DIGITS)",
                start + 1,
            )
        return int(self.text[start : self.pos])

    def parse_term(self) -> Word:
        c = self.peek()
        if c == "1":
            self.pos += 1
            if self.peek() in self.DIGITS:
                self.fail("generator syntax is x<index>")
            base = IDENTITY
        elif c == "x":
            self.pos += 1
            if self.peek() not in self.DIGITS:
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


def reference_parse_word(text: str) -> Word:
    parser = _RecursiveWordParser(text)
    result = parser.parse_sequence()
    if parser.peek():
        parser.fail("unexpected trailing input")
    return result


def oracle_phi_preimage(n: int, u: Word) -> Word | None:
    """phi-preimage by comparing every 4-letter block with the two block
    shapes its head allows."""
    validate_level_word(n + 1, u)
    letters = u.letters
    if len(letters) % 4:
        return None
    out: list[int] = []
    for k in range(0, len(letters), 4):
        block = letters[k : k + 4]
        i = block[0] // 2
        if i <= 0:
            return None
        if block == (2 * i, 2 * i + 1, -2 * i, -2 * i - 1):
            out.append(i)
        elif block == (2 * i + 1, 2 * i, -2 * i - 1, -2 * i):
            out.append(-i)
        else:
            return None
    return Word(tuple(out))


# Reference tower kernels that cross one phi level per pass, with full
# checks in place of the library's trusted wrappers: the one-level
# expansion and preimage, promotion and stripping.


def oracle_expand(letters: tuple[int, ...], shift: int = 0) -> tuple[int, ...]:
    """Letters of phi, x_i -> (j, j+1, -j, -j-1) and x_i^-1 -> (j+1, j, -j-1,
    -j) with j = 2i - shift, through one table entry per distinct letter."""
    table = {}
    for l in set(letters):
        i = 2 * abs(l) - shift
        block = (i, i + 1, -i, -i - 1)
        table[l] = block if l > 0 else (block[1], block[0], block[3], block[2])
    return tuple(chain.from_iterable(map(table.__getitem__, letters)))


def _oracle_preimage_letters(letters: tuple[int, ...]) -> tuple[int, ...] | None:
    """The letters whose one-level expansion is ``letters``, or None."""
    if len(letters) % 4:
        return None
    heads = letters[0::4]
    decode = {}
    for a in set(heads):
        if a < 2:
            return None
        decode[a] = a >> 1 if a % 2 == 0 else -(a >> 1)
    pre = tuple(map(decode.__getitem__, heads))
    return pre if oracle_expand(pre) == letters else None


def oracle_promote(e: TowerElement, target: int) -> TowerElement:
    """``promote`` by one phi level per pass (no length budget)."""
    letters = e.word.letters
    for _ in range(e.level, target):
        letters = oracle_expand(letters)
    return TowerElement(target, Word(letters))


def oracle_strip(level: int, w: Word) -> TowerElement:
    """``normalize`` of a word valid at ``level``, one preimage per pass."""
    if not w:
        return TowerElement(0, w)
    letters = w.letters
    while level > 0:
        pre = _oracle_preimage_letters(letters)
        if pre is None:
            break
        letters = pre
        level -= 1
    return TowerElement(level, Word(letters))


def oracle_distinguished_word(n: int) -> Word:
    """x1 promoted to level n by the doubling convention, then every index
    shifted down by 2^n - 1 onto the base labels 1..2^n."""
    offset = 2**n - 1
    top = oracle_promote(TowerElement(0, Word((1,))), n).word
    return Word(tuple(l - offset if l > 0 else l + offset for l in top.letters))


def oracle_power_of(x: Word, a: Word) -> int | None:
    """Exponent e with x^e = a, or None, from the primitive root of a.
    Assumes x primitive."""
    if not a:
        return 0
    dec = primitive_root(a)
    if dec.root == x:
        return dec.exponent
    if dec.root == invert(x):
        return -dec.exponent
    return None


def oracle_coset_rep(x: Word, w: Word) -> tuple[Word, int]:
    """Minimal w * x^k under (length, letters) by trying every k in a window.

    A shortest w * x^k is no longer than w, so |k| * |core(x)| <= 2|w|, and
    the window |k| <= 2|w| / |core| + 2 holds every candidate.  Returns
    (rep, e) with w = rep * x^e.
    """
    _, core = cyclic_reduce(x)
    bound = 2 * len(w) // max(1, len(core)) + 2
    best = None
    best_k = 0
    for k in range(-bound, bound + 1):
        candidate = multiply(w, power(x, k))
        key = (len(candidate), candidate.letters)
        if best is None or key < best:
            best = key
            best_k = k
    return Word(best[1]), -best_k


def oracle_amalgam_expression(text: str) -> list:
    """An adjunction expression split at every blank and ``*``, each
    factor ``t``, ``t^j`` or a word: the first syntax of ``adjoin
    --normalize``, which took no word with a blank or ``*`` inside a group."""
    items = []
    for chunk in text.replace("*", " ").split():
        if chunk == "t":
            items.append(TPower(1))
        elif chunk.startswith("t^"):
            items.append(TPower(int(chunk[2:])))
        else:
            items.append(parse_word(chunk))
    return items


def refused_at_once(call) -> str:
    """The message of the LengthLimitError that ``call()`` raises, after
    checking that it comes within 1 s and a 1 MB tracemalloc peak, that is,
    before any long word is built."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(LengthLimitError) as info:
            call()
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 1.0 and peak < 1_000_000, (seconds, peak)
    return str(info.value)


def oracle_prufer_text(p: int, a: int, k: int) -> str:
    """a/p^k mod 1 written ``a/p^k`` in lowest terms, or ``0``, by dividing
    factors of p out of the numerator one at a time."""
    a = a % (p**k) if k else 0
    while a and a % p == 0:
        a //= p
        k -= 1
    return f"{a}/{p**k}" if a else "0"


def oracle_smith_normal_form(matrix):
    """(d, u, v) by the Smith reduction with a full pivot search and a full
    divisibility scan at every step.  The library takes the same steps but
    stops either scan early at a unit pivot, so the results must be equal."""
    a = [list(row) for row in matrix]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a + v:
            row[dst] += c * row[src]

    for t in range(min(nr, nc)):
        entries = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(nr):
                if i != t and a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(nc):
                if j != t and a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            offenders = [
                i for i in range(t + 1, nr) if any(a[i][j] % a[t][t] for j in range(t + 1, nc))
            ]
            if not offenders:
                break
            add_row(offenders[0], t, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return tuple(tuple(tuple(row) for row in m) for m in (a, u, v))


def oracle_relation_matrix(generator_count: int, relators) -> tuple[tuple[int, ...], ...]:
    """Exponent sums by one dense row per relator, each letter adding +-1
    to its generator's column."""
    rows = []
    for r in relators:
        row = [0] * generator_count
        for l in r.letters:
            row[abs(l) - 1] += 1 if l > 0 else -1
        rows.append(tuple(row))
    return tuple(rows)


def oracle_abelianization(p: Presentation) -> AbelianInvariants:
    """Read the abelianization off the Smith diagonal: zeros and missing
    pivots contribute free rank, entries >= 2 torsion, ones nothing."""
    m = relation_matrix(p)
    if not m:
        return AbelianInvariants((), p.generator_count)
    snf = smith_normal_form(m)
    diagonal = snf.diagonal()
    nonzero = [d for d in diagonal if d != 0]
    torsion = tuple(d for d in nonzero if d >= 2)
    return AbelianInvariants(torsion, p.generator_count - len(nonzero))


def matrix_multiply(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if not aik:
                continue
            row_b = b[k]
            row_o = out[i]
            for j in range(cols):
                row_o[j] += aik * row_b[j]
    return tuple(tuple(row) for row in out)


def determinant(matrix) -> int:
    """Exact integer determinant via fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def oracle_build_graph(generators, fold_seed: int | None = None):
    """(num_vertices, edges) of the folded core graph, by the fold loop that
    rescans every vertex after each merge and a trimming loop that rescans
    the whole graph after each removal.  ``fold_seed`` shuffles the fold
    schedule; folding is confluent, so every schedule gives the same graph.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("generator list must be non-empty")

    # bouquet of loops; adjacency maps signed label -> set of targets
    adj: list[dict[int, set[int]] | None] = [{}]

    def connect(u: int, v: int, signed: int) -> None:
        adj[u].setdefault(signed, set()).add(v)
        adj[v].setdefault(-signed, set()).add(u)

    for g in gens:
        prev = 0
        for idx, letter in enumerate(g.letters):
            if idx == len(g.letters) - 1:
                nxt = 0
            else:
                adj.append({})
                nxt = len(adj) - 1
            connect(prev, nxt, letter)
            prev = nxt

    parent = list(range(len(adj)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def merge(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a == b:
            return
        parent[b] = a
        for signed, targets in adj[b].items():
            adj[a].setdefault(signed, set()).update(targets)
        adj[b] = None

    rng = random.Random(fold_seed) if fold_seed is not None else None
    dirty = True
    while dirty:
        dirty = False
        vertices = [v for v in range(len(adj)) if find(v) == v]
        if rng:
            rng.shuffle(vertices)
        for v in vertices:
            if find(v) != v:
                continue
            signed_labels = list(adj[v].keys())
            if rng:
                rng.shuffle(signed_labels)
            else:
                signed_labels.sort(key=lambda s: (abs(s), s < 0))
            for signed in signed_labels:
                targets = sorted({find(t) for t in adj[v].get(signed, ())})
                if len(targets) > 1:
                    if rng:
                        rng.shuffle(targets)
                    merge(targets[0], targets[1])
                    dirty = True
                    break
            if dirty:
                break

    # canonical single-target transition map on live vertices
    steps: dict[tuple[int, int], int] = {}
    live = set()
    for v in range(len(adj)):
        if find(v) != v:
            continue
        live.add(v)
        for signed, targets in adj[v].items():
            resolved = {find(t) for t in targets}
            assert len(resolved) == 1, "graph is not folded"
            steps[(v, signed)] = resolved.pop()

    # trim to the core: drop non-basepoint vertices of degree <= 1
    base = find(0)
    degree = {v: 0 for v in live}
    for (v, signed) in steps:
        degree[v] += 1
    changed = True
    while changed:
        changed = False
        for v in sorted(live):
            if v == base or degree[v] > 1:
                continue
            for (u, signed) in [key for key in steps if key[0] == v]:
                t = steps.pop((u, signed))
                if (t, -signed) in steps:
                    steps.pop((t, -signed))
                    degree[t] -= 1
            live.discard(v)
            changed = True
            break

    # deterministic renumbering by BFS from the basepoint
    number = {base: 0}
    order = [base]
    queue = deque([base])
    while queue:
        v = queue.popleft()
        labels = sorted(
            (l for (u, l) in steps if u == v), key=lambda s: (abs(s), s < 0)
        )
        for l in labels:
            t = steps[(v, l)]
            if t not in number:
                number[t] = len(order)
                order.append(t)
                queue.append(t)

    edges = sorted(
        (number[u], number[steps[(u, l)]], l)
        for (u, l) in steps
        if l > 0 and u in number
    )
    return len(order), tuple(edges)
