"""Shared strategies, random generators, and independent brute-force oracles."""

from __future__ import annotations

import random
from collections import deque

from hypothesis import strategies as st

from loctower.roots import primitive_root
from loctower.tower import validate_level_word
from loctower.words import IDENTITY, Word, cyclic_reduce, invert, multiply, power, reduce


def letter_strategy(rank: int = 3):
    return st.integers(-rank, rank).filter(lambda l: l != 0)


def words_strategy(rank: int = 3, max_len: int = 12):
    return st.lists(letter_strategy(rank), max_size=max_len).map(reduce)


def nonempty_words_strategy(rank: int = 3, max_len: int = 12):
    return words_strategy(rank, max_len).filter(lambda w: bool(w))


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
