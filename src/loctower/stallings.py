"""Folded subgroup graphs for finitely generated subgroups of free groups.

A subgroup graph is a folded, labeled, core graph with a basepoint; reduced
loops at the basepoint spell exactly the elements of the subgroup.  Each
edge also carries a witness word over the generating words, so a member's
path reads off its expression over them.  Graphs are immutable after
construction and safe for concurrent queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .words import IDENTITY, Word, invert, multiply, reduce, substitute


@dataclass(frozen=True)
class SubgroupGraph:
    """Folded core graph; vertex 0 is the basepoint.

    ``edges`` holds positively-oriented edges ``(src, dst, label)``; every
    edge may also be traversed backwards (letter ``-label``).
    ``witnesses[i]`` is the word over y_1..y_m carried by ``edges[i]``; the
    backward traversal carries its inverse.
    """

    generating_words: tuple[Word, ...]
    num_vertices: int
    edges: tuple[tuple[int, int, int], ...]
    witnesses: tuple[Word, ...]
    _steps: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        steps: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        for (u, v, label), y in zip(self.edges, self.witnesses):
            steps[(u, label)] = (v, y.letters)
            steps[(v, -label)] = (u, invert(y).letters)
        object.__setattr__(self, "_steps", steps)


def rank(g: SubgroupGraph) -> int:
    """Rank of the subgroup, by Euler characteristic of the core graph."""
    return len(g.edges) - g.num_vertices + 1


def graph_edge_lines(g: SubgroupGraph) -> list[str]:
    """Edge-list dump, one ``src dst label`` line per positive edge."""
    return [f"{u} {v} {label}" for u, v, label in g.edges]


def build_graph(generators) -> SubgroupGraph:
    """Folded core graph of the subgroup generated by ``generators``.

    The bouquet has one petal per generating word; the first edge of the
    j-th petal carries the witness ``y_j`` and every other edge the empty
    word.  Folding keeps this invariant: some P from the vertices to F(X)
    with P(0) = 1 satisfies ``substitute(witness) = P(u) * a * P(v)^-1`` on
    every edge u -a-> v.  Folding e2 = (u -a-> t2, L2) into
    e1 = (u -a-> t1, L1) merges t2 into t1, left-multiplies the witnesses
    of edges leaving t2 by L1^-1 L2 and right-multiplies those of edges
    arriving at t2 by L2^-1 L1 (when t2 is the basepoint, which always
    survives, t1 merges into t2 with the roles swapped); a parallel copy
    (t1 = t2) is dropped.  Folding is confluent, so the graph does not
    depend on the fold order; vertices are numbered by a BFS from the
    basepoint that visits letters in the order 1, -1, 2, -2, ...

    Folding leaves no hair, so nothing is trimmed: in the bouquet each
    vertex but the basepoint has two outgoing letters, -l_k and l_(k+1),
    distinct as each generator is reduced.  A merge unites letter sets, a
    dropped parallel copy keeps its letter at both ends, and a letter
    deleted at a merged vertex's far end returns with its re-queued edge.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("generator list must be non-empty")

    # the bouquet, as pending edges (u, letter, v, witness)
    work: list[tuple[int, int, int, Word]] = []
    size = 1
    for j, g in enumerate(gens, start=1):
        path = [0, *range(size, size + len(g) - 1), 0]
        size += max(len(g) - 1, 0)
        for k, letter in enumerate(g.letters):
            work.append((path[k], letter, path[k + 1], Word((j,)) if k == 0 else IDENTITY))

    # out[v][signed letter] = (target, witness); None once v is merged away
    out: list[dict[int, tuple[int, Word]] | None] = [{} for _ in range(size)]
    # merged vertex v -> (w, d) with P(v) = d * P(w)
    moved: dict[int, tuple[int, Word]] = {}

    def resolve(v: int) -> tuple[int, Word]:
        """Live vertex w and d with P(v) = d * P(w); compresses the path."""
        chain = []
        while v in moved:
            chain.append(v)
            v = moved[v][0]
        d = IDENTITY
        for u in reversed(chain):
            d = multiply(moved[u][1], d)
            moved[u] = (v, d)
        return v, d

    while work:
        u, a, v, y = work.pop()
        u, du = resolve(u)
        v, dv = resolve(v)
        if du or dv:
            y = multiply(multiply(invert(du), y), dv)
        hit = out[u].get(a)
        if hit is None:
            hit = out[v].get(-a)
            if hit is None:
                out[u][a] = (v, y)
                out[v][-a] = (u, invert(y))
                continue
            u, a, v, y = v, -a, u, invert(y)
        t1, y1 = hit
        if t1 == v:
            continue  # parallel copy
        # P(v) = y^-1 y1 P(t1); after the merge this edge equals hit
        keep, gone, d = t1, v, multiply(invert(y), y1)
        if gone == 0:
            keep, gone, d = v, t1, invert(d)
        moved[gone] = (keep, d)
        for b, (x, m) in out[gone].items():
            if x != gone:
                del out[x][-b]
            elif b < 0:
                continue  # a loop is listed under both of its letters
            work.append((gone, b, x, m))
        out[gone] = None

    # deterministic renumbering by BFS from the basepoint
    number = {0: 0}
    order = [0]
    for v in order:
        for b in sorted(out[v], key=lambda s: (abs(s), s < 0)):
            t = out[v][b][0]
            if t not in number:
                number[t] = len(order)
                order.append(t)

    edges = sorted(
        (number[u], number[t], b, y)
        for u in order
        for b, (t, y) in out[u].items()
        if b > 0
    )
    return SubgroupGraph(
        gens,
        len(order),
        tuple((u, t, b) for u, t, b, _ in edges),
        tuple(y for *_, y in edges),
    )


def _walk(g: SubgroupGraph, w: Word) -> list[tuple[int, ...]] | None:
    """The edge witnesses along the path of ``w`` from the basepoint, or
    None when that path leaves the graph or does not close."""
    v, witnesses = 0, []
    for letter in w.letters:
        hit = g._steps.get((v, letter))
        if hit is None:
            return None
        v, witness = hit
        witnesses.append(witness)
    return witnesses if v == 0 else None


def contains(g: SubgroupGraph, w: Word) -> bool:
    """True iff ``w`` lies in the subgroup; the identity always does."""
    return _walk(g, w) is not None


def express(g: SubgroupGraph, w: Word) -> Word | None:
    """Witness for membership: a word over new letters y_1..y_m (one per
    generating word, in input order) whose substitution-expansion reduces to
    ``w``.  None when ``w`` is not in the subgroup.

    Reduces the edge witnesses along the loop of ``w`` at the basepoint, in
    time linear in ``|w|`` plus the witness letters read.
    """
    witnesses = _walk(g, w)
    if witnesses is None:
        return None
    result = reduce(chain.from_iterable(witnesses))
    if substitute(result, g.generating_words) != w:
        raise AssertionError("stallings: the witness does not expand to the word")
    return result
