"""Query generation, execution and checking for the three workloads.

A query is one user-level question in text form: the executor parses the
words, calls the library's public functions and formats the answer the way
the ``loctower`` CLI would.  Each query carries what the checker needs to
know the right answer from how the input was built (``expect``); the
library only ever sees ``payload``.

A round is a fixed schedule of query kinds and sizes with seeded random
letters.  The run repeats whole rounds, so the mix of kinds, sizes and
expected refusals is the same on every seed and only the letters change.
"""

from __future__ import annotations

import statistics
import time
from typing import NamedTuple

import oracle


class Query(NamedTuple):
    kind: str
    payload: tuple
    expect: tuple


def signed(indices) -> list[int]:
    return [s * i for i in indices for s in (1, -1)]


def rand_word(rng, n, letters, first=None, last=None) -> tuple[int, ...]:
    """Random reduced word of length n >= 1; ``first``/``last`` pin its ends
    (the caller keeps them compatible: ``first != -last`` when n == 2)."""
    out = [rng.choice(letters) if first is None else first]
    for i in range(1, n):
        if i == n - 1 and last is not None:
            out.append(last)
            break
        bad = {-out[-1]}
        if i == n - 2 and last is not None:
            bad.add(-last)
        out.append(rng.choice([l for l in letters if l not in bad]))
    return tuple(out)


def rand_primitive(rng, n, letters) -> tuple[int, ...]:
    """Cyclically reduced word that is not a proper power."""
    while True:
        w = rand_word(rng, n, letters)
        if w[0] != -w[-1] and oracle.root_exponent(w) == 1:
            return w


def _yes(flag) -> str:
    return "true" if flag else "false"


# ---------------------------------------------------------------------------
# membership: Stallings graphs, one write (build) and many reads per subgroup

ALPHABET = signed(range(1, 6))  # subgroup generators use x1..x5
OUTSIDE = 6  # appended to a member to make a non-member
FOLD_PAIRS = ((5, 8), (13, 21))  # {u^a, u^b}: express searches; u^+-1 is refused at (13, 21)


def hub_subgroup(rng, size, rank) -> list[tuple[int, ...]]:
    """Generators c*m_i*c^-1 whose folded graph is a stem c plus one petal
    per m_i.  The 2*rank letters leaving the hub (and the stem's own) are
    distinct, so folding merges exactly the stem copies and every generator
    crosses one non-tree edge: the generators are a basis by construction."""
    stem_len = size // (8 * rank)
    stem = rand_word(rng, stem_len, ALPHABET) if stem_len else ()
    ends = rng.sample([l for l in ALPHABET if not stem or l != -stem[-1]], 2 * rank)
    petal_len = (size - 2 * rank * stem_len) // rank
    gens = []
    for i in range(rank):
        petal = rand_word(rng, petal_len, ALPHABET, first=ends[2 * i], last=-ends[2 * i + 1])
        gens.append(stem + petal + oracle.inverse(stem))
    return gens


def random_member(rng, gens, factors) -> tuple[int, ...]:
    letters: list[int] = []
    prev = None
    for _ in range(factors):
        j, s = rng.randrange(len(gens)), rng.choice((1, -1))
        while (j, -s) == prev:
            j, s = rng.randrange(len(gens)), rng.choice((1, -1))
        prev = (j, s)
        letters.extend(gens[j] if s > 0 else oracle.inverse(gens[j]))
    return oracle.reduce_letters(letters)


def _build(kind, gens, rank) -> Query:
    return Query(kind, (tuple(oracle.fmt(g) for g in gens),), (rank,))


def _read(kind, gens, letters, member) -> Query:
    return Query(kind, (oracle.fmt(letters),), (member, letters, tuple(gens)))


def stratified_sizes(rng, count, low, high) -> list[int]:
    """``count`` sizes spread evenly in log scale over [low, high], each
    drawn at random inside its own stratum, so that latencies form a smooth
    distribution rather than a few clusters."""
    ratio = high / low
    return [round(low * ratio ** ((i + rng.random()) / count)) for i in range(count)]


def membership_round(rng, tiny=False) -> list[Query]:
    queries = []
    sizes = (40, 80) if tiny else stratified_sizes(rng, 15, 40, 640)
    reads = 1 if tiny else 3
    for n, size in enumerate(sizes):
        rank = 3 + n % 2
        gens = hub_subgroup(rng, size, rank)
        queries.append(_build("m.build", gens, rank))
        for _ in range(reads):
            for kind in ("m.contains", "m.express"):
                w = random_member(rng, gens, rng.randint(1, 2))
                queries.append(_read(kind, gens, w, True))
                queries.append(_read(kind, gens, w + (rng.choice((OUTSIDE, -OUTSIDE)),), False))
    for a, b in ((2, 3),) if tiny else FOLD_PAIRS:
        u = rand_primitive(rng, 10, ALPHABET)
        gens = [oracle.power_letters(u, a), oracle.power_letters(u, b)]
        queries.append(_build("m.build_fold", gens, 1))
        for k in (1, 2, 3):
            queries.append(_read("m.contains_fold", gens, oracle.power_letters(u, k), True))
            for sign in (1, -1):
                queries.append(_read("m.express_fold", gens, oracle.power_letters(u, sign * k), True))
        queries.append(_read("m.contains_fold", gens, u + (OUTSIDE,), False))
        queries.append(_read("m.express_fold", gens, u + (-OUTSIDE,), False))
    return queries


def run_build(lib, state, texts):
    graph = lib.build_graph([lib.parse_word(t) for t in texts])
    state["graph"] = graph
    return f"rank={lib.rank(graph)} vertices={graph.num_vertices}"


def run_contains(lib, state, text):
    return f"member={_yes(lib.contains(state['graph'], lib.parse_word(text)))}"


def run_express(lib, state, text):
    witness = lib.express(state["graph"], lib.parse_word(text))
    return "member=false" if witness is None else "witness=" + lib.format_word(witness, symbol="y")


def check_build(expect, answer):
    return answer.startswith(f"rank={expect[0]} vertices=")


def check_contains(expect, answer):
    return answer == f"member={_yes(expect[0])}"


def check_express(expect, answer):
    member, letters, gens = expect
    if not member:
        return answer == "member=false"
    if not answer.startswith("witness="):
        return False
    return oracle.substitute(oracle.parse_flat(answer[len("witness=") :], "y"), gens) == letters


# ---------------------------------------------------------------------------
# tower: promotion to levels 6-7, normal forms, root certificates


def level_letters(k) -> list[int]:
    return signed(range(2**k, 2 ** (k + 1)))


def tower_word(rng, k, n, primitive=False) -> tuple[int, ...]:
    """Canonical (not a phi image) word of length n at level k."""
    if k == 0:
        return (rng.choice((1, -1)),) * n
    while True:
        w = rand_word(rng, n, level_letters(k))
        if oracle.phi_preimage(w) is None and (not primitive or oracle.root_exponent(w) == 1):
            return w


# (base level, target level); promoted words have 4k-32k letters
NORMALIZE = ((0, 6), (0, 7), (1, 6), (1, 7), (2, 6), (2, 7), (3, 6), (3, 7))
PRIMES = (2, 3, 5)


def tower_round(rng, tiny=False) -> list[Query]:
    queries = []
    templates = ((0, 7), (1, 5)) if tiny else NORMALIZE
    for kind in ("t.norm_strip", "t.norm_none"):
        sizes = [4**7, 4**5] if tiny else stratified_sizes(rng, len(templates), 4096, 32768)
        rng.shuffle(sizes)
        for (k, m), size in zip(templates, sizes):
            base = tower_word(rng, k, max(1, round(size / 4 ** (m - k))))
            if kind == "t.norm_strip":
                queries.append(Query(kind, (k, oracle.fmt(base), m), (k, base, m, None)))
            else:
                top = tower_word(rng, m, rng.randint(16, 32))
                queries.append(Query(kind, (k, oracle.fmt(base), m, oracle.fmt(top)), (k, base, m, top)))
    k, max_level = (2, 5) if tiny else (3, 7)
    for p in PRIMES[:1] if tiny else PRIMES:
        v = tower_word(rng, k, rng.randint(6, 10), primitive=True)
        plain = tower_word(rng, k, rng.randint(20, 40), primitive=True)
        for built, w in ((True, oracle.power_letters(v, p)), (False, plain)):
            for kind, cross_check in (("t.root_theorem", False), ("t.root_cross", True)):
                queries.append(Query(kind, (k, oracle.fmt(w), p, max_level, cross_check), (k, built, v)))
    for i, a_len, j, b_len in ((1, 4, 3, 8),) if tiny else ((0, 1, 5, 16), (1, 6, 4, 12), (2, 8, 5, 16), (3, 16, 6, 16)):
        a, b = tower_word(rng, i, a_len), tower_word(rng, j, b_len)
        queries.append(Query("t.h_multiply", (i, oracle.fmt(a), j, oracle.fmt(b)), (i, a, j, b)))
    for n in (3,) if tiny else (3, 4, 5, 6):
        w = tower_word(rng, n, rng.randint(8, 16))
        if n % 2:
            w = oracle.power_letters(w, 2)
        queries.append(Query("t.centralizer", (n, oracle.fmt(w)), ()))
    for p, m in ((2, 5),) if tiny else ((2, 7), (3, 6), (5, 6)):
        v = tower_word(rng, 2, 6, primitive=True)
        queries.append(Query("t.root_long", (2, oracle.fmt(v), p, m), (2, v, p, m)))
    return queries


def run_normalize(lib, state, k, text, m, top=None):
    w = lib.promote(lib.TowerElement(k, lib.parse_word(text)), m).word
    if top is not None:
        w = lib.multiply(w, lib.parse_word(top))
    e = lib.normalize(m, w)
    return f"level={e.level} word={lib.format_word(e.word)}"


def check_normalize(expect, answer):
    k, base, m, top = expect
    if top is None:
        level, letters = k, base
    else:
        level, letters = oracle.normal_form(m, oracle.reduce_letters(oracle.promote(base, m - k) + top))
    return answer == f"level={level} word={oracle.fmt(letters)}"


def run_root(lib, state, k, text, p, max_level, cross_check):
    e = lib.normalize(k, lib.parse_word(text))
    cert = lib.has_p_root_in_H(e, p, max_level, cross_check=cross_check)
    if cert.witness is None:
        return f"status={cert.status}"
    return f"status={cert.status} level={cert.witness.level} witness={lib.format_word(cert.witness.word)}"


def check_root(expect, answer):
    k, built, v = expect
    if built:
        return answer == f"status=ROOT_FOUND level={k} witness={oracle.fmt(v)}"
    return answer == "status=NO_ROOT_PROVEN"


def run_h_multiply(lib, state, i, a, j, b):
    e = lib.h_multiply(lib.TowerElement(i, lib.parse_word(a)), lib.TowerElement(j, lib.parse_word(b)))
    return f"level={e.level} word={lib.format_word(e.word)}"


def check_h_multiply(expect, answer):
    i, a, j, b = expect
    level = max(i, j)
    product = oracle.reduce_letters(oracle.promote(a, level - i) + oracle.promote(b, level - j))
    level, letters = oracle.normal_form(level, product)
    return answer == f"level={level} word={oracle.fmt(letters)}"


def run_centralizer(lib, state, n, text):
    return f"compatible={_yes(lib.centralizer_compat(n, lib.parse_word(text)))}"


def check_centralizer(expect, answer):
    return answer == "compatible=true"


def run_root_long(lib, state, k, text, p, m):
    word = lib.promote(lib.TowerElement(k, lib.power(lib.parse_word(text), p)), m).word
    root = lib.kth_root(word, p)
    dec = lib.primitive_root(word)
    return f"exponent={dec.exponent} root={'none' if root is None else lib.format_word(root)}"


def check_root_long(expect, answer):
    k, v, p, m = expect
    return answer == f"exponent={p} root={oracle.fmt(oracle.promote(v, m - k))}"


# ---------------------------------------------------------------------------
# abelian: Smith normal form (sparse and dense), amalgam normal forms, witnesses


def unimodular(rng, n) -> list[list[int]]:
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[j] = [x + c * y for x, y in zip(m[j], m[i])]
    rng.shuffle(m)
    return m


def dense_presentation(rng, n):
    """Square relation matrix U*D*V with D a divisibility chain; the entries
    are kept small enough that the relator words stay short."""
    while True:
        chain = [1]
        for _ in range(n - 1):
            chain.append(chain[-1] * rng.choice((1, 1, 2, 3)))
        if rng.random() < 0.5:
            chain[-1] = 0
        d = [[chain[i] if i == j else 0 for j in range(n)] for i in range(n)]
        m = oracle.mat_mul(oracle.mat_mul(unimodular(rng, n), d), unimodular(rng, n))
        if max(abs(x) for row in m for x in row) <= 300:
            break
    lines = [f"gens: {n}"]
    for row in m:
        lines.append(oracle.fmt(oracle.reduce_letters(
            letter for j, e in enumerate(row, start=1) for letter in [j if e > 0 else -j] * abs(e)
        )))
    torsion = tuple(c for c in chain if c >= 2)
    return "\n".join(lines) + "\n", oracle.format_abelian(torsion, chain.count(0))


def amalgam_query(rng, tail) -> Query:
    """Two base syllables w_i * x^(k_i), each ending in ``tail`` letters of a
    power of x, around a t-power (sometimes >= p^d, so it is absorbed)."""
    rank = rng.choice((2, 3))
    letters = signed(range(1, rank + 1))
    x = rand_primitive(rng, 4, letters)
    p, d = rng.choice(PRIMES), rng.choice((1, 2))
    syllables = [
        oracle.fmt(oracle.reduce_letters(rand_word(rng, 6, letters) + x * (tail // 4))) for _ in range(2)
    ]
    j = rng.randint(1, 3 * p**d)
    items = (syllables[0], f"t^{j}", syllables[1])
    return Query("a.amalgam", (rank, oracle.fmt(x), p, d, items), (p, d, j, tail))


def abelian_round(rng, tiny=False) -> list[Query]:
    queries = [Query("a.truncation", (n,), (n,)) for n in ((4, 5) if tiny else (3, 4, 5, 6, 7))]
    for _ in range(1 if tiny else 8):
        l, m, n = (rng.choice((-1, 1)) * rng.randint(2, 40) for _ in range(3))
        queries.append(Query("a.triangle", (l, m, n), (l, m, n)))
    for n in (3,) if tiny else (3, 4, 5, 6, 7, 5, 6, 7):
        text, answer = dense_presentation(rng, n)
        queries.append(Query("a.dense", (text,), (answer,)))
    for tail in (20, 40) if tiny else stratified_sizes(rng, 6, 20, 160):
        queries.append(amalgam_query(rng, tail))
    # twenty more level-5 witnesses (about 4 ms each) put a tight cluster of
    # latencies where the median of the tower_abelian mix falls
    for level in (2, 3) if tiny else (2, 3, 4, 5, 6, 7) * 2 + (5,) * 20:
        p, d = rng.choice(PRIMES), rng.randint(1, 3)
        queries.append(Query("a.witness", (level, p, d), (p, d)))
    return queries


def run_truncation(lib, state, n):
    return lib.format_abelian_invariants(lib.abelianization(lib.tower_truncation(n)))


def check_truncation(expect, answer):
    return answer == oracle.format_abelian((), 2 ** expect[0])


def run_triangle(lib, state, l, m, n):
    inv = lib.abelianization(lib.triangle_group(l, m, n))
    return f"{lib.format_abelian_invariants(inv)} finite={_yes(lib.triangle_is_finite(l, m, n))}"


def check_triangle(expect, answer):
    return answer == oracle.triangle_answer(*expect)


def run_dense(lib, state, text):
    return lib.format_abelian_invariants(lib.abelianization(lib.parse_presentation(text)))


def check_dense(expect, answer):
    return answer == expect[0]


def run_amalgam(lib, state, rank, x, p, d, items):
    group = lib.adjoin_root(rank, lib.parse_word(x), p, d)
    expression = [lib.TPower(int(s[2:])) if s.startswith("t^") else lib.parse_word(s) for s in items]
    e = lib.amalgam_normalize(group, expression)
    product = lib.amalgam_multiply(e, lib.amalgam_invert(e))
    return (
        f"identity={_yes(product.is_identity())} "
        f"prufer={lib.prufer_quotient_map(group, e)} normal_form={e}"
    )


def check_amalgam(expect, answer):
    p, d, t_sum, _ = expect
    return answer.startswith(f"identity=true prufer={oracle.prufer_text(p, t_sum, d)} normal_form=")


def run_witness(lib, state, level, p, d):
    report = lib.witness_nonperfect(level, p, d).to_dict()
    return f"quotient={report['quotient']} t_image={report['t_image']}"


def check_witness(expect, answer):
    p, d = expect
    return answer == f"quotient=Z/{p**d} t_image=1/{p**d}"


# ---------------------------------------------------------------------------

KINDS = {
    "m.build": (run_build, check_build),
    "m.build_fold": (run_build, check_build),
    "m.contains": (run_contains, check_contains),
    "m.contains_fold": (run_contains, check_contains),
    "m.express": (run_express, check_express),
    "m.express_fold": (run_express, check_express),
    "t.norm_strip": (run_normalize, check_normalize),
    "t.norm_none": (run_normalize, check_normalize),
    "t.root_theorem": (run_root, check_root),
    "t.root_cross": (run_root, check_root),
    "t.h_multiply": (run_h_multiply, check_h_multiply),
    "t.centralizer": (run_centralizer, check_centralizer),
    "t.root_long": (run_root_long, check_root_long),
    "a.truncation": (run_truncation, check_truncation),
    "a.triangle": (run_triangle, check_triangle),
    "a.dense": (run_dense, check_dense),
    "a.amalgam": (run_amalgam, check_amalgam),
    "a.witness": (run_witness, check_witness),
}

def tower_abelian_round(rng, tiny=False) -> list[Query]:
    """A tower round followed by an abelian round: one workload for every
    layer but stallings, so that each run can be long."""
    return tower_round(rng, tiny) + abelian_round(rng, tiny)


ROUNDS = {"membership": membership_round, "tower_abelian": tower_abelian_round}


def execute(lib, state, query: Query):
    return KINDS[query.kind][0](lib, state, *query.payload)


def check(query: Query, answer: str) -> bool:
    return KINDS[query.kind][1](query.expect, answer)


def size_of(query: Query) -> int:
    """The size a layer's scaling is fitted against, where it is not an
    argument of a single call: the x-power tail of an amalgam query."""
    return query.expect[3] if query.kind == "a.amalgam" else 0


# ---------------------------------------------------------------------------
# fixed-size sweep points (the baselines the roadmap's open items cite)


def _median_time(fn, reps) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sweep(lib, rng, reps) -> dict[str, float]:
    """Median seconds of single calls at the roadmap's re-anchor sizes."""
    out = {}
    for size in (320, 640):
        gens = [lib.Word(g) for g in hub_subgroup(rng, size, 4)]
        out[f"stallings.build_graph_{size}_s"] = _median_time(lambda: lib.build_graph(gens), reps)
    for tail in (160, 320):
        x = rand_primitive(rng, 4, signed((1, 2)))
        group = lib.adjoin_root(2, lib.Word(x), 2, 1)
        syllable = lib.Word(oracle.reduce_letters(rand_word(rng, 6, signed((1, 2))) + x * (tail // 4)))
        out[f"adjunction.coset_rep_{tail}_s"] = _median_time(
            lambda: lib.amalgam_normalize(group, [syllable]), reps
        )
    for n, gens in ((6, 127), (7, 255)):
        pres = lib.tower_truncation(n)
        out[f"presentations.abelianize_{gens}_s"] = _median_time(lambda: lib.abelianization(pres), reps)
    top = lib.promote(lib.TowerElement(0, lib.Word((1,))), 6).word
    out["tower.normalize_4096_s"] = _median_time(lambda: lib.normalize(6, top), reps)
    long_word = lib.Word(rand_primitive(rng, 70, signed(range(1, 4))) * 1000)
    out["roots.primitive_root_70k_s"] = _median_time(lambda: lib.primitive_root(long_word), reps)
    return out
