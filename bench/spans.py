"""The library as the benchmark sees it, with optional spans at each call.

``bind`` returns a namespace holding the public functions the workloads
call.  Untraced, the names are the library's own functions.  Traced, each
is wrapped to record a span ``(name, query, start, end, size, extra,
refused)`` in memory; ``size`` and ``extra`` are work measures taken from
the arguments and result after the clock stops.  Spans sit around the
benchmark's calls into a layer only, so time a layer spends inside another
layer's call is charged to the caller.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from types import SimpleNamespace

LAYERS = {
    "words": ("Word", "parse_word", "format_word", "multiply", "power"),
    "roots": ("kth_root", "primitive_root"),
    "stallings": ("build_graph", "contains", "express", "rank"),
    "tower": ("TowerElement", "promote", "normalize", "has_p_root_in_H", "h_multiply", "centralizer_compat"),
    "presentations": (
        "tower_truncation", "triangle_group", "triangle_is_finite", "parse_presentation",
        "abelianization", "format_abelian_invariants", "relation_matrix", "smith_normal_form",
    ),
    "adjunction": (
        "TPower", "adjoin_root", "amalgam_normalize", "amalgam_invert", "amalgam_multiply",
        "prufer_quotient_map", "witness_nonperfect",
    ),
    "cli": ("run",),
}


def _letters(value) -> int:
    word = getattr(value, "word", value)
    return len(word) if hasattr(word, "letters") else 0


def _measure(name, args, kwargs, result) -> tuple[int, int]:
    """(size, extra) of one call: input letters or generators, and a
    function-specific count."""
    if name == "stallings.build_graph":
        return sum(len(g) for g in args[0]), result.num_vertices
    if name == "tower.normalize":
        return len(args[1]), args[0] - result.level
    if name == "tower.has_p_root_in_H":
        return len(args[0].word), int(kwargs.get("cross_check", False))
    if name == "presentations.abelianization":
        return args[0].generator_count, 0
    if name == "adjunction.witness_nonperfect":
        return 4 ** args[0], 0
    size = sum(_letters(a) for a in args)
    if name == "words.parse_word":
        size = len(args[0])
    return size, _letters(result)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.queries: list[tuple[str, int]] = []  # (kind, size parameter)
        self.current = -1

    def begin(self, kind, size=0) -> None:
        self.current = len(self.queries)
        self.queries.append((kind, size))

    def wrap(self, name, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except (ValueError, RuntimeError):
                spans.append((name, self.current, start, perf_counter(), 0, 0, True))
                raise
            end = perf_counter()
            size, extra = _measure(name, args, kwargs, result)
            spans.append((name, self.current, start, end, size, extra, False))
            return result

        return traced


def bind(modules, tracer: Tracer | None = None) -> SimpleNamespace:
    lib = SimpleNamespace()
    for layer, names in LAYERS.items():
        for name in names:
            fn = getattr(modules[layer], name)
            if tracer is not None and not isinstance(fn, type):
                fn = tracer.wrap(f"{layer}.{name}", fn)
            setattr(lib, name, fn)
    return lib


def fitted_exponent(points) -> float:
    """Least-squares slope of log(seconds) on log(size), over the median
    time at each size; 0.0 with fewer than two sizes."""
    by_size: dict[int, list[float]] = {}
    for size, seconds in points:
        if size > 0 and seconds > 0:
            by_size.setdefault(size, []).append(seconds)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals, counts and fitted exponents from the recorded spans."""
    kinds = [q[0] for q in tracer.queries]
    total: dict[str, float] = {}
    m: dict[str, float] = {}
    build_points, sparse_points, witness_points = [], [], []
    amalgam_time: dict[int, float] = {}
    letters_built = max_root = max_tower = stripped = refused = 0
    vertices = build_letters = 0
    sparse = dense = basis = folded = theorem = cross = 0.0
    for name, qid, start, end, size, extra, failed in tracer.spans:
        seconds = end - start
        total[name] = total.get(name, 0.0) + seconds
        layer = name.split(".", 1)[0]
        kind = kinds[qid] if qid >= 0 else ""
        if layer == "words" and name != "words.format_word":
            letters_built += extra
        elif layer == "roots":
            max_root = max(max_root, size)
        elif layer == "tower":
            max_tower = max(max_tower, size, extra if name in ("tower.promote", "tower.h_multiply") else 0)
        if name == "stallings.build_graph" and not failed:
            build_points.append((size, seconds))
            vertices += extra
            build_letters += size
        elif name == "stallings.express":
            refused += failed
            if kind.endswith("_fold"):
                folded += seconds
            else:
                basis += seconds
        elif name == "tower.normalize":
            stripped += extra
        elif name == "tower.has_p_root_in_H":
            if extra:
                cross += seconds
            else:
                theorem += seconds
        elif name == "presentations.abelianization":
            if kind == "a.truncation":
                sparse += seconds
                sparse_points.append((size, seconds))
            else:
                dense += seconds
        elif name == "adjunction.witness_nonperfect":
            witness_points.append((size, seconds))
        if layer == "adjunction" and kind == "a.amalgam" and name != "adjunction.witness_nonperfect":
            amalgam_time[qid] = amalgam_time.get(qid, 0.0) + seconds

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    m["words.parse_s"] = t("words.parse_word")
    m["words.format_s"] = t("words.format_word")
    m["words.arith_s"] = t("words.multiply", "words.power")
    m["words.letters_built"] = letters_built
    m["roots.kth_root_s"] = t("roots.kth_root")
    m["roots.primitive_root_s"] = t("roots.primitive_root")
    m["roots.max_letters"] = max_root
    m["stallings.build_graph_s"] = t("stallings.build_graph")
    m["stallings.build_graph_exp"] = fitted_exponent(build_points)
    m["stallings.fold_ratio"] = vertices / build_letters if build_letters else 0.0
    m["stallings.contains_s"] = t("stallings.contains")
    m["stallings.express_basis_s"] = basis
    m["stallings.express_folded_s"] = folded
    m["stallings.express_refused"] = refused
    m["tower.promote_s"] = t("tower.promote")
    m["tower.normalize_s"] = t("tower.normalize")
    m["tower.levels_stripped"] = stripped
    m["tower.root_theorem_s"] = theorem
    m["tower.root_crosscheck_s"] = cross
    m["tower.h_multiply_s"] = t("tower.h_multiply")
    m["tower.max_letters"] = max_tower
    m["presentations.abelianize_sparse_s"] = sparse
    m["presentations.abelianize_sparse_exp"] = fitted_exponent(sparse_points)
    m["presentations.abelianize_dense_s"] = dense
    m["adjunction.normalize_s"] = t(
        "adjunction.amalgam_normalize", "adjunction.amalgam_invert", "adjunction.amalgam_multiply"
    )
    m["adjunction.witness_s"] = t("adjunction.witness_nonperfect")
    m["adjunction.witness_exp"] = fitted_exponent(witness_points)
    m["adjunction.coset_exp"] = fitted_exponent(
        (tracer.queries[qid][1], seconds) for qid, seconds in amalgam_time.items()
    )
    m["cli.readme_s"] = t("cli.run")
    return m
