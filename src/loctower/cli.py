"""Command-line entry point.

One subcommand per invocation; reports are deterministic (identical inputs
give byte-identical output) and ``--json`` switches every subcommand to a
machine-readable rendering with stable field names.

Exit codes: 0 success, 1 domain error, 2 parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings

from . import adjunction, presentations, roots, stallings, tower, words
from .words import format_word, parse_word


def _cmd_reduce(args) -> dict:
    w = parse_word(args.word, args.max_length)
    return {"word": format_word(w), "length": len(w)}


def _cmd_root(args) -> dict:
    w = parse_word(args.word, args.max_length)
    dec = roots.primitive_root(w)
    return {"root": format_word(dec.root), "exponent": dec.exponent}


def _cmd_centralizer(args) -> dict:
    w = parse_word(args.word, args.max_length)
    return {"generator": format_word(roots.centralizer_generator(w))}


def _cmd_subgroup(args) -> dict:
    gens = [parse_word(g, args.max_length) for g in args.generators]
    query = parse_word(args.word, args.max_length)
    graph = stallings.build_graph(gens)
    witness = stallings.express(graph, query)
    out: dict = {"member": witness is not None}
    if witness is not None:
        out["witness"] = format_word(witness, symbol="y")
    if args.graph:
        out["graph"] = stallings.graph_edge_lines(graph)
    return out


def _cmd_tower_phi(args) -> dict:
    w = parse_word(args.word, args.max_length)
    image = tower.phi(args.level, w, max_length=args.max_length)
    return {"level": args.level + 1, "word": format_word(image)}


def _cmd_tower_normalize(args) -> dict:
    w = parse_word(args.word, args.max_length)
    e = tower.normalize(args.level, w)
    return {"level": e.level, "word": format_word(e.word)}


def _cmd_tower_root(args) -> dict:
    w = parse_word(args.word, args.max_length)
    e = tower.normalize(args.level, w)
    cert = tower.has_p_root_in_H(
        e,
        args.prime,
        args.max_level,
        cross_check=args.cross_check,
        max_length=args.max_length,
    )
    out = {
        "status": cert.status,
        "mode": cert.mode,
        "prime": cert.prime,
        "base_level": cert.base_level,
        "checked_levels": list(cert.checked_levels),
    }
    if cert.witness is not None:
        out["witness_level"] = cert.witness.level
        out["witness"] = format_word(cert.witness.word)
    elif cert.mode == "theorem":
        out["note"] = (
            "rootless at the base level; root transfer propagates the "
            "failure to every higher level"
        )
    return out


def _cmd_tower_centralizer_check(args) -> dict:
    w = parse_word(args.word, args.max_length)
    # centralizer_compat builds phi(w), of 4|w| letters
    tower._check_promotion(args.level, len(w), args.level + 1, args.max_length)
    ok = tower.centralizer_compat(args.level, w)
    return {"level": args.level, "word": format_word(w), "compatible": ok}


def _cmd_abelianize(args) -> dict:
    if args.triangle is not None:
        l, m, n = args.triangle
        # the relators x^l y^-m and y^m (xy)^-n are built from powers
        bound = max(abs(l) + abs(m), abs(m) + 2 * abs(n))
        words._check_length("triangle relator", bound, args.max_length)
        pres = presentations.triangle_group(l, m, n)
        inv = presentations.abelianization(pres)
        return {
            "abelianization": presentations.format_abelian_invariants(inv),
            "finite": presentations.triangle_is_finite(l, m, n),
        }
    if args.file is None:
        raise ValueError("provide a presentation file or --triangle l m n")
    with open(args.file, "r", encoding="utf-8") as handle:
        pres = presentations.parse_presentation(handle.read(), args.max_length)
    inv = presentations.abelianization(pres)
    return {
        "abelianization": presentations.format_abelian_invariants(inv),
        "perfect": inv.is_trivial(),
    }


def _parse_amalgam_expression(text: str, limit: int) -> list:
    """Split an adjunction expression into base words and t-powers.

    Factors are separated by ``*`` or whitespace; ``t`` and ``t^j`` denote
    powers of the adjoined root generator.
    """
    items = []
    for chunk in text.replace("*", " ").split():
        if chunk == "t":
            items.append(adjunction.TPower(1))
        elif chunk.startswith("t^"):
            items.append(adjunction.TPower(words._integer(chunk, 2)))
        else:
            items.append(parse_word(chunk, limit))
    return items


def _cmd_adjoin(args) -> dict:
    root_of = parse_word(args.root_of, args.max_length)
    with warnings.catch_warnings():
        # the rebase is reported on stdout as rebased_from
        warnings.filterwarnings("ignore", "root_of .* is a proper power", UserWarning)
        group = adjunction.adjoin_root(args.base_rank, root_of, args.prime, args.depth)
    out = {
        "base_rank": group.base_rank,
        "root_of": format_word(group.root_of),
        "prime": group.prime,
        "depth": group.depth,
        "relation": f"t^{group.relation_exponent} = {format_word(group.root_of)}",
    }
    if group.root_of != root_of:
        out["rebased_from"] = format_word(root_of)
    if args.normalize is not None:
        expr = _parse_amalgam_expression(args.normalize, args.max_length)
        # Refuse before any long word is built.  Each normal form met while
        # normalizing, the printed one too, and each power of x built on the
        # way has at most B letters, B = sum(|w| + 2|x|) over base words w
        # plus |x| * sum(|e| // p^d + 1) over t-powers t^e: t^e moves at most
        # |e| // p^d + 1 powers of x into the tail, splitting a syllable into
        # a coset representative and a power of x adds at most |x|, and the
        # coset search builds powers of x at most 2|x| past the syllable.
        x, q = len(group.root_of), group.relation_exponent
        bases = [len(i) for i in expr if isinstance(i, words.Word)]
        t_powers = [abs(i.exponent) for i in expr if isinstance(i, adjunction.TPower)]
        bound = sum(bases) + 2 * x * len(bases) + x * sum(e // q + 1 for e in t_powers)
        words._check_length("normal form bound", bound, args.max_length)
        element = adjunction.amalgam_normalize(group, expr)
        out["normal_form"] = str(element)
        out["prufer_image"] = str(adjunction.prufer_quotient_map(group, element))
    return out


def _cmd_witness(args) -> dict:
    report = adjunction.witness_nonperfect(args.level, args.prime, args.depth, args.max_length)
    return report.to_dict()


def _cmd_prufer(args) -> dict:
    a = adjunction.parse_prufer(args.prime, args.a)
    b = adjunction.parse_prufer(args.prime, args.b)
    total = (a + b) % 1
    return {"sum": str(total), "order": total.denominator}


def _integer_option(text: str) -> int:
    try:
        return words._integer(text)
    except words.WordSyntaxError as exc:  # argparse names the option and exits 2
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loctower",
        description="Free-group word algorithms, subgroup graphs, the "
        "commutator tower, abelianization, and finite-depth root adjunction.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--max-length",
        type=_integer_option,
        default=10**6,
        metavar="N",
        help="abort before producing words longer than N letters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="freely reduce a word")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("root", help="primitive root and maximal exponent")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_root)

    p = sub.add_parser("centralizer", help="generator of the centralizer")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_centralizer)

    p = sub.add_parser("subgroup", help="membership in a finitely generated subgroup")
    p.add_argument("generators", nargs="+", metavar="GENERATOR")
    p.add_argument("--word", required=True, help="query word")
    p.add_argument("--graph", action="store_true", help="dump the folded graph")
    p.set_defaults(handler=_cmd_subgroup)

    t = sub.add_parser("tower", help="commutator-tower operations")
    tsub = t.add_subparsers(dest="tower_command", required=True)

    p = tsub.add_parser("phi", help="apply the commutator embedding once")
    p.add_argument("word")
    p.add_argument("--level", type=_integer_option, required=True)
    p.set_defaults(handler=_cmd_tower_phi)

    p = tsub.add_parser("normalize", help="minimal-level representative")
    p.add_argument("word")
    p.add_argument("--level", type=_integer_option, required=True)
    p.set_defaults(handler=_cmd_tower_normalize)

    p = tsub.add_parser("root", help="p-root certificate in the tower group")
    p.add_argument("word")
    p.add_argument("--level", type=_integer_option, required=True)
    p.add_argument("--prime", type=_integer_option, required=True)
    p.add_argument("--max-level", type=_integer_option, required=True)
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="test every level instead of relying on root transfer",
    )
    p.set_defaults(handler=_cmd_tower_root)

    p = tsub.add_parser("centralizer-check", help="centralizer compatibility across phi")
    p.add_argument("word")
    p.add_argument("--level", type=_integer_option, required=True)
    p.set_defaults(handler=_cmd_tower_centralizer_check)

    p = sub.add_parser("abelianize", help="abelian invariants of a presentation")
    p.add_argument("file", nargs="?", help="presentation file")
    p.add_argument(
        "--triangle",
        nargs=3,
        type=_integer_option,
        metavar=("L", "M", "N"),
        help="use the triangle-extension group G(l,m,n)",
    )
    p.set_defaults(handler=_cmd_abelianize)

    p = sub.add_parser("adjoin", help="adjoin a p^d-th root to a free-group element")
    p.add_argument("--base-rank", type=_integer_option, required=True)
    p.add_argument("--root-of", required=True, metavar="WORD")
    p.add_argument("--prime", type=_integer_option, required=True)
    p.add_argument("--depth", type=_integer_option, required=True)
    p.add_argument("--normalize", metavar="EXPR", help="normalize an expression")
    p.set_defaults(handler=_cmd_adjoin)

    p = sub.add_parser("witness", help="non-perfectness witness report")
    p.add_argument("--level", type=_integer_option, required=True)
    p.add_argument("--prime", type=_integer_option, required=True)
    p.add_argument("--depth", type=_integer_option, required=True)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("prufer", help="add two Prüfer-group elements")
    # argparse takes "-1/3" for an option unless it matches this pattern
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    p.add_argument("--prime", type=_integer_option, required=True)
    p.add_argument("a", help="element written a/p^k, e.g. 1/4")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_prufer)

    return parser


def _format_result(result: dict) -> str:
    lines = []
    for key, value in result.items():
        if isinstance(value, list) and all(isinstance(i, str) for i in value):
            lines.extend(value)
        elif isinstance(value, list):
            lines.append(f"{key}={','.join(str(i) for i in value)}")
        elif isinstance(value, bool):
            lines.append(f"{key}={'true' if value else 'false'}")
        else:
            lines.append(f"{key}={value}")
    return "\n".join(lines)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except (words.WordSyntaxError, presentations.PresentationSyntaxError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        print(_format_result(result))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
