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

from . import adjunction, presentations, roots, stallings, tower, words
from .words import format_word, parse_word

DEFAULT_MAX_LENGTH = 10**6  # --max-length, and the budget of the scripts


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
    ok = tower.centralizer_compat(args.level, w, args.max_length)
    return {"level": args.level, "word": format_word(w), "compatible": ok}


def _cmd_abelianize(args) -> dict:
    if args.triangle is not None:
        pres = presentations.triangle_group(*args.triangle, args.max_length)
    elif args.file is None:
        raise ValueError("provide a presentation file or --triangle l m n")
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            pres = presentations.parse_presentation(handle.read(), args.max_length)
    inv = presentations.abelianization(pres)
    out = {"abelianization": presentations.format_abelian_invariants(inv)}
    if args.triangle is not None:
        out["finite"] = presentations.triangle_is_finite(*args.triangle)
    else:
        out["perfect"] = inv.is_trivial()
    return out


def _parse_amalgam_expression(text: str, limit: int) -> list:
    """Split an adjunction expression at ``t`` and ``t^j``, set off by blanks
    or ``*``; the text between two of them is one base word.  Columns count
    in the whole expression."""
    text = re.sub(r"\s", " ", text)  # each blank str.split sees, column for column
    items, start = [], 0
    for i, piece in enumerate(re.split(r"(?<![^ *])(t(?:\^[^ *]*)?)(?![^ *])", text)):
        if i % 2:  # a t-power
            j = 1 if piece == "t" else words._integer(text, start + 2, start + len(piece))
            items.append(adjunction.TPower(j))
        elif piece.strip(" *"):
            try:
                items.append(parse_word(piece, limit))
            except ValueError:  # parsed again behind blanks, for columns in the whole text
                parse_word(" " * start + piece, limit)
                raise
        start += len(piece)
    return items


def _cmd_adjoin(args) -> dict:
    root_of = parse_word(args.root_of, args.max_length)
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
        element = adjunction.amalgam_normalize(group, expr, args.max_length)
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
        default=DEFAULT_MAX_LENGTH,
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
    except (OSError, ValueError) as exc:
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
