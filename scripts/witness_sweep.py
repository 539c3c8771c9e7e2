#!/usr/bin/env python3
"""Sweep non-perfectness witnesses over primes and adjunction depths.

For each (prime, depth) pair the script adjoins a depth-d p-root to the
rootless distinguished element of the chosen tower level and reports the
abelian quotient the adjunction stage surjects onto.
"""

from __future__ import annotations

import argparse
import json
import sys

from loctower.adjunction import _check_relation, witness_nonperfect
from loctower.cli import DEFAULT_MAX_LENGTH, _integer_option


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--level", type=_integer_option, default=2, help="tower level (default 2)")
    parser.add_argument("--primes", type=_integer_option, nargs="+", default=[2, 3, 5], metavar="P")
    parser.add_argument("--max-depth", type=_integer_option, default=3, metavar="D")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    if args.max_depth < 1:  # the sweep would be empty: refused as loctower refuses depth 0
        sys.exit("error: depth must be >= 1")
    depths = range(1, args.max_depth + 1)
    try:
        # every pair, in sweep order, before any witness is built; the range
        # is lazy, so a huge --max-depth stops at its first refused exponent
        for p in args.primes:
            for d in depths:
                _check_relation(p, d)
        rows = [
            witness_nonperfect(args.level, p, d, DEFAULT_MAX_LENGTH).to_dict()
            for p in args.primes
            for d in depths
        ]
    except ValueError as exc:  # a refusal, as loctower reports it
        sys.exit(f"error: {exc}")
    if args.json:
        print(json.dumps(rows, indent=2))
        return
    print(f"level {args.level} (base rank {rows[0]['base_rank']})")
    print(f"{'prime':>5} {'depth':>5} {'quotient':>10} {'t_image':>8} {'rootless':>8}")
    for row in rows:
        print(
            f"{row['prime']:>5} {row['depth']:>5} {row['quotient']:>10} "
            f"{row['t_image']:>8} {str(row['rootless']).lower():>8}"
        )


if __name__ == "__main__":
    main()
