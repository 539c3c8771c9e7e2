#!/usr/bin/env python3
"""Survey p-root certificates for the distinguished generator in the tower.

Runs both certificate modes (theorem and exhaustive cross-check) for each
prime and confirms they agree level by level.
"""

from __future__ import annotations

import argparse
import json

from loctower.tower import TowerElement, has_p_root_in_H
from loctower.words import format_word, word


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5], metavar="P")
    parser.add_argument("--max-level", type=int, default=4, metavar="N")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    element = TowerElement(0, word(1))
    rows = []
    for p in args.primes:
        theorem = has_p_root_in_H(element, p, args.max_level)
        exhaustive = has_p_root_in_H(element, p, args.max_level, cross_check=True)
        if theorem.status != exhaustive.status:
            raise AssertionError(f"p={p}: theorem mode and cross-check disagree")
        rows.append(
            {
                "element": format_word(element.word),
                "prime": p,
                "status": theorem.status,
                "theorem_levels": list(theorem.checked_levels),
                "cross_check_levels": list(exhaustive.checked_levels),
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2))
        return
    for row in rows:
        levels = ",".join(str(l) for l in row["cross_check_levels"])
        print(
            f"element {row['element']}  p={row['prime']}  {row['status']}  "
            f"(theorem mode confirmed by checking levels {levels})"
        )


if __name__ == "__main__":
    main()
