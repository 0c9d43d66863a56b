#!/usr/bin/env python3
"""Survey the principal-congruence index over a range of levels.

For each level the closed formula, the orbit-stabilizer count and the
ambient SL2 order are tabulated side by side, flagging where reduction
fails to be surjective.  Levels whose formula index exceeds
--max-enumerate are reported from the formula alone.

Example:
    python3 scripts/index_survey.py --max-norm 60 --max-enumerate 200000
"""

from __future__ import annotations

import argparse
import math
import time

from hecke5.formula import index_formula
from hecke5.golden import GoldenInt
from hecke5.ideals import IdealHNF, ideal_from_generator
from hecke5.quotient import index_h, sl2_order


def candidate_levels(max_norm: int) -> list[tuple[str, IdealHNF]]:
    """Principal ideals from small generators, deduplicated by HNF."""
    seen: dict[IdealHNF, tuple[tuple, str]] = {}
    bound = int(math.isqrt(max_norm)) + 2
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            g = GoldenInt(a, b)
            if not g or g.norm() < 2 or g.norm() > max_norm:
                continue
            ideal = ideal_from_generator(g)
            label = f"({a})" if b == 0 else f"({g})"
            # prefer rational, then nonnegative, then short generators
            pref = (b != 0, a < 0 or b < 0, len(label), label)
            if ideal not in seen or pref < seen[ideal][0]:
                seen[ideal] = (pref, label)
    ranked = sorted(seen.items(), key=lambda kv: (kv[0].norm, kv[0].d1, kv[0].k))
    return [(ideal, label) for ideal, (_, label) in ranked]


def run(max_norm: int, max_enumerate: int) -> None:
    header = f"{'level':>14} {'norm':>6} {'formula':>12} {'counted':>12} {'sl2':>12} {'onto':>5} {'sec':>7}"
    print(header)
    print("-" * len(header))
    for ideal, label in candidate_levels(max_norm):
        report = index_formula(ideal)
        sl2 = sl2_order(ideal)
        counted = "-"
        elapsed = 0.0
        # the orbit is never larger than the index, so capping it at
        # max_enumerate never stops a count this test lets through
        if report.total <= max_enumerate:
            start = time.perf_counter()
            counted = str(index_h(ideal, max_enumerate))
            elapsed = time.perf_counter() - start
            if int(counted) != report.total:
                raise AssertionError(
                    f"formula {report.total} != count {counted} at {label}"
                )
        onto = "yes" if report.total == sl2 else "no"
        print(
            f"{label:>14} {ideal.norm:>6} {report.total:>12} {counted:>12} "
            f"{sl2:>12} {onto:>5} {elapsed:>7.2f}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-norm", type=int, default=50)
    parser.add_argument("--max-enumerate", type=int, default=500_000,
                        help="skip counting when the formula index exceeds this")
    args = parser.parse_args()
    run(args.max_norm, args.max_enumerate)


if __name__ == "__main__":
    main()
