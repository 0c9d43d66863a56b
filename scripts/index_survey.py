#!/usr/bin/env python3
"""Survey the principal-congruence index over a range of levels.

Every level of norm 2 to --max-norm (`ideals.ideals_up_to`) gets a row,
labelled by its HNF [d1,k,d2]: the closed formula, the orbit-stabilizer
count and the ambient SL2 order side by side, flagging where reduction
fails to be surjective.  The chain counts at `quotient.DEFAULT_CAP`; a
level whose orbit passes it is counted as `-`, and `sec` times the chain
whether it counted or stopped.  --max-norm reads an integer as `hecke5
--cap` does (`cli.positive_int`), and a reader that closes stdout early
(`| head`) ends the survey quietly.

Example:
    python3 scripts/index_survey.py --max-norm 60
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from hecke5.cli import positive_int
from hecke5.formula import index_formula
from hecke5.ideals import ideals_up_to
from hecke5.quotient import CapExceededError, Chain, sl2_order


def run(max_norm: int) -> None:
    header = f"{'level':>14} {'norm':>6} {'formula':>12} {'counted':>12} {'sl2':>12} {'onto':>5} {'sec':>7}"
    print(header)
    print("-" * len(header))
    for ideal in ideals_up_to(max_norm):
        report = index_formula(ideal)
        sl2 = sl2_order(ideal)
        start = time.perf_counter()
        try:
            counted = Chain(ideal).order
        except CapExceededError:
            counted = "-"
        elapsed = time.perf_counter() - start
        if counted not in ("-", report.total):
            sys.exit(f"level {ideal}: formula {report.total} != count {counted}")
        onto = "yes" if report.total == sl2 else "no"
        print(
            f"{str(ideal):>14} {ideal.norm:>6} {report.total:>12} {counted:>12} "
            f"{sl2:>12} {onto:>5} {elapsed:>7.2f}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-norm", type=positive_int, default=50)
    args = parser.parse_args()
    try:
        run(args.max_norm)
        sys.stdout.flush()
    except BrokenPipeError:
        # as in `cli.main`: what is left goes to devnull, so that the flush
        # at interpreter exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    main()
