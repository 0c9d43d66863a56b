#!/usr/bin/env python3
"""Time the stabilizer chain (`hecke5.quotient.Chain`), the verifiers,
the membership test and the closed formula of one or more checkouts
against each other.

Five measures and three counts, each per checkout root given:

- in process: the 27 levels of the `enumerate` benchmark workload
  (`bench/workloads.py`, LEVELS), each counted by `Chain` --passes
  times.  Every checkout's package is loaded into this one process, and
  the checkouts take turns on each level, in an order that alternates
  from pass to pass, so a slow spell of the machine hits them alike.
  The report is the sum over the levels of each level's fastest time,
  and for each checkout after the first, in how many passes its pass
  total (the sum of its times in that pass) was lower than the first
  checkout's ("lower in k of n");
- the work those 27 chains do, as the calls of their line forms
  (`quotient._line_form`): one per prime power of the level for each
  line key, the key of <e1> and one per edge walked.  Unlike the
  timings it does not drift with the machine.  The checkout's
  `_line_form` is patched only while the chains are built;
- the `GoldenInt`s that the 1000 `membership` ops below build, each
  op run once, a count as steady as the last.  The checkout's
  `GoldenInt.__init__` is patched only while the ops run;
- in process, the same way: the four targets of the `verify` benchmark
  workload (`bench/workloads.py`, VERIFY_TARGETS), each run through
  `hecke5.verify.VERIFIERS` at the default cap, reported as the sum
  over the targets of each target's fastest time, with the same count
  of passes won;
- in process, the same way: the 1000 ops of the `membership` benchmark
  workload (`bench/workloads.py`, Membership, seed 1), each one call of
  its `run` on the checkout's `golden` and `matrices`, reported as the
  sum over the ops of each op's fastest time, with the same count of
  passes won;
- in process, the same way: the first 1000 ops of the `formula`
  benchmark workload (`bench/workloads.py`, Formula, seed 1, five passes
  of 200 levels), each one call of its `run` on the checkout's
  `ideals`, `formula` and `quotient`, with the same sum and count;
- the `GoldenInt`s that those 1000 `formula` ops build and their calls
  of `ideals.ideal_mul`, each op run once, two counts as steady as the
  others.  `GoldenInt.__init__` and `ideal_mul` are patched only while
  the ops run;
- in a fresh process: the chain at (2+L)^8, of norm 5^8 (its cap the
  norm squared, above its orbit of about 1.5 * 10^11 points), with its wall
  time and the child's maxrss, in --big-runs rounds after one discarded
  warm-up round.  Each round runs every checkout once, in an order that
  alternates from round to round, and reports which ran first and each
  checkout's wall time minus the first checkout's; the median of those
  paired differences ends the report, so that the order a pair ran in
  weighs on both sides alike.  --big-runs 0 leaves it out.

The in-process sums and passes won compare the checkouts within one
invocation only, and each header says so: the machine's speed drifts
between invocations far more than two trees differ, so the same tree's
sum can move by half from one invocation to the next.

Every timed call also answers: a chain its order, a verify target
whether all its reports pass, a membership op whether `is_member` was
right.  A wrong answer is never timed as if it were right: an answer
False, or another than the first checkout's, ends the script with
exit 1 and a message naming the op.

--passes reads a positive integer as `hecke5 --cap` does
(`cli.positive_int`), --big-runs an integer in the same grammar
(`golden.parse_int`); a negative --big-runs is a usage error (exit 2).

Example, a parent commit against the working tree:
    git archive HEAD~1 --prefix=parent/ | tar -x -C /tmp
    python3 scripts/chain_timing.py /tmp/parent . --passes 20 --big-runs 2
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from hecke5.cli import positive_int  # noqa: E402
from hecke5.golden import parse_int  # noqa: E402
from workloads import LEVELS, VERIFY_TARGETS, Formula, Membership  # noqa: E402

# run in a child with the checkout's src first on sys.path
BIG_CHILD = """
import json, resource, sys, time
from functools import reduce
from hecke5.golden import GoldenInt
from hecke5.ideals import ideal_from_generator, ideal_mul
from hecke5.quotient import Chain
level = reduce(ideal_mul, [ideal_from_generator(GoldenInt(2, 1))] * 8)
start = time.perf_counter()
order = Chain(level, cap=level.norm ** 2).order
wall = time.perf_counter() - start
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"wall_s": wall, "maxrss_mb": maxrss, "order": order}))
"""


MODULES = ("quotient", "ideals", "verify", "golden", "matrices", "formula")
SEED = 1  # of the membership and formula ops
FORMULA_PASSES = 5  # of 200 levels each


def load(root: Path):
    """The `quotient`, `ideals`, `verify`, `golden`, `matrices` and
    `formula` modules of the checkout at `root`, loaded apart from those
    of any other checkout."""
    for name in [n for n in sys.modules if n == "hecke5" or n.startswith("hecke5.")]:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    try:
        return tuple(importlib.import_module(f"hecke5.{name}") for name in MODULES)
    finally:
        sys.path.remove(str(root / "src"))


def in_process(trees: list[tuple], ops: list[tuple], passes: int) -> tuple[list[float], list[list[float]]]:
    """Each checkout's sum over `ops` of the op's fastest time, and its
    pass totals, the sum over `ops` of its times in each pass.  An op is
    a name and a function that takes a checkout's modules and returns the
    call to time, so that what it sets up is not timed.  The call returns
    its answer; in any pass, an answer False or unlike the first
    checkout's exits 1 with the op's name and every checkout's answer."""
    best = [[float("inf")] * len(ops) for _ in trees]
    totals = [[0.0] * passes for _ in trees]
    for p in range(passes):
        order = list(range(len(trees)))
        if p % 2:
            order.reverse()
        for j, (name, op) in enumerate(ops):
            answers = [None] * len(trees)
            for i in order:
                call = op(*trees[i])
                start = time.perf_counter()
                answers[i] = call()
                elapsed = time.perf_counter() - start
                best[i][j] = min(best[i][j], elapsed)
                totals[i][p] += elapsed
            if any(answer is False or answer != answers[0] for answer in answers):
                sys.exit(f"wrong answer, not timed: {name}: the checkouts, as given, answer {answers!r}")
    return [sum(times) for times in best], totals


def chain_op(hnf: tuple[int, int, int]) -> tuple:
    def op(quotient, ideals, *_):
        level = ideals.IdealHNF(*hnf)
        return lambda: quotient.Chain(level).order

    return f"Chain at {hnf}", op


def line_form_calls(quotient, ideals, *_) -> int:
    """The calls of the line forms that `Chain` makes on the enumerate
    levels, with the checkout's `_line_form` restored after."""
    calls = 0
    line_form = quotient._line_form

    def counted_form(power_ideal):
        form = line_form(power_ideal)

        def counted(a, c):
            nonlocal calls
            calls += 1
            return form(a, c)

        return counted

    quotient._line_form = counted_form
    try:
        for hnf in LEVELS:
            quotient.Chain(ideals.IdealHNF(*hnf))
    finally:
        quotient._line_form = line_form
    return calls


def verify_op(target: str) -> tuple:
    def op(quotient, ideals, verify, *_):
        return lambda: all(report.passed for report in verify.VERIFIERS[target](quotient.DEFAULT_CAP))

    return f"verify {target}", op


def library(tree: tuple) -> SimpleNamespace:
    """A checkout's modules as the benchmark's workloads read them, one
    attribute per module."""
    return SimpleNamespace(**dict(zip(MODULES, tree)))


def workload_ops(kind: type, trees: list[tuple], ops: list) -> list[tuple]:
    """One op per op in `ops` of the benchmark workload `kind` (seed
    `SEED`): its `run` on the checkout's modules, which answers whether
    the op's result was right."""
    workloads = {tree: kind(library(tree), SEED) for tree in trees}
    return [
        (f"{kind.name} op {j} {op!r}", lambda *tree, op=op: partial(workloads[tree].run, op))
        for j, op in enumerate(ops)
    ]


def membership_ops(trees: list[tuple]) -> list[tuple]:
    """The ops of the `membership` workload."""
    return workload_ops(Membership, trees, Membership(None, SEED).ops)


def formula_ops(trees: list[tuple]) -> list[tuple]:
    """The ops of the first `FORMULA_PASSES` passes of the `formula`
    workload, drawn as the benchmark draws them."""
    draws = Formula(None, SEED)
    return workload_ops(Formula, trees, [op for index in range(FORMULA_PASSES) for op in draws.pass_ops(index)])


def work_counts(tree: tuple, ops: list[tuple]) -> tuple[int, int]:
    """The `GoldenInt`s that `ops` build and their calls of
    `ideals.ideal_mul`, each op run once, with the checkout's
    `GoldenInt.__init__` and `ideal_mul` restored after."""
    lib = library(tree)
    golden_int, ideals = lib.golden.GoldenInt, lib.ideals
    init, ideal_mul = golden_int.__init__, ideals.ideal_mul
    counts = [0, 0]

    def counted_init(self, *args):
        counts[0] += 1
        init(self, *args)

    def counted_mul(*args):
        counts[1] += 1
        return ideal_mul(*args)

    golden_int.__init__, ideals.ideal_mul = counted_init, counted_mul
    try:
        for _, op in ops:
            op(*tree)()
    finally:
        golden_int.__init__, ideals.ideal_mul = init, ideal_mul
    return counts[0], counts[1]


def report(what: str, roots: list[Path], measured: tuple[list[float], list[list[float]]]) -> None:
    """Print each checkout's sum of minima against the first checkout's,
    and, after the first, in how many passes its pass total was lower."""
    sums, totals = measured
    print(what)
    for i, (root, total) in enumerate(zip(roots, sums)):
        line = f"  {root}: {total * 1000:.2f} ms  ({total / sums[0]:.3f} of the first"
        if i:
            wins = sum(mine < first for mine, first in zip(totals[i], totals[0]))
            line += f"; lower in {wins} of {len(totals[0])}"
        print(line + ")")


def big(root: Path) -> dict:
    """The chain at (2+L)^8 in a fresh process: wall time and maxrss."""
    proc = subprocess.run(
        [sys.executable, "-c", BIG_CHILD],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    if proc.returncode != 0:
        sys.exit(f"the (2+L)^8 run of {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def paired_rounds(roots: list[Path], rounds: int) -> None:
    """Print `rounds` rounds of fresh runs at (2+L)^8, after one discarded
    warm-up round, then the median over the rounds of each checkout's
    wall time minus the first checkout's."""
    print("Chain at (2+L)^8, fresh processes, after one discarded warm-up round:")
    for i, root in enumerate(roots, 1):
        print(f"  checkout {i}: {root}")
    differences: list[list[float]] = [[] for _ in roots]
    for r in range(rounds + 1):
        order = list(range(len(roots)))
        if r % 2:
            order.reverse()
        results = {i: big(roots[i]) for i in order}
        if len({x["order"] for x in results.values()}) > 1:
            sys.exit(f"the checkouts count different orders at (2+L)^8: {results}")
        if r == 0:
            continue
        cells = ", ".join(
            f"{results[i]['wall_s']:.3f} s / {results[i]['maxrss_mb']:.0f} MB" for i in range(len(roots))
        )
        pairs = []
        for i in range(1, len(roots)):
            differences[i].append(results[i]["wall_s"] - results[0]["wall_s"])
            pairs.append(f"{i + 1} - 1 = {differences[i][-1]:+.3f} s")
        print(f"  round {r}, checkout {order[0] + 1} first: {cells}" + "".join(f"; {p}" for p in pairs))
    for i in range(1, len(roots)):
        median = statistics.median(differences[i])
        print(f"median of {i + 1} - 1 over {rounds} rounds: {median:+.3f} s  (order {results[0]['order']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="+", type=Path, help="checkout roots, each with src/hecke5")
    parser.add_argument("--passes", type=positive_int, default=20, help="in-process passes over the levels")
    parser.add_argument("--big-runs", type=parse_int, default=1, help="rounds of fresh (2+L)^8 runs, after a warm-up")
    args = parser.parse_args(argv)
    if args.big_runs < 0:
        parser.error("argument --big-runs: a count of rounds, 0 or more")
    roots = [root.resolve() for root in args.roots]
    for root in roots:
        if not (root / "src" / "hecke5" / "quotient.py").is_file():
            parser.error(f"{root} has no src/hecke5/quotient.py")

    trees = [load(root) for root in roots]
    member_ops, formula_op_list = membership_ops(trees), formula_ops(trees)
    within = f"over {args.passes} passes (sums and passes won compare only within this invocation):"
    report(
        f"Chain on the {len(LEVELS)} enumerate levels, sum of per-level minima {within}",
        roots,
        in_process(trees, [chain_op(hnf) for hnf in LEVELS], args.passes),
    )
    print(f"line-form calls of the {len(LEVELS)} enumerate chains, a work count the same on any machine:")
    for root, tree in zip(roots, trees):
        print(f"  {root}: {line_form_calls(*tree):,}")
    print(
        f"GoldenInt constructions of the {len(member_ops)} membership ops (seed {SEED}),"
        " a work count the same on any machine:"
    )
    for root, tree in zip(roots, trees):
        print(f"  {root}: {work_counts(tree, member_ops)[0]:,}")
    report(
        f"verify on its {len(VERIFY_TARGETS)} targets, sum of per-target minima {within}",
        roots,
        in_process(trees, [verify_op(target) for target in VERIFY_TARGETS], args.passes),
    )
    report(
        f"membership on its {len(member_ops)} ops (seed {SEED}), sum of per-op minima {within}",
        roots,
        in_process(trees, member_ops, args.passes),
    )
    report(
        f"formula on its first {len(formula_op_list)} ops (seed {SEED}), sum of per-op minima {within}",
        roots,
        in_process(trees, formula_op_list, args.passes),
    )
    print(
        f"GoldenInt constructions and ideal_mul calls of the {len(formula_op_list)} formula ops"
        f" (seed {SEED}), work counts the same on any machine:"
    )
    for root, tree in zip(roots, trees):
        golden_ints, ideal_muls = work_counts(tree, formula_op_list)
        print(f"  {root}: {golden_ints:,} GoldenInts, {ideal_muls:,} ideal_mul calls")

    if args.big_runs > 0:
        paired_rounds(roots, args.big_runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
