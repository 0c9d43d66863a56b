#!/usr/bin/env python3
"""Time the benchmark's four workloads on one or more checkouts against
each other, count the calls they make, and time the chain at (2+L)^8.

For each workload of `bench/workloads.py` (WORKLOADS) and each checkout
root given, the workload's ops (seed 1) as the benchmark draws them, one
pass of them (`formula`: five passes of fresh levels, 1000 ops), each op
one call of the workload's own `run` on the checkout's modules, so that
`enumerate` and `verify` go through `cli.main`:

- in process, with every checkout loaded and the checkouts taking turns
  on each op, --passes times, in an order that alternates from pass to
  pass: the sum over the ops of each op's fastest time and, after the
  first checkout, in how many passes its pass total was lower than the
  first checkout's ("lower in k of n").  These compare the checkouts
  within one invocation only, as each header says: the machine's speed
  drifts between invocations far more than two trees differ;
- the calls the ops make, each op run once, of `line_form` and `sift`
  in `quotient.py`, `__init__` in `golden.py` (one per GoldenInt) and
  `ideal_mul` in `ideals.py`, counted by a trace hook, so that nothing
  in a checkout is patched.  These counts do not drift with the machine.

Every op answers by the workload's own check (the closed formula, the
paper's constants, `passed`); any answer but True ends the script with
exit 1 and a message naming the op, so a wrong answer is never timed.

Then, in fresh processes, the chain at (2+L)^8 (norm 5^8, its cap the
norm squared, above its orbit of about 1.5 * 10^11 points): wall time and
maxrss in --big-runs rounds (0: none) after a discarded warm-up round,
each checkout once a round in an order that alternates, and the median
over the rounds of each checkout's wall time minus the first checkout's.

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
from worker import MODULES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

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

SEED = 1
PASSES = {"formula": 5}  # passes of the workload's ops drawn; one if not listed
# (file in a hecke5 directory, function name) -> what its calls count
COUNTED = {
    ("quotient.py", "line_form"): "line-form calls",
    ("quotient.py", "sift"): "sift calls",
    ("golden.py", "__init__"): "GoldenInts",
    ("ideals.py", "ideal_mul"): "ideal_mul calls",
}


def load(root: Path) -> SimpleNamespace:
    """The modules `bench/worker.MODULES` of the checkout at `root`, one
    attribute each, loaded apart from those of any other checkout."""
    for name in [n for n in sys.modules if n == "hecke5" or n.startswith("hecke5.")]:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    try:
        return SimpleNamespace(**{name: importlib.import_module(f"hecke5.{name}") for name in MODULES})
    finally:
        sys.path.remove(str(root / "src"))


def workload_ops(name: str, libs: list[SimpleNamespace]) -> list[tuple]:
    """The ops of the benchmark workload `name` (seed `SEED`), drawn once
    as the benchmark draws them, each a name and one call per checkout in
    `libs`: the workload's `run` on that checkout, which answers whether
    the op's result was right."""
    kind = WORKLOADS[name]
    draws = kind(None, SEED)
    ops = [op for index in range(PASSES.get(name, 1)) for op in draws.pass_ops(index)]
    workloads = [kind(lib, SEED) for lib in libs]
    return [(f"{name} op {j} {op!r}", [partial(w.run, op) for w in workloads]) for j, op in enumerate(ops)]


def in_process(ops: list[tuple], passes: int) -> tuple[list[float], list[list[float]]]:
    """Each checkout's sum over `ops` of the op's fastest time, and its
    pass totals, the sum over `ops` of its times in each pass.  An op is
    a name and one call per checkout, which returns its answer; in any
    pass, an answer other than True exits 1 with the op's name and every
    checkout's answer."""
    trees = len(ops[0][1])
    best = [[float("inf")] * len(ops) for _ in range(trees)]
    totals = [[0.0] * passes for _ in range(trees)]
    for p in range(passes):
        order = list(range(trees))
        if p % 2:
            order.reverse()
        for j, (name, calls) in enumerate(ops):
            answers = [None] * trees
            for i in order:
                start = time.perf_counter()
                answers[i] = calls[i]()
                elapsed = time.perf_counter() - start
                best[i][j] = min(best[i][j], elapsed)
                totals[i][p] += elapsed
            if any(answer is not True for answer in answers):
                sys.exit(f"wrong answer, not timed: {name}: the checkouts, as given, answer {answers!r}")
    return [sum(times) for times in best], totals


def call_counts(calls) -> dict[str, int]:
    """The calls of the `COUNTED` functions that `calls` make, each call
    made once.  A global trace hook sees every Python call and returns
    None, so that no line or return event fires; the trace function set
    before is set again after."""
    counts = dict.fromkeys(COUNTED.values(), 0)
    counted: dict = {}  # code object -> what it counts, or None

    def hook(frame, event, arg):
        code = frame.f_code
        if code not in counted:
            path = Path(code.co_filename)
            counted[code] = COUNTED.get((path.name, code.co_name)) if path.parent.name == "hecke5" else None
        if counted[code]:
            counts[counted[code]] += 1

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        for call in calls:
            call()
    finally:
        sys.settrace(previous)
    return counts


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
    parser.add_argument("--passes", type=positive_int, default=20, help="in-process passes over each workload's ops")
    parser.add_argument("--big-runs", type=parse_int, default=1, help="rounds of fresh (2+L)^8 runs, after a warm-up")
    args = parser.parse_args(argv)
    if args.big_runs < 0:
        parser.error("argument --big-runs: a count of rounds, 0 or more")
    roots = [root.resolve() for root in args.roots]
    for root in roots:
        if not (root / "src" / "hecke5" / "quotient.py").is_file():
            parser.error(f"{root} has no src/hecke5/quotient.py")

    libs = [load(root) for root in roots]
    within = f"sum of per-op minima over {args.passes} passes (these compare only within this invocation):"
    for name in WORKLOADS:
        ops = workload_ops(name, libs)
        report(f"{name} on its {len(ops)} ops (seed {SEED}), {within}", roots, in_process(ops, args.passes))
        print(f"calls made by the {len(ops)} {name} ops, each run once, work counts the same on any machine:")
        for i, root in enumerate(roots):
            counts = call_counts(calls[i] for _, calls in ops)
            print(f"  {root}: " + ", ".join(f"{n:,} {what}" for what, n in counts.items()))

    if args.big_runs > 0:
        paired_rounds(roots, args.big_runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
