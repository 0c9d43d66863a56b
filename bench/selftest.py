"""Self-tests of the benchmark itself.  Run from the root of a checkout:
    python3 bench/selftest.py

- A wrong reference makes fail_ratio rise above 0; the right one keeps it at 0.
- A traced run patches every hecke5 binding of every traced function while
  ops run and leaves each one the original object afterwards; an untraced
  run installs no wrapper at all.
- The metric names the benchmark emits are exactly those in BENCHMARK.json.
- The speed reference loop leaves nothing the garbage collector tracks, so
  it never starts a collection; while the speedometer runs the loop takes
  about a tenth of the time, and the previous SIGALRM handler comes back.
"""

from __future__ import annotations

import gc
import json
import signal
import sys
from pathlib import Path
from time import perf_counter

from spans import TARGETS, Tracer, package_modules, sites
from speed import Speedometer, reference_chunk
from workloads import LEVELS, PAPER_INDICES, Enumerate, Membership
from worker import Tally, end_to_end, load_library, measure, per_layer

ROOT = Path.cwd()
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def fail_ratio(workload) -> float:
    tally = Tally()
    measure(workload, 0, tally)
    return tally.failed / tally.attempted


def test_wrong_reference(lib) -> None:
    small = LEVELS[:3]
    right = Enumerate(lib, 1, levels=small)
    wrong = Enumerate(lib, 1, levels=small, paper=PAPER_INDICES | {(2, 0, 2): 11})
    check(fail_ratio(right) == 0, "right paper constants give fail_ratio 0")
    check(fail_ratio(wrong) > 0, "a wrong paper constant gives fail_ratio > 0")


class Probe:
    """Runs ten ops of a workload per pass and records, at every op, how
    many of the traced functions' originals any hecke5 module (or the
    ResMat class) still exposes."""

    def __init__(self, inner, lib):
        self.inner = inner
        self.lib = lib
        self.originals = {id(original) for *_, original in sites(lib)}
        self.seen: list[set[int]] = []

    def pass_ops(self, index: int) -> list:
        self.seen.append(set())
        return self.inner.pass_ops(index)[:10]

    def run(self, op) -> bool:
        values = [v for m in package_modules() for v in vars(m).values()]
        values += vars(self.lib.quotient.ResMat).values()
        self.seen[-1].add(len({id(v) for v in values} & self.originals))
        return self.inner.run(op)


def test_patching(lib):
    before = [(owner, name, original) for _, owner, name, original in sites(lib)]
    check({target for target, *_ in sites(lib)} == set(TARGETS), "every traced function exists")

    probe = Probe(Membership(lib, 1), lib)
    measure(probe, 0, Tally())
    every = len(probe.originals)
    check(probe.seen == [{every}], "untraced run: every traced function is exposed unwrapped while ops run")

    probe = Probe(Membership(lib, 1), lib)
    tracer = Tracer(lib)
    runs = measure(probe, 0, Tally(), tracer)
    check(probe.seen == [{every}, {0}], "traced run: no binding exposes an original in the traced pass")
    check(len(tracer.spans) > 0, f"traced run recorded {len(tracer.spans)} spans")
    restored = all(getattr(owner, name) is original for owner, name, original in before)
    check(restored, "after the traced run every patched binding is the original object")
    return tracer, runs


def test_metric_names(tracer, runs) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = end_to_end([0.0], runs)
    layer = per_layer(tracer, runs, 0)
    check(list(e2e) == [m["name"] for m in spec["end_to_end"]], "end-to-end metrics match BENCHMARK.json")
    check(list(layer) == [m["name"] for m in spec["per_layer"]], "per-layer metrics match BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    check(all(units[k] == unit for k, (_, unit) in (e2e | layer).items()), "units match BENCHMARK.json")


def tracked_allocations(fn) -> int:
    """Net objects the garbage collector tracks, allocated by 100 calls."""
    gc.collect()
    before = gc.get_count()[0]
    for _ in range(100):
        fn()
    return gc.get_count()[0] - before


def test_reference_loop() -> None:
    none = tracked_allocations(lambda: 0)
    check(tracked_allocations(reference_chunk) == none, "the reference loop leaves no tracked object behind, so it never starts a collection")
    before = signal.getsignal(signal.SIGALRM)
    meter = Speedometer()
    with meter.running():
        mark = meter.mark()
        start = perf_counter()
        while perf_counter() - start < 0.5:
            sum(range(1000))
        reference, factor = meter.since(mark)
    share = reference / (perf_counter() - start)
    check(0.05 < share < 0.2, f"the reference loop took {share:.3f} of a busy half second, at factor {factor:.3f}")
    check(signal.getsignal(signal.SIGALRM) is before, "the SIGALRM handler is restored afterwards")


def main() -> int:
    test_reference_loop()
    lib = load_library(ROOT)
    test_wrong_reference(lib)
    test_metric_names(*test_patching(lib))
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
