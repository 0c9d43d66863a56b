"""One workload in one process: set up, measure, print one JSON record.

Usage (from the root of a checkout; `run.py` starts this as a child):
    python3 bench/worker.py --workload membership --seed 1 --seconds 20 --trace 0

Set-up (import, input generation and warm-up) runs SETUPS times, each
after dropping every hecke5 module, and `setup_s` is its median.  Then
whole passes over the workload's ops run, each op issued when the
previous one returns, until less than half a pass of --seconds is left.
Every time is scaled by the machine's speed factor (see `speed.py`).
With --trace 1, untraced and traced passes alternate and the record
holds per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import LAYERS, TARGETS, Tracer  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("golden", "ideals", "matrices", "quotient", "formula", "verify", "cli")
SETUPS = 7


def load_library(root: Path) -> SimpleNamespace:
    """Import hecke5 afresh from `root/src`, never from anywhere else."""
    src = root / "src"
    for name in [n for n in sys.modules if n == "hecke5" or n.startswith("hecke5.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("hecke5")
    if Path(package.__file__).resolve().parent != (src / "hecke5").resolve():
        raise ImportError(f"hecke5 was imported from {package.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"hecke5.{m}") for m in MODULES})


class Tally:
    """Ops attempted and ops that raised or returned a wrong answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, workload, op) -> float:
        """Run one op, check it, and return its latency in seconds."""
        self.attempted += 1
        start = perf_counter()
        try:
            ok = workload.run(op)
        except Exception:
            ok = False
            if self.failed < 3:
                print(f"op {op!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
        latency = perf_counter() - start
        if not ok:
            self.failed += 1
        return latency


def setup(name: str, seed: int, root: Path, tally: Tally):
    """Import, make the inputs and warm up; return the time it took,
    scaled by the speed factor over it, the library and the workload."""
    meter = Speedometer()
    with meter.running():
        mark = meter.mark()
        start = perf_counter()
        lib = load_library(root)
        workload = WORKLOADS[name](lib, seed)
        for op in workload.warmup_ops():
            tally.run(workload, op)
        seconds = perf_counter() - start
        reference, factor = meter.since(mark)
    return (seconds - reference) * factor, lib, workload


def measure(workload, seconds: float, tally: Tally, tracer: Tracer | None = None) -> dict:
    """Whole passes until less than half a pass of `seconds` is left.

    With a tracer, passes alternate untraced and traced, and at least one
    of each runs.  Returns, for untraced passes and (under "traced")
    traced ones: per-pass op latencies, pass times (the sums of those),
    the passes' speed factors, the passes' unscaled times, and the hits
    and misses of the split-prime cache.  In an untraced pass the
    speedometer runs and every latency is scaled by the factor over its
    op; a traced pass runs without it, so that its spans hold no
    reference loop, and its latencies are unscaled.
    """
    # Every pass starts from a cold split-prime cache, as a new process
    # does, so passes are alike however many of them a run fits.  The
    # checks allow for a library whose split_rational_prime has no cache.
    split = workload.lib.ideals.split_rational_prime
    runs = {kind: {"passes": [], "latencies": [], "factors": [], "unscaled": [], "cache": [0, 0]} for kind in (False, True)}
    start = perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        ops = workload.pass_ops(index)
        if hasattr(split, "cache_clear"):
            split.cache_clear()
        latencies, unscaled = [], 0.0
        meter = Speedometer()
        t0 = perf_counter()
        with tracer.installed() if traced else meter.running():
            for i, op in enumerate(ops):
                if traced:
                    tracer.op = i
                mark = meter.mark()
                latency = tally.run(workload, op)
                reference, factor = meter.since(mark) if not traced else (0.0, 1.0)
                latencies.append((latency - reference) * factor)
                unscaled += latency - reference
        elapsed = perf_counter() - t0
        run = runs[traced]
        run["passes"].append(sum(latencies))
        run["latencies"].append(latencies)
        run["factors"].append(meter.factor() if not traced else 1.0)
        run["unscaled"].append(unscaled)
        if hasattr(split, "cache_info"):
            info = split.cache_info()
            run["cache"][0] += info.hits
            run["cache"][1] += info.misses
        index += 1
        missing = tracer is not None and not runs[True]["passes"]
        if not missing and perf_counter() - start + elapsed / 2 >= seconds:
            return runs[False] | {"traced": runs[True]}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups: list[float], runs: dict) -> dict:
    """Median set-up, median pass, and percentiles over every op of every pass."""
    ops_ms = [latency * 1000 for latencies in runs["latencies"] for latency in latencies]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(runs["passes"]), "s"),
        "op_p50_ms": (quantile(ops_ms, 50), "ms"),
        "op_p90_ms": (quantile(ops_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, runs: dict, rss_growth_kb: int) -> dict:
    """Per-layer metrics; counts and times are per traced pass."""
    traced = runs["traced"]
    passes = len(traced["passes"])
    summary = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}, tracer.summary())
    counters = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        rows = [row for name, row in summary.items() if name.split(".")[0] == layer]
        out[f"{layer}.calls"] = (sum(r["calls"] for r in rows) / passes, "count")
        out[f"{layer}.self_s"] = (sum(r["self_s"] for r in rows) / passes, "s")
    for name, *_ in TARGETS:
        out[f"{name}.calls"] = (summary[name]["calls"] / passes, "count")
        out[f"{name}.self_s"] = (summary[name]["self_s"] / passes, "s")

    hits, misses = traced["cache"]
    built = counters["quotient.build_quotient.elements"]
    largest = max(counters["quotient.build_quotient.max_elements"], counters["quotient.semigroup_closure.max_elements"])
    verifiers = [name for name, *_ in TARGETS if name.startswith("verify.")]
    out |= {
        "ideals.split_rational_prime.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "matrices.reduce_fraction.steps_per_call": (
            ratio(counters["matrices.reduce_fraction.steps"], summary["matrices.reduce_fraction"]["calls"]),
            "count",
        ),
        "quotient.build_quotient.elements": (built / passes, "count"),
        "quotient.semigroup_closure.elements": (counters["quotient.semigroup_closure.elements"] / passes, "count"),
        "quotient.elements_per_s": (ratio(built, summary["quotient.build_quotient"]["total_s"]), "1/s"),
        "quotient.bytes_per_element": (ratio(rss_growth_kb * 1024, largest), "B"),
        "verify.checks": (sum(counters[f"{n}.checks"] for n in verifiers) / passes, "count"),
        "verify.checks_failed": (sum(counters[f"{n}.checks_failed"] for n in verifiers) / passes, "count"),
        "trace.overhead_ratio": (statistics.median(traced["unscaled"]) / statistics.median(runs["unscaled"]), "ratio"),
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    root = Path.cwd()

    tally = Tally()
    setups = []
    for _ in range(SETUPS):
        seconds, lib, workload = setup(args.workload, args.seed, root, tally)
        setups.append(seconds)
    rss_after_setup = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    tracer = Tracer(lib) if args.trace else None
    runs = measure(workload, args.seconds, tally, tracer)
    if tracer is None:
        metrics = end_to_end(setups, runs)
    else:
        growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_after_setup
        metrics = per_layer(tracer, runs, growth)
    used = runs["traced"] if tracer is not None else runs
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "passes": len(used["passes"]),
        "op_count": sum(map(len, used["latencies"])),
        "speed_factor": statistics.median(used["factors"]),
        "unscaled_wall_s": statistics.median(used["unscaled"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if tracer is not None:
        record["spans"] = tracer.summary()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
