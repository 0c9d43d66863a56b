"""hecke5 benchmark: one command for the four workloads.

Run from the root of a checkout:
    python3 bench/run.py --workload membership --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in its own fresh child process (`worker.py`), one at a
time.  The output names every metric with its unit, then the machine,
Python, nproc, commit and seed, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  End-to-end metrics come
from --trace 0, per-layer metrics from --trace 1.  The full record,
including the span table of a traced run, is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170


def commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    sources = sorted((root / "src" / "hecke5").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(root),
        "source_sha256": digest[:16],
        "seed": seed,
    }


def run_child(root: Path, workload: str, args) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(record: dict, env: dict) -> str:
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  {'op_count':<46} {record['op_count']:>14} ops in {record['passes']} passes")
    lines.append(f"  {'speed_factor':<46} {record['speed_factor']:>14.6g} (median over passes; times are scaled by it)")
    lines.append(f"  {'unscaled_wall_s':<46} {record['unscaled_wall_s']:>14.6g} s (median pass, as the clock read it)")
    ratio = record["failed"] / record["attempted"]
    lines.append(f"  {'fail_ratio':<46} {ratio:>14.6g} ({record['failed']}/{record['attempted']} ops)")
    lines.append("env " + json.dumps(env, sort_keys=True))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hecke5 benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hecke5" / "__init__.py").is_file():
        print(f"error: no hecke5 sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    env = environment(root, args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            record = run_child(root, name, args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        record["env"] = env
        records.append(record)
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        path = out / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(report(record, env), flush=True)

    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): v for r in records for k, v in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
