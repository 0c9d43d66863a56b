import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--passes", "0"], "argument --passes: invalid positive_int value"),
        (["--passes", "-3"], "argument --passes: invalid positive_int value"),
        (["--passes", "1_0"], "argument --passes: invalid positive_int value"),
        (["--big-runs", "-1"], "argument --big-runs: a count of rounds, 0 or more"),
        (["--big-runs", "1_0"], "argument --big-runs: invalid parse_int value"),
        (["--big-runs", "\u0663"], "argument --big-runs: invalid parse_int value"),
    ],
)
def test_chain_timing_reads_counts_like_the_cli(args, message):
    # --passes through cli.positive_int, --big-runs through golden.parse_int;
    # --big-runs 0 means no fresh run, below it is a usage error
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "chain_timing.py"), str(SCRIPTS.parent), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stdout
    assert message in proc.stderr


def test_chain_timing_runs_on_this_checkout():
    # one in-process pass over the enumerate levels, the verify targets,
    # the membership ops and the formula ops, the line-form calls of the
    # enumerate chains, the GoldenInts the membership ops build and the
    # GoldenInts and ideal_mul calls of the formula ops, no fresh
    # (2+L)^8 run; the script loads this checkout's package from the
    # root it is given
    root = SCRIPTS.parent
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "chain_timing.py"), str(root), "--passes", "1", "--big-runs", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (
        chain_header, chain_line, count_header, count_line, golden_header, golden_line,
        verify_header, verify_line, member_header, member_line,
        formula_header, formula_line, formula_count_header, formula_count_line, *rest,
    ) = proc.stdout.splitlines()
    assert chain_header.startswith("Chain on the 27 enumerate levels")
    assert count_header.startswith("line-form calls of the 27 enumerate chains")
    assert golden_header.startswith("GoldenInt constructions of the 1000 membership ops (seed 1)")
    for line in (count_line, golden_line):
        assert re.fullmatch(rf"  {re.escape(str(root))}: \d{{1,3}}(,\d{{3}})*", line)
    assert verify_header.startswith("verify on its 4 targets")
    assert member_header.startswith("membership on its 1000 ops (seed 1)")
    assert formula_header.startswith("formula on its first 1000 ops (seed 1)")
    assert formula_count_header.startswith("GoldenInt constructions and ideal_mul calls of the 1000 formula ops (seed 1)")
    count = r"\d{1,3}(,\d{3})*"
    assert re.fullmatch(rf"  {re.escape(str(root))}: {count} GoldenInts, {count} ideal_mul calls", formula_count_line)
    assert rest == []
    for line in (chain_line, verify_line, member_line, formula_line):
        assert line.strip().startswith(f"{root}: ") and line.endswith("ms  (1.000 of the first)")


def load_chain_timing(monkeypatch):
    spec = importlib.util.spec_from_file_location("chain_timing", SCRIPTS / "chain_timing.py")
    chain_timing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts bench/ on it
    spec.loader.exec_module(chain_timing)
    return chain_timing


def test_chain_timing_counts_the_passes_won_in_process(monkeypatch, capsys):
    # two ops on two checkouts, timed on a fake clock: checkout 2's op
    # minima sum to 0.625 s against 1.25 s, and its pass totals (0.625,
    # 2.125, 1 and 1.125 s against 1.25 s each) are lower in 3 of the 4
    # passes, though its second op is the slower in the last
    chain_timing = load_chain_timing(monkeypatch)
    clock = [0.0]
    monkeypatch.setattr(chain_timing, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    costs = {
        ("one", "a"): iter([1.0] * 4),
        ("one", "b"): iter([0.25] * 4),
        ("two", "a"): iter([0.5, 2.0, 0.75, 0.625]),
        ("two", "b"): iter([0.125, 0.125, 0.25, 0.5]),
    }

    def op(name):
        def call(tree):
            cost = next(costs[tree, name])
            return lambda: clock.__setitem__(0, clock[0] + cost)

        return name, call

    measured = chain_timing.in_process([("one",), ("two",)], [op("a"), op("b")], 4)
    assert measured == ([1.25, 0.625], [[1.25] * 4, [0.625, 2.125, 1.0, 1.125]])
    chain_timing.report("two ops:", [Path("one"), Path("two")], measured)
    assert capsys.readouterr().out.splitlines() == [
        "two ops:",
        "  one: 1250.00 ms  (1.000 of the first)",
        "  two: 625.00 ms  (0.500 of the first; lower in 3 of 4)",
    ]


def fail_a_check(verifier):
    def failing(cap):
        reports = verifier(cap)
        reports[0].add("a check that fails", 1, 2)
        return reports

    return failing


@pytest.mark.parametrize(
    "module, attribute, broken, message",
    [
        (
            "matrices", "is_member", lambda is_member: lambda m: not is_member(m),
            r"membership op 0 \('[STst]+', -?\d+\): the checkouts, as given, answer \[True, False\]",
        ),
        (
            "verify", "VERIFIERS",
            lambda verifiers: {**verifiers, "conjugation-action": fail_a_check(verifiers["conjugation-action"])},
            r"verify conjugation-action: the checkouts, as given, answer \[True, False\]",
        ),
        (
            "quotient", "Chain", lambda chain: lambda level: SimpleNamespace(order=chain(level).order + 1),
            r"Chain at \(2, 0, 2\): the checkouts, as given, answer \[(\d+), (?!\1\])\d+\]",
        ),
    ],
    ids=["membership", "verify", "chain"],
)
def test_chain_timing_exits_on_a_wrong_answer(monkeypatch, module, attribute, broken, message):
    # a second checkout with one function broken: the first op it answers
    # wrongly ends the run, exit 1 (a str exit code) naming the op
    chain_timing = load_chain_timing(monkeypatch)
    tree = tuple(importlib.import_module(f"hecke5.{name}") for name in chain_timing.MODULES)
    i = chain_timing.MODULES.index(module)
    bad = ModuleType(tree[i].__name__)
    vars(bad).update(vars(tree[i]))
    setattr(bad, attribute, broken(getattr(tree[i], attribute)))
    trees = [tree, tree[:i] + (bad,) + tree[i + 1:]]
    ops = {
        "matrices": lambda: chain_timing.membership_ops(trees)[:2],
        "verify": lambda: [chain_timing.verify_op("conjugation-action")],
        "quotient": lambda: [chain_timing.chain_op((2, 0, 2))],
    }[module]()
    with pytest.raises(SystemExit) as exited:
        chain_timing.in_process(trees, ops, 1)
    assert re.fullmatch("wrong answer, not timed: " + message, exited.value.code)


def test_chain_timing_pairs_the_fresh_runs(monkeypatch, capsys):
    # the fresh (2+L)^8 runs, faked: checkout 2 takes 0.1 s longer, and
    # whichever runs second in a round 1 s less, so the paired
    # differences are 1.1 and -0.9 s, and their median 0.1 s
    chain_timing = load_chain_timing(monkeypatch)
    calls = []

    def fake_big(root):
        calls.append(root)
        wall = 5.0 + (0.1 if root.name == "two" else 0.0) - (len(calls) % 2 == 0)
        return {"wall_s": wall, "maxrss_mb": 300.0, "order": 120}

    monkeypatch.setattr(chain_timing, "big", fake_big)
    one, two = Path("one"), Path("two")
    chain_timing.paired_rounds([one, two], 2)
    # one warm-up round, then two rounds, the order alternating
    assert calls == [one, two, two, one, one, two]
    assert capsys.readouterr().out.splitlines() == [
        "Chain at (2+L)^8, fresh processes, after one discarded warm-up round:",
        "  checkout 1: one",
        "  checkout 2: two",
        "  round 1, checkout 2 first: 4.000 s / 300 MB, 5.100 s / 300 MB; 2 - 1 = +1.100 s",
        "  round 2, checkout 1 first: 5.000 s / 300 MB, 4.100 s / 300 MB; 2 - 1 = -0.900 s",
        "median of 2 - 1 over 2 rounds: +0.100 s  (order 120)",
    ]
