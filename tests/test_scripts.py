import importlib.util
import re
import subprocess
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from hecke5 import golden, ideals, matrices, quotient

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
    # one in-process pass over the ops of each benchmark workload, each
    # followed by the line-form calls, sift calls, GoldenInts and ideal_mul calls of
    # its ops, no fresh (2+L)^8 run; the script loads this checkout's
    # package from the root it is given
    root = SCRIPTS.parent
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "chain_timing.py"), str(root), "--passes", "1", "--big-runs", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    workloads = [("enumerate", 27), ("membership", 1000), ("formula", 1000), ("verify", 4)]
    assert len(lines) == 4 * len(workloads)
    count = r"\d{1,3}(,\d{3})*"
    for j, (name, ops) in enumerate(workloads):
        header, timing, count_header, counts = lines[4 * j:4 * j + 4]
        assert header.startswith(f"{name} on its {ops} ops (seed 1), sum of per-op minima over 1 passes")
        assert timing.strip().startswith(f"{root}: ") and timing.endswith("ms  (1.000 of the first)")
        assert count_header.startswith(f"calls made by the {ops} {name} ops, each run once")
        what = ["line-form calls", "sift calls", "GoldenInts", "ideal_mul calls"]
        assert re.fullmatch(rf"  {re.escape(str(root))}: " + ", ".join(f"{count} {w}" for w in what), counts)


def load_chain_timing(monkeypatch):
    spec = importlib.util.spec_from_file_location("chain_timing", SCRIPTS / "chain_timing.py")
    chain_timing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts bench/ on it
    spec.loader.exec_module(chain_timing)
    return chain_timing


@pytest.fixture
def own_modules():
    """Put this process's hecke5 modules back after a test that loads
    copies of them with the script's `load`, which replaces them."""

    def hecke5_modules():
        return {name: module for name, module in sys.modules.items() if name.partition(".")[0] == "hecke5"}

    saved = hecke5_modules()
    yield
    for name in hecke5_modules():
        del sys.modules[name]
    sys.modules.update(saved)


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
            clock[0] += next(costs[tree, name])
            return True

        return name, [partial(call, "one"), partial(call, "two")]

    measured = chain_timing.in_process([op("a"), op("b")], 4)
    assert measured == ([1.25, 0.625], [[1.25] * 4, [0.625, 2.125, 1.0, 1.125]])
    chain_timing.report("two ops:", [Path("one"), Path("two")], measured)
    assert capsys.readouterr().out.splitlines() == [
        "two ops:",
        "  one: 1250.00 ms  (1.000 of the first)",
        "  two: 625.00 ms  (0.500 of the first; lower in 3 of 4)",
    ]


def fail_a_check(verifier):
    def failing(*args):
        reports = verifier(*args)
        reports[0].add("a check that fails", 1, 2)
        return reports

    return failing


def off_by_one(chain):
    def broken(level, cap):
        real = chain(level, cap)
        return SimpleNamespace(order=real.order + 1, orbit=real.orbit, stabilizer=real.stabilizer)

    return broken


@pytest.mark.parametrize(
    "workload, module, attribute, broken, message",
    [
        (
            "membership", "matrices", "is_member", lambda is_member: lambda m: not is_member(m),
            r"membership op 0 \('[STst]+', -?\d+\): the checkouts, as given, answer \[True, False\]",
        ),
        (
            "verify", "verify", "VERIFIERS",
            lambda verifiers: {**verifiers, "conjugation-action": fail_a_check(verifiers["conjugation-action"])},
            r"verify op \d 'conjugation-action': the checkouts, as given, answer \[True, False\]",
        ),
        (
            "enumerate", "cli", "Chain", off_by_one,
            r"enumerate op 0 \(\d+, \d+, \d+\): the checkouts, as given, answer \[True, False\]",
        ),
    ],
    ids=["membership", "verify", "enumerate"],
)
def test_chain_timing_exits_on_a_wrong_answer(monkeypatch, own_modules, workload, module, attribute, broken, message):
    # a second copy of this checkout with one function broken: the first
    # op it answers wrongly ends the run, exit 1 (a str exit code) naming
    # the op
    chain_timing = load_chain_timing(monkeypatch)
    libs = [chain_timing.load(SCRIPTS.parent) for _ in range(2)]
    bad = getattr(libs[1], module)
    assert bad is not getattr(libs[0], module)
    setattr(bad, attribute, broken(getattr(bad, attribute)))
    with pytest.raises(SystemExit) as exited:
        chain_timing.in_process(chain_timing.workload_ops(workload, libs), 1)
    assert re.fullmatch("wrong answer, not timed: " + message, exited.value.code)


def test_call_counts_agree_with_patched_counts(monkeypatch):
    # the trace hook against the patched counters it replaced, kept here
    # as the reference: the line-form calls of the chains of the 27
    # enumerate levels, and the GoldenInts built by 100 membership ops
    chain_timing = load_chain_timing(monkeypatch)
    from workloads import LEVELS, Membership

    chains = [partial(quotient.Chain, ideals.IdealHNF(*hnf)) for hnf in LEVELS]
    workload = Membership(SimpleNamespace(golden=golden, matrices=matrices), 1)
    members = [partial(workload.run, op) for op in workload.ops[:100]]
    traced = chain_timing.call_counts(chains)["line-form calls"], chain_timing.call_counts(members)["GoldenInts"]

    patched = [0, 0]
    line_form, init = quotient._line_form, golden.GoldenInt.__init__

    def counted_form(power_ideal):
        form = line_form(power_ideal)

        def counted(a, c):
            patched[0] += 1
            return form(a, c)

        return counted

    def counted_init(self, *args):
        patched[1] += 1
        init(self, *args)

    monkeypatch.setattr(quotient, "_line_form", counted_form)
    for chain in chains:
        chain()
    monkeypatch.setattr(golden.GoldenInt, "__init__", counted_init)
    for member in members:
        member()
    assert traced == tuple(patched)
    assert patched[0] > 0 and patched[1] > 0


def test_call_counts_sets_the_previous_trace_function_again(monkeypatch):
    chain_timing = load_chain_timing(monkeypatch)

    def previous(frame, event, arg):
        return None

    before = sys.gettrace()
    sys.settrace(previous)
    try:
        counts = chain_timing.call_counts([lambda: golden.GoldenInt(1, 1)])
        after = sys.gettrace()
    finally:
        sys.settrace(before)
    assert after is previous
    assert counts == {"line-form calls": 0, "sift calls": 0, "GoldenInts": 1, "ideal_mul calls": 0}


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
