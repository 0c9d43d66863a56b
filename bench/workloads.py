"""The four benchmark workloads.

Each workload makes its inputs from the seed, runs one op per input
through the library's public entry points, and checks every answer
against a reference that does not come from the code path under test.
Library functions are always looked up as module attributes at call
time, so the traced run sees every call the workload makes.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import random

# Every principal level of norm <= 100 whose index is at most 150,000, as
# HNF triples (d1, k, d2): 27 levels, 871,850 group elements in all.  (11)
# is left out because that one op alone costs more than a whole pass.
LEVELS = (
    (2, 0, 2), (1, 3, 5), (3, 0, 3), (1, 4, 11), (1, 8, 11), (4, 0, 4),
    (1, 5, 19), (1, 15, 19), (2, 6, 10), (5, 0, 5), (1, 6, 29), (1, 24, 29),
    (1, 13, 31), (1, 19, 31), (6, 0, 6), (1, 7, 41), (1, 35, 41),
    (2, 8, 22), (2, 16, 22), (3, 9, 15), (7, 0, 7), (8, 0, 8), (2, 10, 38),
    (2, 30, 38), (4, 12, 20), (9, 0, 9), (10, 0, 10),
)

# The paper's group orders: (2), (3), (4), (5), (7), (8), (9) and (3+L).
PAPER_INDICES = {
    (2, 0, 2): 10,
    (3, 0, 3): 120,
    (4, 0, 4): 320,
    (5, 0, 5): 15000,
    (7, 0, 7): 117600,
    (8, 0, 8): 20480,
    (9, 0, 9): 87480,
    (1, 4, 11): 1320,
}

VERIFY_TARGETS = ("kernel-layers", "conjugation-action", "level5", "identities")


def _cli_json(cli, argv: list[str]) -> tuple[int, dict]:
    """Run the CLI in process with stdout captured; return (exit code, JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


class Enumerate:
    """`hecke5 index --both --json` on every level; the seed orders them."""

    name = "enumerate"

    def __init__(self, lib, seed: int, levels=LEVELS, paper=PAPER_INDICES):
        self.lib = lib
        self.paper = paper
        self.levels = list(levels)
        random.Random(f"enumerate:{seed}").shuffle(self.levels)

    def warmup_ops(self) -> list:
        return [(2, 0, 2)]

    def pass_ops(self, index: int) -> list:
        return self.levels

    def run(self, level) -> bool:
        argv = ["index", "--hnf", ",".join(map(str, level)), "--both", "--json"]
        code, out = _cli_json(self.lib.cli, argv)
        return (
            code == 0
            and out["agrees"] is True
            and out["index_h"] == out["index_formula"]
            and out["index_h"] == self.paper.get(level, out["index_h"])
        )


class Membership:
    """`is_member` on words of blocks T^+-q S^+-1 (q <= 6); half are then
    moved out of the group by diag(L^k, L^-k), 1 <= |k| <= 64, which is
    not a member.  Block counts 4..40 and |k| are spread evenly over the
    ops, so every seed gets the same size mix."""

    name = "membership"
    OPS = 1000

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(f"membership:{seed}")
        self.ops = [self._draw(rng, j) for j in range(self.OPS)]
        rng.shuffle(self.ops)
        warm = random.Random("membership:warmup")
        self.warmup = [self._draw(warm, j) for j in range(10)]

    @staticmethod
    def _draw(rng: random.Random, j: int) -> tuple[str, int]:
        word = "".join(
            rng.choice("Tt") * rng.randint(1, 6) + rng.choice("Ss")
            for _ in range(4 + j % 37)
        )
        k = 0 if j % 2 == 0 else rng.choice((-1, 1)) * (1 + j // 2 % 64)
        return word, k

    def warmup_ops(self) -> list:
        return self.warmup

    def pass_ops(self, index: int) -> list:
        return self.ops

    def run(self, op) -> bool:
        word, k = op
        golden, matrices = self.lib.golden, self.lib.matrices
        m = matrices.eval_word(word)
        if k:
            zero = golden.ZERO
            diag = matrices.Mat2(golden.lambda_power(k), zero, zero, golden.lambda_power(-k))
            m = diag * m
        return matrices.is_member(m) is (k == 0)


def _i_constant(a: int) -> int:
    return 1 if a == 0 else 10 if a == 1 else 5 * 2 ** (6 * (a - 1))


def _j_constant(b: int) -> int:
    return 1 if b == 0 else 120 * 3 ** (6 * (b - 1))


def _sl2_inert_power(q: int, e: int) -> int:
    """|SL2(O/P^e)| for a prime P of norm q: q^(3e-2) (q^2 - 1)."""
    return 1 if e == 0 else q ** (3 * e - 2) * (q * q - 1)


def _inert_exponent(a: int, b: int, p: int) -> int:
    """Exponent of the inert prime (p) in the ideal (a + bL)."""
    e = 0
    while a % p == 0 and b % p == 0:
        a, b, e = a // p, b // p, e + 1
    return e


def _largest_split_prime(n: int) -> int:
    """Largest prime p = +-1 mod 5 dividing n, or 0."""
    best, d = 0, 2
    while d * d <= n:
        if n % d == 0:
            if d % 5 in (1, 4):
                best = d
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1 and n % 5 in (1, 4):
        best = max(best, n)
    return best


# Percentiles of _largest_split_prime(norm) over 10^6 uniform draws from
# the formula box (Random("formula-strata")).  An op's cost grows with
# that prime through the O(p) root scan in split_rational_prime, so each
# pass takes STRATUM_DRAWS levels from each of the 100 strata: every seed
# then sees the same cost mix, the slow tail included.
SPLIT_PRIME_PERCENTILES = (
    19, 31, 41, 61, 71, 89, 101, 109, 139, 151, 179, 191, 211, 239, 251, 271,
    311, 359, 389, 419, 439, 479, 509, 569, 619, 659, 709, 761, 829, 911, 991,
    1049, 1109, 1229, 1291, 1409, 1489, 1601, 1741, 1889, 2069, 2239, 2389,
    2621, 2819, 3079, 3301, 3559, 3919, 4241, 4691, 5081, 5581, 6091, 6619,
    7211, 7949, 8731, 9511, 10321, 11411, 12601, 13841, 15329, 16901, 18521,
    20521, 22679, 25111, 27809, 31019, 34381, 38329, 42461, 47491, 52951,
    58901, 66239, 74279, 83579, 93761, 105019, 118471, 134129, 152639, 173249,
    195731, 220279, 248201, 286589, 335821, 394481, 457979, 526951, 605719,
    690511, 786001, 893521, 1023259,
)
STRATUM_DRAWS = 2


class Formula:
    """`index_formula` and `sl2_order` on principal levels (a+bL) with
    |a|, |b| <= 1000, 200 per pass.  Every pass draws fresh levels, and no
    norm (hence no level) repeats within a run, so the split-prime cache
    never hides the root scan."""

    name = "formula"
    BOX = 1000
    WARMUP = ((2, 0), (3, 0), (2, 1), (3, 1), (4, 1), (7, 0))

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(f"formula:{seed}")
        self.norms = {abs(a * a + a * b - b * b) for a, b in self.WARMUP}

    def warmup_ops(self) -> list:
        return list(self.WARMUP)

    def pass_ops(self, index: int) -> list:
        """Uniform draws from the box, kept until every stratum is full."""
        need = [STRATUM_DRAWS] * (len(SPLIT_PRIME_PERCENTILES) + 1)
        out = []
        while len(out) < len(need) * STRATUM_DRAWS:
            a = self.rng.randint(-self.BOX, self.BOX)
            b = self.rng.randint(-self.BOX, self.BOX)
            n = abs(a * a + a * b - b * b)
            if n < 2 or n in self.norms:
                continue
            stratum = bisect.bisect_right(SPLIT_PRIME_PERCENTILES, _largest_split_prime(n))
            if need[stratum]:
                need[stratum] -= 1
                self.norms.add(n)
                out.append((a, b))
        self.rng.shuffle(out)
        return out

    def run(self, op) -> bool:
        a, b = op
        lib = self.lib
        level = lib.ideals.ideal_from_generator(lib.golden.GoldenInt(a, b))
        report = lib.formula.index_formula(level)
        order = lib.quotient.sl2_order(level)
        # the index differs from |SL2| only at the inert primes (2) and (3)
        e2, e3 = _inert_exponent(a, b, 2), _inert_exponent(a, b, 3)
        i_a, j_b = _i_constant(e2), _j_constant(e3)
        local = _sl2_inert_power(4, e2) * _sl2_inert_power(9, e3)
        return (
            report.i_a == i_a
            and report.j_b == j_b
            and report.total * local == i_a * j_b * order
        )


class Verify:
    """`hecke5 verify <target> --json` on the four targets; the seed
    orders them."""

    name = "verify"

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.targets = list(VERIFY_TARGETS)
        random.Random(f"verify:{seed}").shuffle(self.targets)

    def warmup_ops(self) -> list:
        return ["identities"]

    def pass_ops(self, index: int) -> list:
        return self.targets

    def run(self, target) -> bool:
        code, out = _cli_json(self.lib.cli, ["verify", target, "--json"])
        return code == 0 and out["passed"] is True


WORKLOADS = {w.name: w for w in (Enumerate, Membership, Formula, Verify)}
