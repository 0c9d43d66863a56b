import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from hecke5.golden import GoldenInt
from hecke5.ideals import ideal_from_generator
from hecke5.quotient import build_quotient

# Tier-1 draws the same examples on every run, so two runs of one tree
# test the same cases and take comparable time; `explore` draws fresh
# random examples (`pytest --hypothesis-profile=explore`, which the
# hypothesis plugin loads after this file, so the option wins).  Neither
# profile changes a test's example count.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def quotient_cache():
    """Shared cache of built quotients, each the closure dict of
    `build_quotient`; several test modules and the acceptance suite
    reuse the same levels."""
    cache = {}

    def get(gen, cap=5_000_000):
        ideal = gen if not isinstance(gen, (int, GoldenInt)) else ideal_from_generator(gen)
        if ideal not in cache:
            cache[ideal] = build_quotient(ideal, cap)
        return cache[ideal]

    return get


def divides(g: GoldenInt, x: GoldenInt) -> bool:
    """Whether g divides x in Z[L]: x conj(g) / N(g) has integer
    coordinates, N(g) the signed norm; zero divides only zero.  A
    reference for tests; the package decides divisibility by ideals."""
    if not g:
        return not x
    n = g.a * g.a + g.a * g.b - g.b * g.b
    z = x * g.conjugate()
    return z.a % n == 0 and z.b % n == 0


def witness(report):
    """The first failing check of a verification report, or None."""
    return next((c for c in report.checks if not c.passed), None)


def random_golden(rng: random.Random, bound: int = 10**6) -> GoldenInt:
    return GoldenInt(rng.randint(-bound, bound), rng.randint(-bound, bound))


def random_word(rng: random.Random, max_len: int = 40) -> str:
    return "".join(rng.choice("SsTt") for _ in range(rng.randint(0, max_len)))


def src_env() -> dict[str, str]:
    """The environment with this checkout's `src` first on PYTHONPATH, for
    running the package or its scripts in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_python_O(*args: str) -> subprocess.CompletedProcess:
    """Run `python -O *args` in a fresh process, where asserts are gone."""
    return subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=60,
    )
