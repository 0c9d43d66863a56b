import math
import subprocess
import sys
from pathlib import Path

import pytest

from hecke5.golden import GoldenInt
from hecke5.ideals import ideal_from_generator, ideals_up_to

from conftest import src_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_index_survey_runs_and_counts_agree_with_formula():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "index_survey.py"), "--max-norm", "20"],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, _, *rows = proc.stdout.splitlines()
    assert header.split() == ["level", "norm", "formula", "counted", "sl2", "onto", "sec"]
    table = [dict(zip(header.split(), row.split())) for row in rows]
    counted = [row for row in table if row["counted"] != "-"]
    assert counted and len(counted) == len(table)
    for row in counted:
        assert row["formula"] == row["counted"], row



@pytest.mark.parametrize("option", ["--max-norm", "--max-enumerate"])
@pytest.mark.parametrize("value", ["1_0", "\u0663" + "00", "0", "-5"])
def test_index_survey_reads_integers_like_the_cli(option, value):
    # cli.positive_int: no underscores, no non-ASCII digits, at least 1
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "index_survey.py"), option, value],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=60,
    )
    assert proc.returncode == 2, proc.stdout
    assert f"argument {option}: invalid positive_int value" in proc.stderr


def test_index_survey_ends_quietly_when_stdout_closes():
    # `index_survey.py | head`: the reader is gone before the first row
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "index_survey.py"), "--max-norm", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=src_env(),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def test_ideals_up_to_lists_the_survey_levels():
    # the survey lists ideals_up_to, which scans HNF triples; the reference
    # is the principal ideals of every generator in a box, deduplicated
    bound = math.isqrt(400) + 2
    levels = {
        ideal_from_generator(GoldenInt(a, b))
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
        if 2 <= GoldenInt(a, b).norm() <= 400
    }
    assert len(levels) == 171
    assert ideals_up_to(400) == sorted(levels, key=lambda x: (x.norm, x.d1, x.k))
