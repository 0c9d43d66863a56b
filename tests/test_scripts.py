import importlib.util
import subprocess
import sys
from pathlib import Path

from hecke5.ideals import ideals_up_to

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


def test_ideals_up_to_lists_the_survey_levels():
    # the survey searches a box of generators; ideals_up_to scans HNF triples
    spec = importlib.util.spec_from_file_location("index_survey", SCRIPTS / "index_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    levels = [ideal for ideal, _ in survey.candidate_levels(400)]
    assert len(levels) == 171
    assert ideals_up_to(400) == levels
