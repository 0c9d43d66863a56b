import subprocess
import sys
from pathlib import Path

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
