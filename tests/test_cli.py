import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hecke5.cli import main
from hecke5.matrices import eval_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestElementCommands:
    def test_norm(self, capsys):
        code, out, _ = run(capsys, "norm", "2+1L")
        assert code == 0 and out.strip() == "5"

    def test_norm_json(self, capsys):
        code, payload = run_json(capsys, "norm", "2+1L")
        assert code == 0
        assert payload["schema"] == "hecke5/v1/norm"
        assert payload["norm"] == 5

    def test_divmod(self, capsys):
        code, payload = run_json(capsys, "divmod", "5", "2")
        assert code == 0
        assert payload["q"] == 2 and payload["r"] == "5-4L"

    def test_gcd(self, capsys):
        code, payload = run_json(capsys, "gcd", "1", "1")
        assert code == 0
        assert payload["gcd"] == "1-1L"
        assert payload["quotients"] == [1, -1]

    def test_efactor(self, capsys):
        code, payload = run_json(capsys, "efactor", "2", "3L")
        assert code == 0 and payload["e"] == 2

    def test_bad_element_is_usage_error(self, capsys):
        code, _, err = run(capsys, "norm", "2+x")
        assert code == 2 and "error" in err


class TestMatrixCommands:
    def test_member_false(self, capsys):
        code, out, _ = run(capsys, "member", "[[1,1],[0,1]]")
        assert code == 0 and out.strip() == "false"

    def test_member_true(self, capsys):
        m = eval_word("TsT")
        code, out, _ = run(capsys, "member", str(m))
        assert code == 0 and out.strip() == "true"

    def test_complete_roundtrip(self, capsys):
        m = eval_word("TST")
        # "--" keeps argparse from reading a leading minus as an option
        code, out, _ = run(
            capsys, "complete", "--json", "--", str(m.a11), str(m.a21)
        )
        payload = json.loads(out)
        assert code == 0
        from hecke5.matrices import parse_matrix

        x = parse_matrix(payload["matrix"])
        assert x.a11 == m.a11 and x.a21 == m.a21

    def test_complete_unreduced_is_usage_error(self, capsys):
        code, _, err = run(capsys, "complete", "1", "1")
        assert code == 2


class TestLevelCommands:
    def test_factor_six(self, capsys):
        code, payload = run_json(capsys, "factor", "--level", "6")
        assert code == 0
        assert payload["norm"] == 36
        assert [f["exponent"] for f in payload["factors"]] == [1, 1]

    def test_factor_hnf_form(self, capsys):
        code, payload = run_json(capsys, "factor", "--hnf", "1,3,5")
        assert code == 0
        assert payload["factors"][0]["ramified"] is True

    def test_missing_level_is_usage_error(self, capsys):
        code, _, err = run(capsys, "factor")
        assert code == 2

    def test_sl2order(self, capsys):
        code, out, _ = run(capsys, "sl2order", "--level", "3")
        assert code == 0 and out.strip() == "720"

    def test_index_both_agrees(self, capsys):
        code, payload = run_json(capsys, "index", "--level", "2+1L", "--both")
        assert code == 0
        assert payload["index_formula"] == payload["index_h"] == 120
        assert payload["agrees"] is True

    def test_index_formula_only(self, capsys):
        code, payload = run_json(capsys, "index", "--level", "7", "--formula")
        assert code == 0
        assert payload["index_formula"] == 117600
        assert "index_h" not in payload

    def test_index_enumerate_reports_surjectivity(self, capsys):
        code, payload = run_json(capsys, "index", "--level", "2", "--enumerate")
        assert code == 0
        assert payload["index_h"] == 10
        assert payload["surjective"] is False
        assert payload["index_g"] == 10

    def test_index_deterministic(self, capsys):
        _, out1, _ = run(capsys, "index", "--level", "4", "--json")
        _, out2, _ = run(capsys, "index", "--level", "4", "--json")
        assert out1 == out2

    def test_index_reports_orbit_and_stabilizer(self, capsys):
        code, payload = run_json(capsys, "index", "--level", "7", "--enumerate")
        assert code == 0
        assert (payload["orbit"], payload["stabilizer"]) == (2400, 49)
        assert payload["orbit"] * payload["stabilizer"] == payload["index_h"] == 117600
        assert payload["index_g"] == 58800

    def test_index_eleven_agrees(self, capsys):
        code, payload = run_json(capsys, "index", "--level", "11")
        assert code == 0
        assert payload["index_h"] == payload["index_formula"] == 1742400
        assert payload["agrees"] is True

    @pytest.mark.extended
    def test_index_nineteen_agrees(self, capsys):
        code, payload = run_json(capsys, "index", "--level", "19")
        assert code == 0
        assert payload["index_h"] == payload["index_formula"] == 46785600
        assert payload["agrees"] is True

    def test_index_text_lines_unchanged(self, capsys):
        code, out, _ = run(capsys, "index", "--level", "2")
        assert code == 0
        assert out.splitlines() == [
            "level [2,0,2] of norm 4",
            "index (formula)     = 10",
            "index (enumerated)  = 10",
            "index in G (mod +-I) = 10",
            "sl2 order            = 60",
            "surjective           = False",
            "agrees               = True",
        ]


class TestCapErrors:
    def test_text_mode(self, capsys):
        code, out, err = run(capsys, "index", "--level", "7", "--enumerate", "--cap", "100")
        assert code == 3
        assert out == ""
        assert err.startswith("error: orbit exceeded cap 100")
        assert len(err.splitlines()) == 1

    def test_json_mode(self, capsys):
        code, out, err = run(
            capsys, "index", "--level", "7", "--enumerate", "--cap", "100", "--json"
        )
        assert code == 3
        assert err.startswith("error: ")
        payload = json.loads(out)
        assert payload["schema"] == "hecke5/v1/error"
        assert payload["cap"] == 100
        assert payload["partial"] == 101
        assert "exceeded cap 100" in payload["error"]

    def test_cosets_cap_bounds_elements(self, capsys):
        code, _, err = run(capsys, "cosets", "--level", "3", "--cap", "119")
        assert code == 3
        assert err.startswith("error: quotient exceeded cap 119")


def run_optimized(*argv):
    """Run the CLI in a fresh `python -O` process, where asserts are gone."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-O", "-m", "hecke5.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


class TestNonIdealLevels:
    """A lattice that is not an ideal must be a usage error even without asserts."""

    @pytest.mark.parametrize(
        "argv",
        [["factor", "--hnf", "1,0,2"], ["index", "--formula", "--hnf", "1,0,2"]],
    )
    def test_rejected_under_python_O(self, argv):
        proc = run_optimized(*argv)
        assert proc.returncode == 2, proc
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "not an ideal" in proc.stderr


class TestCosets:
    def test_stdout_words_evaluate(self, capsys):
        code, out, _ = run(capsys, "cosets", "--level", "2")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 10
        for ln in lines:
            word, mat = ln.split("\t")
            assert set(word) <= set("ST")
            eval_word(word)  # must be a valid word
            assert mat.startswith("[[") and mat.endswith("]]")

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "cosets.tsv"
        code, _, err = run(capsys, "cosets", "--level", "2", "--out", str(target))
        assert code == 0
        assert len(target.read_text().splitlines()) == 10
        assert "wrote 10 cosets" in err


class TestVerifyCommand:
    def test_identities_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "identities")
        assert code == 0
        assert "[PASS] identities" in out

    def test_conjugation_action_json(self, capsys):
        code, payload = run_json(capsys, "verify", "conjugation-action")
        assert code == 0
        assert payload["passed"] is True
        assert payload["reports"][0]["name"] == "conjugation-action"
        assert all(c["passed"] for c in payload["reports"][0]["checks"])

    def test_unknown_target_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
