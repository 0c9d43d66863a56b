import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke5 import golden, ideals, verify
from hecke5.cli import COMMANDS, main
from hecke5.golden import MAX_LITERAL_DIGITS, format_element, lambda_power
from hecke5.matrices import eval_word
from hecke5.quotient import build_quotient
from hecke5.verify import VERIFIERS

from conftest import run_python_O, src_env


def run(capsys, *argv):
    """Exit code, stdout and stderr of `main`; argparse's own exit counts."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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

    def test_efactor_text_prints_no_completion(self, capsys):
        # L^300 / 1: the completion's entries have more digits than str()
        # of an int allows, and only --json prints them
        code, out, err = run(capsys, "efactor", format_element(lambda_power(300)), "1")
        assert (code, out, err) == (0, "e = 22351\n", "")

    def test_bad_element_is_usage_error(self, capsys):
        code, _, err = run(capsys, "norm", "2+x")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("a", ["1", "0"])
    def test_zero_divisor_is_usage_error(self, capsys, a):
        code, out, err = run(capsys, "divmod", a, "0")
        assert code == 2
        assert out == ""
        assert err == "error: pseudo-division by zero\n"

    def test_term_without_sign_is_usage_error(self, capsys):
        # "2L3" used to be read as 3+2L, of norm 11
        code, out, err = run(capsys, "norm", "2L3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    # whitespace between digits used to vanish: "2 3" read as 23 (norm
    # 529) and the matrix entry "2 0L" as 20L (a member)
    @pytest.mark.parametrize("argv", [["norm", "2 3"], ["member", "[[1,2 0L],[0,1]]"]])
    def test_whitespace_between_digits_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: whitespace between digits") and len(err.splitlines()) == 1

    # argparse reads an argument that starts with "-" as an option, so a
    # negative literal follows "--" (a positional) or "=" (an option value)
    def test_negative_literal_after_double_dash(self, capsys):
        assert run(capsys, "norm", "--", "-4L-2") == (0, "4\n", "")

    def test_negative_level_after_equals(self, capsys):
        assert run_json(capsys, "index", "--level=-2-L") == run_json(
            capsys, "index", "--level", "2+L"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["norm", "-4L-2"], "the following arguments are required: element"),
            (["index", "--level", "-2-L"], "argument --level: expected one argument"),
        ],
    )
    def test_bare_negative_literal_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.rstrip().endswith(message)


class TestTooLongToPrint:
    """An element with a coefficient past Python's limit on str(int)
    (4300 digits by default) exits 3, as a cap does: every element
    printed goes through `golden.format_element`, which decides it."""

    BIG = format_element(lambda_power(300))  # a 128-character literal
    MESSAGE = f"a coefficient of more than {sys.get_int_max_str_digits()} digits is too long to print"

    def test_gcd_text(self, capsys):
        # the pseudo-gcd of L^300 and 1 has coefficients of about 4670 digits
        code, out, err = run(capsys, "gcd", self.BIG, "1")
        assert (code, out, err) == (3, "", f"error: {self.MESSAGE}\n")

    @pytest.mark.parametrize("command", ["gcd", "efactor"])
    def test_json_error_document(self, capsys, command):
        # efactor prints the completion, of entries as long, only under --json
        code, out, err = run(capsys, command, self.BIG, "1", "--json")
        assert (code, err) == (3, f"error: {self.MESSAGE}\n")
        assert json.loads(out) == {
            "schema": "hecke5/v1/error",
            "error": self.MESSAGE,
            "cap": None,
            "partial": None,
        }


class TestLiteralBound:
    """An integer literal has at most MAX_LITERAL_DIGITS digits, so that
    every index prints: Python converts no int of over 4300 digits to a
    string.  An element may not (`TestTooLongToPrint`)."""

    def test_index_at_the_bound_prints(self, capsys):
        # 10^699, a literal of 700 digits: (2)^699 (5)^699, where (5) is
        # tau^2; I_e = 5 * 2^(6(e-1)) above 2 and 24 * 5^(3e-2) at tau^e
        ten = "1" + "0" * (MAX_LITERAL_DIGITS - 1)
        code, out, err = run(capsys, "index", "--formula", "--level", ten)
        index = 5 * 2 ** (6 * 698) * 24 * 5 ** (3 * 1398 - 2)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"index (formula)     = {index}"
        assert len(str(index)) == 4193

    def test_norm_at_the_bound_prints(self, capsys):
        nines = "9" * MAX_LITERAL_DIGITS
        assert run(capsys, "norm", nines) == (0, f"{int(nines) ** 2}\n", "")

    @pytest.mark.parametrize(
        "argv, digits",
        [
            (["norm", "1" + "0" * MAX_LITERAL_DIGITS], 701),
            (["norm", "9" * 3000], 3000),
            (["index", "--formula", "--level", "1" + "0" * MAX_LITERAL_DIGITS], 701),
            (["member", f"[[1,{'1' * (MAX_LITERAL_DIGITS + 1)}L],[0,1]]"], 701),
            (["factor", "--hnf", f"1,0,{'1' * (MAX_LITERAL_DIGITS + 1)}"], 701),
        ],
        ids=["norm", "norm-3000-digits", "index", "member", "hnf"],
    )
    def test_longer_is_usage_error_naming_the_bound(self, capsys, argv, digits):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {digits}-digit integer literal: the bound is 700 digits\n"


# every reader of an integer from outside, as the argv that hands it the
# numeral t; `index --formula` enumerates nothing, so any cap is enough
READERS = {
    "norm": lambda t: ["norm", t],
    "member": lambda t: ["member", f"[[1,{t}],[0,1]]"],
    "level": lambda t: ["factor", "--level", t],
    "hnf": lambda t: ["factor", "--hnf", f"{t},0,{t}"],
    "cap": lambda t: ["index", "--formula", "--level", "2", "--cap", t],
}


class TestIntegerGrammar:
    """One integer grammar, `golden.parse_int`, at every reader: an
    optional sign and ASCII digits.  Python's int also reads `1_0` and
    other scripts' digits; `1²` passes str.isdigit but not int."""

    @pytest.mark.parametrize("numeral", ["1_0", "٣", "1²", "0x10", "1e3"])
    @pytest.mark.parametrize("reader", READERS)
    def test_not_an_integer_is_usage_error(self, capsys, reader, numeral):
        argv = READERS[reader](numeral)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "invalid literal for int()" not in err
        if reader == "cap":
            # argparse puts its usage lines before its one error line
            assert [line for line in err.splitlines() if "error:" in line] == [
                f"hecke5 index: error: argument --cap: invalid positive_int value: '{numeral}'"
            ]
        elif reader == "hnf":
            assert err == f"error: --hnf takes three integers d1,k,d2, not {argv[-1]!r}\n"
        else:
            assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("numeral", ["+2", " 2 "])
    @pytest.mark.parametrize("reader", READERS)
    def test_sign_and_surrounding_spaces_are_accepted(self, capsys, reader, numeral):
        plain = run(capsys, *READERS[reader]("2"))
        assert plain[0] == 0
        assert run(capsys, *READERS[reader](numeral)) == plain

    def test_hnf_whitespace_between_digits(self, capsys):
        # a space inside a number gets the literals' message, not the flag's
        code, out, err = run(capsys, "factor", "--hnf", "1 2,0,2")
        assert (code, out, err) == (2, "", "error: whitespace between digits: '1 2'\n")

    def test_cap_over_the_bound_is_usage_error(self, capsys):
        cap = "1" + "0" * MAX_LITERAL_DIGITS
        code, out, err = run(capsys, *READERS["cap"](cap))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(
            f"argument --cap: {MAX_LITERAL_DIGITS + 1}-digit integer literal: "
            f"the bound is {MAX_LITERAL_DIGITS} digits"
        )

    def test_cap_whitespace_between_digits(self, capsys):
        code, out, err = run(capsys, *READERS["cap"]("1 2"))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith("argument --cap: whitespace between digits: '1 2'")


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
        assert run_json(capsys, "factor", "--hnf", " 1, 3, 5") == (0, payload)

    def test_missing_level_is_usage_error(self, capsys):
        code, _, err = run(capsys, "factor")
        assert code == 2

    def test_level_and_hnf_together_is_usage_error(self, capsys):
        # --level used to be ignored silently: this reported level [2,0,2]
        code, out, err = run(capsys, "index", "--hnf", "2,0,2", "--level", "3")
        assert code == 2
        assert out == ""
        assert err == "error: give only one of --level or --hnf\n"

    @pytest.mark.parametrize("modes", [("--enumerate", "--formula"), ("--both", "--enumerate"), ("--formula", "--both")])
    def test_two_index_modes_is_usage_error(self, capsys, modes):
        # the last mode used to win silently: --enumerate --formula ran --formula
        code, out, err = run(capsys, "index", "--level", "2", *modes)
        assert code == 2
        assert out == ""
        assert f"argument {modes[1]}: not allowed with argument {modes[0]}" in err

    def test_repeated_index_mode_answers(self, capsys):
        assert run_json(capsys, "index", "--level", "2", "--both", "--both") == run_json(capsys, "index", "--level", "2")

    @pytest.mark.parametrize("hnf", ["1,2", "a,b,c", "1,2,3,4", ""])
    def test_malformed_hnf_names_the_flag(self, capsys, hnf):
        code, out, err = run(capsys, "factor", "--hnf", hnf)
        assert code == 2
        assert out == ""
        assert err == f"error: --hnf takes three integers d1,k,d2, not {hnf!r}\n"

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

    @pytest.mark.parametrize(
        "argv",
        [("index", "--both"), ("index", "--formula"), ("index", "--enumerate"), ("factor",), ("sl2order",)],
    )
    def test_level_factored_once(self, capsys, monkeypatch, argv):
        # every hecke5 binding of factor_ideal is wrapped, so a reader that
        # imports it by name and factors the level again is counted too
        factor_ideal, calls = ideals.factor_ideal, []

        def counting_factor_ideal(ideal):
            calls.append(ideal)
            return factor_ideal(ideal)

        for module in [m for name, m in sys.modules.items() if name.partition(".")[0] == "hecke5"]:
            for name, value in list(vars(module).items()):
                if value is factor_ideal:
                    monkeypatch.setattr(module, name, counting_factor_ideal)
        code, _ = run_json(capsys, *argv, "--level", "6")
        assert code == 0
        assert calls == [ideals.ideal_from_generator(6)]

    @pytest.mark.parametrize("argv,expected", [(("index", "--formula"), 0), (("factor",), 4)])
    def test_gcd_only_for_printed_generators(self, capsys, monkeypatch, argv, expected):
        # (2090) = (2)(5)(11)(19): a split prime's HNF is read off its root,
        # so only `factor`, which prints the generators, runs one gcd for
        # each of the four split primes; every binding of gcd_pseudo is
        # wrapped, as in test_level_factored_once
        gcd_pseudo, calls = golden.gcd_pseudo, []

        def counting_gcd_pseudo(a, b):
            calls.append((a, b))
            return gcd_pseudo(a, b)

        for module in [m for name, m in sys.modules.items() if name.partition(".")[0] == "hecke5"]:
            for name, value in list(vars(module).items()):
                if value is gcd_pseudo:
                    monkeypatch.setattr(module, name, counting_gcd_pseudo)
        code, _ = run_json(capsys, *argv, "--level", "2090")
        assert code == 0
        assert len(calls) == expected

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

    def test_cap_at_a_level_of_norm_ten_to_the_ten(self, capsys):
        # (100003) is inert, of norm about 10^10: the line walk passes the
        # cap after 11 lines, long before an orbit of about 10^20 columns
        start = time.perf_counter()
        code, out, err = run(capsys, "index", "--enumerate", "--level", "100003", "--cap", "10")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (3, "", "error: orbit exceeded cap 10 (partial count 11)\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gcd", "--json", format_element(lambda_power(1000)), "1"],
            ["efactor", "--json", format_element(lambda_power(1000)), "1"],
            ["member", "--json", f"[[{format_element(lambda_power(1000))},-1],[1,0]]"],
            ["gcd", "--json", "--", format_element(lambda_power(-3000)), format_element(lambda_power(-7))],
        ],
        ids=["gcd", "efactor", "member", "gcd-negative-powers"],
    )
    def test_coordinate_budget(self, capsys, argv):
        # units of large exponent: the pseudo-Euclidean loop's coordinate
        # budget ends each of these in well under a second
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 3 and err.endswith("-bit coordinate budget\n")
        assert json.loads(out) == {"schema": "hecke5/v1/error", "error": err[7:-1], "cap": None, "partial": None}

    @pytest.mark.parametrize("command", [["index", "--formula"], ["factor"]])
    def test_division_budget(self, capsys, command):
        # 10^24 + 7 is an inert prime at or above psi12, past the exact
        # range of the prime test: trial division runs to its budget of
        # divisors and ends there
        start = time.perf_counter()
        code, out, err = run(capsys, *command, "--level", "1000000000000000000000007", "--json")
        assert time.perf_counter() - start < 5
        assert (code, err) == (3, "error: trial division passed d = 10000000 with a cofactor unfactored\n")
        assert json.loads(out) == {"schema": "hecke5/v1/error", "error": err[7:-1], "cap": None, "partial": None}

    def test_orbit_of_a_hundred_million_columns(self, capsys):
        # (101) has norm 10,201: the orbit of e1 has 104,040,000 points,
        # counted without walking them
        code, payload = run_json(capsys, "index", "--level", "101", "--cap", "200000000")
        assert code == 0
        assert payload["agrees"] is True
        assert (payload["orbit"], payload["stabilizer"]) == (104040000, 10201)

    def test_cosets_cap_bounds_elements(self, capsys):
        code, _, err = run(capsys, "cosets", "--level", "3", "--cap", "119")
        assert code == 3
        assert err.startswith("error: quotient exceeded cap 119")

    @pytest.mark.parametrize("level", ["1009", "100003"])
    def test_cosets_cap_at_a_large_level(self, capsys, level):
        # N(100003) = 10^10: a table sized by the level could not be built
        code, out, err = run(capsys, "cosets", "--level", level, "--cap", "10")
        assert (code, out) == (3, "")
        assert err == "error: quotient exceeded cap 10 (partial count 11)\n"

    def test_verify_kernel_layers_json(self, capsys):
        code, out, err = run(capsys, "verify", "kernel-layers", "--cap", "1000", "--json")
        assert code == 3
        assert err.startswith("error: orbit exceeded cap 1000")
        payload = json.loads(out)
        assert payload["schema"] == "hecke5/v1/error"
        assert (payload["cap"], payload["partial"]) == (1000, 1001)

    def test_verify_level5_cap_bounds_the_orbit(self, capsys):
        # level5 lists no group: the cap bounds the quotient's orbit of e1,
        # 600 points, not its 15,000 elements
        code, out, err = run(capsys, "verify", "level5", "--cap", "599")
        assert (code, out) == (3, "")
        assert err == "error: orbit exceeded cap 599 (partial count 600)\n"
        code, out, _ = run(capsys, "verify", "level5", "--cap", "600")
        assert (code, out) == (0, "[PASS] level5-structure\n")

    def test_verify_identities(self, capsys):
        # the identities sift into the chain of the quotient mod (4), whose
        # orbit of e1 has 80 points (20 lines times 4 units), not 320
        code, out, err = run(capsys, "verify", "identities", "--cap", "79")
        assert (code, out) == (3, "")
        assert err == "error: orbit exceeded cap 79 (partial count 80)\n"
        code, out, _ = run(capsys, "verify", "identities", "--cap", "80")
        assert (code, out) == (0, "[PASS] identities\n")

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["index", "--level", "7", "--enumerate"],
            ["cosets", "--level", "2"],
            ["verify", "level5"],
        ],
    )
    def test_non_positive_cap_is_usage_error(self, capsys, argv, cap):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cap", cap])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"argument --cap: invalid positive_int value: '{cap}'")

    @pytest.mark.parametrize("value", ["1_0", "\u0663" + "00", "0", "-5"])
    def test_max_norm_reads_integers_like_the_cap(self, capsys, value):
        # cli.positive_int: no underscores, no non-ASCII digits, at least 1
        with pytest.raises(SystemExit) as exc:
            main(["verify", "survey", "--max-norm", value])
        assert exc.value.code == 2
        assert "argument --max-norm: invalid positive_int value" in capsys.readouterr().err

    @pytest.mark.parametrize("max_norm", ["1", "1000001", str(10**30)])
    def test_max_norm_out_of_range_is_usage_error(self, capsys, monkeypatch, max_norm):
        # refused before any level is listed: listing 10^30 would never end
        monkeypatch.setattr(verify, "ideals_up_to", lambda bound: pytest.fail(f"levels listed to {bound}"))
        assert run(capsys, "verify", "survey", "--max-norm", max_norm) == (
            2, "", f"error: max-norm {max_norm} is outside 2 to 1000000\n",
        )

    @pytest.mark.parametrize("target", ["kernel-layers", "all"])
    def test_max_norm_is_checked_before_any_target(self, capsys, monkeypatch, target):
        # every target refuses the bound, also one that does not read it,
        # and `all` refuses it before its first target runs
        for name in VERIFIERS:
            monkeypatch.setitem(VERIFIERS, name, lambda *_, name=name: pytest.fail(f"{name} ran"))
        assert run(capsys, "verify", target, "--max-norm", "1") == (
            2, "", "error: max-norm 1 is outside 2 to 1000000\n",
        )

    @pytest.mark.parametrize("command", ["factor", "sl2order"])
    def test_commands_that_enumerate_nothing_take_no_cap(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--level", "6", "--cap", "5"])
        assert exc.value.code == 2


def run_optimized(*argv):
    """Run the CLI in a fresh `python -O` process, where asserts are gone."""
    return run_python_O("-m", "hecke5.cli", *argv)


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

    def test_a_triple_the_program_built_is_a_fault_not_a_usage_error(self, monkeypatch):
        # (1, 1, 2) is not an ideal: built by the program, here the prime
        # above 2 of a well-formed level, it raises RuntimeError, which
        # `main` does not report as exit 2
        monkeypatch.setattr(ideals, "lattice_hnf", lambda rows: (1, 1, 2))
        with pytest.raises(RuntimeError, match="not an ideal"):
            main(["index", "--formula", "--hnf", "2,0,2"])


class TestUsageErrorsUnderPythonO:
    @pytest.mark.parametrize(
        "argv",
        [
            ["divmod", "1", "0"],
            ["norm", "2L3"],
            ["index", "--level", "7", "--cap", "0"],
            ["factor", "--hnf", "1,2"],
            ["factor", "--hnf", "0,0,1"],
            ["factor", "--hnf", "1,5,3"],
            ["factor", "--level", "0"],
            ["index", "--level", "1"],
            ["index", "--hnf", "2,0,2", "--level", "3"],
        ],
    )
    def test_exit_two(self, argv):
        proc = run_optimized(*argv)
        assert proc.returncode == 2, proc
        assert proc.stdout == ""
        assert "error: " in proc.stderr.splitlines()[-1]
        assert "Traceback" not in proc.stderr


class TestClosedStdout:
    def test_reader_closing_early_is_quiet(self):
        # like `hecke5 cosets --level 5 | head -1`: about 600 kB, far more
        # than a pipe buffers, so the write fails once the reader is gone
        proc = subprocess.Popen(
            [sys.executable, "-m", "hecke5.cli", "cosets", "--level", "5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=src_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert first.endswith(b"]]\n")
        assert err == b""
        assert proc.returncode == 0

    def test_survey_with_stdout_closed_is_quiet(self):
        # like `hecke5 verify survey --max-norm 20 | head`, the reader gone
        # before the first line
        proc = subprocess.Popen(
            [sys.executable, "-m", "hecke5.cli", "verify", "survey", "--max-norm", "20"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=src_env(),
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")


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

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.tsv"
        code, out, err = run(capsys, "cosets", "--level", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1

    def test_no_file_when_the_cap_is_hit(self, capsys, tmp_path):
        target = tmp_path / "x.tsv"
        code, _, _ = run(capsys, "cosets", "--level", "3", "--cap", "119", "--out", str(target))
        assert code == 3
        assert not target.exists()

    def test_the_words_stream_to_the_file(self, capsys):
        # a line is written as its word is spelled, so the command's peak
        # of traced memory stays near that of the closure it reads
        level = ideals.ideal_from_generator(7)
        tracemalloc.start()
        try:
            build_quotient(level)
            _, closure_peak = tracemalloc.get_traced_memory()
            tracemalloc.clear_traces()
            tracemalloc.reset_peak()
            code = main(["cosets", "--level", "7", "--out", os.devnull])
            _, command_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().err == f"wrote 117600 cosets to {os.devnull}\n"
        assert command_peak < 1.5 * closure_peak, (command_peak, closure_peak)

    def test_output_pinned_at_two(self, capsys):
        # the BFS order (S before T, first discovery wins) fixes every line
        code, out, _ = run(capsys, "cosets", "--level", "2")
        assert code == 0
        assert out.splitlines() == [
            "\t[[1+0L,0+0L],[0+0L,1+0L]]",
            "S\t[[0+0L,1+0L],[1+0L,0+0L]]",
            "T\t[[1+0L,0+1L],[0+0L,1+0L]]",
            "ST\t[[0+0L,1+0L],[1+0L,0+1L]]",
            "TS\t[[0+1L,1+0L],[1+0L,0+0L]]",
            "STS\t[[1+0L,0+0L],[0+1L,1+0L]]",
            "TST\t[[0+1L,0+1L],[1+0L,0+1L]]",
            "STST\t[[1+0L,0+1L],[0+1L,0+1L]]",
            "TSTS\t[[0+1L,0+1L],[0+1L,1+0L]]",
            "STSTS\t[[0+1L,1+0L],[0+1L,0+1L]]",
        ]

    def test_output_pinned_at_three_plus_L(self, capsys):
        code, out, _ = run(capsys, "cosets", "--level", "3+L")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1320
        assert lines[:3] == [
            "\t[[0+7L,0+0L],[0+0L,0+7L]]",
            "S\t[[0+0L,0+7L],[0+4L,0+0L]]",
            "T\t[[0+7L,0+1L],[0+0L,0+7L]]",
        ]
        assert lines[-1] == "TTTTSTTSTSTTTTTT\t[[0+10L,0+9L],[0+2L,0+10L]]"
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "5450d1b2f3ca4bc81d0fcdd32c2f4963aa5666272915c14c9d1697444a93002d"
        )

    def test_output_pinned_at_five(self, capsys):
        code, out, _ = run(capsys, "cosets", "--level", "5")
        assert code == 0
        assert len(out.splitlines()) == 15000 and len(out) == 687703
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "9c93c97f052dc2d59079540def95eb3d95f2f2629a996012ef0dfda2d85c5ef0"
        )


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


class TestParserBuiltOnce:
    def test_import_builds_no_parser(self):
        code = "import hecke5.cli as cli; print(cli._parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=60
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    def test_one_parser_serves_different_commands(self, capsys, monkeypatch):
        import hecke5.cli as cli

        build_parser, built = cli.build_parser, []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        try:
            code, payload = run_json(capsys, "index", "--level", "3", "--enumerate")
            assert (code, payload["schema"], payload["index_h"]) == (0, "hecke5/v1/index", 120)
            assert run(capsys, "norm", "2+1L") == (0, "5\n", "")
            # no option value of an earlier call carries over: text, not JSON
            code, out, _ = run(capsys, "index", "--level", "2", "--enumerate")
            assert code == 0 and not out.startswith("{")
        finally:
            cli._parser.cache_clear()
        assert built == [1]


# the CLI fuzz: random literals up to 10^40, well formed or not, for the
# commands that take no level; levels of norm at most 10^4, malformed HNF
# triples and `--cap 1000` for the rest, so that factoring stays fast
big = st.integers(-(10**40), 10**40)
literals = st.one_of(
    st.builds("{}{:+d}L".format, big, big),
    big.map(str),
    st.text("0123456789+-L ", max_size=8),
)
matrices = st.one_of(
    st.builds("[[{},{}],[{},{}]]".format, literals, literals, literals, literals),
    st.text("[],0123456789+-L", max_size=16),
)
levels = st.one_of(
    st.tuples(st.integers(-100, 100), st.integers(-100, 100))
    .filter(lambda ab: abs(ab[0] ** 2 + ab[0] * ab[1] - ab[1] ** 2) <= 10**4)
    .map(lambda ab: [f"--level={ab[0]}{ab[1]:+d}L"]),
    st.one_of(
        st.lists(st.integers(-5, 100), min_size=3, max_size=3).map(
            lambda xs: ",".join(map(str, xs))
        ),
        st.text(",0123456789-a", max_size=10),
    ).map(lambda t: [f"--hnf={t}"]),
)
json_flag = st.sampled_from([[], ["--json"]])
CAP = ["--cap", "1000"]


def positionals(command, arity, values=literals):
    # "--" ends the options, so that a literal may start with "-"
    return st.builds(
        lambda flag, xs: [command, *flag, "--", *xs],
        json_flag,
        st.lists(values, min_size=arity, max_size=arity),
    )


INVOCATIONS = {
    "norm": positionals("norm", 1),
    "divmod": positionals("divmod", 2),
    "gcd": positionals("gcd", 2),
    "efactor": positionals("efactor", 2),
    "member": positionals("member", 1, matrices),
    "complete": positionals("complete", 2),
    "factor": st.builds(lambda lv, flag: ["factor", *lv, *flag], levels, json_flag),
    "sl2order": st.builds(lambda lv, flag: ["sl2order", *lv, *flag], levels, json_flag),
    "index": st.builds(
        lambda lv, mode, flag: ["index", *lv, *mode, *CAP, *flag],
        levels,
        st.sampled_from([[], ["--formula"], ["--enumerate"], ["--both"]]),
        json_flag,
    ),
    "cosets": levels.map(lambda lv: ["cosets", *lv, *CAP]),
    "verify": st.builds(
        lambda target, norm, flag: ["verify", target, *norm, *CAP, *flag],
        st.sampled_from(["all", *VERIFIERS]),
        st.sampled_from([[], *(["--max-norm", n] for n in ("1", "2", "20", str(10**6 + 1), str(10**30), "x"))]),
        json_flag,
    ),
}


def test_fuzz_covers_every_command():
    assert INVOCATIONS.keys() == COMMANDS.keys()


@settings(max_examples=300, deadline=None)
@given(st.one_of(*INVOCATIONS.values()))
def test_fuzz_no_traceback_and_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
