"""The CLI's observable behaviour, pinned: stdout, stderr and exit code of
each invocation below, and the arguments every subcommand declares.

Outputs longer than a line or two are pinned by sha256.  The rendered
`--help` text is not pinned, because it changes with the Python version
and the terminal width; the declared arguments behind it are.
"""

import argparse
import hashlib

import pytest

from hecke5.cli import build_parser, main

# (argv, exit code, stdout, stderr); "sha256:<hex>" stands for a longer text
INVOCATIONS = [
    (["norm", "2+1L"], 0, "5\n", ""),
    (
        ["norm", "2+1L", "--json"],
        0,
        '{"element": "2+1L", "norm": 5, "schema": "hecke5/v1/norm"}\n',
        "",
    ),
    (["divmod", "5", "2"], 0, "q = 2, r = 5-4L\n", ""),
    (
        ["divmod", "5", "2", "--json"],
        0,
        '{"q": 2, "r": "5-4L", "schema": "hecke5/v1/divmod"}\n',
        "",
    ),
    (["gcd", "1", "1"], 0, "gcd = 1-1L  (quotients [1, -1])\n", ""),
    (
        ["gcd", "1", "1", "--json"],
        0,
        '{"gcd": "1-1L", "quotients": [1, -1], "schema": "hecke5/v1/gcd"}\n',
        "",
    ),
    (["efactor", "2", "3L"], 0, "e = 2\n", ""),
    (
        ["efactor", "2", "3L", "--json"],
        0,
        '{"completion": "[[-2-2L,1+2L],[-3-6L,2+5L]]", "e": 2, "quotients": [0, -1, 1, 2, 1], '
        '"schema": "hecke5/v1/efactor", "unit_sign": -1}\n',
        "",
    ),
    (["member", "[[1,1],[0,1]]"], 0, "false\n", ""),
    (
        ["member", "[[0,1],[-1,0]]", "--json"],
        0,
        '{"member": true, "schema": "hecke5/v1/member"}\n',
        "",
    ),
    (["complete", "1", "0"], 0, "[[1+0L,0+0L],[0+0L,1+0L]]\n", ""),
    (
        ["complete", "1", "0", "--json"],
        0,
        '{"matrix": "[[1+0L,0+0L],[0+0L,1+0L]]", "schema": "hecke5/v1/complete"}\n',
        "",
    ),
    (["factor", "--level", "6"], 0, "(2+0L)^1 * (3+0L)^1\n", ""),
    (
        ["factor", "--level", "6", "--json"],
        0,
        "sha256:5dd70b4dae6011cd4cbfce8d19e957f47b3f47b654b19a258ab2437e3c11403d",
        "",
    ),
    (
        ["factor", "--hnf", "1,3,5", "--json"],
        0,
        '{"factors": [{"degree": 1, "exponent": 1, "generator": "2+1L", "hnf": [1, 3, 5], '
        '"ramified": true}], "norm": 5, "schema": "hecke5/v1/factor"}\n',
        "",
    ),
    (["sl2order", "--level", "3"], 0, "720\n", ""),
    (
        ["sl2order", "--level", "3", "--json"],
        0,
        '{"order": 720, "schema": "hecke5/v1/sl2order"}\n',
        "",
    ),
    (
        ["index", "--level", "2"],
        0,
        "sha256:1049748f01254ac64588730b243d4ba11cfc109ca36046c193235af5e7f963ba",
        "",
    ),
    (
        ["index", "--level", "2", "--json"],
        0,
        "sha256:d1937d1818c341b7c512f496694f86d0952d4a55bd1d69e6394a71be82c540b4",
        "",
    ),
    (
        ["index", "--level", "2+1L", "--formula"],
        0,
        "level [1,3,5] of norm 5\nindex (formula)     = 120\n",
        "",
    ),
    (
        ["index", "--level", "2+1L", "--formula", "--json"],
        0,
        '{"coprime_part_norm": 5, "i_a": 1, "index_formula": 120, "j_b": 1, "level": "[1,3,5]", '
        '"norm": 5, "schema": "hecke5/v1/index", "sl2_order": 120}\n',
        "",
    ),
    (
        ["index", "--level", "3", "--enumerate"],
        0,
        "level [3,0,3] of norm 9\nindex (enumerated)  = 120\nindex in G (mod +-I) = 60\n"
        "sl2 order            = 720\nsurjective           = False\n",
        "",
    ),
    (
        ["index", "--level", "3", "--enumerate", "--json"],
        0,
        "sha256:24449453528ab19f9f9d7ef8a79bc224495dae8ae7d66f4012690641bf363ab9",
        "",
    ),
    (
        ["cosets", "--level", "3"],
        0,
        "sha256:3c5debf3fbc639da224dcdb1ac17949fa3bbedce764a237d464b005cb207dd29",
        "",
    ),
    (["verify", "identities"], 0, "[PASS] identities\n", ""),
    (
        ["verify", "identities", "--json"],
        0,
        "sha256:f80c327d2a46947ca57723a5d0d95b16dd9b99af21f2633035ad5e64ab5ea1ff",
        "",
    ),
    (["verify", "level5"], 0, "[PASS] level5-structure\n", ""),
    (
        ["verify", "level5", "--json"],
        0,
        "sha256:ea0709dff7121582b9fed72d769e2ea6536d392cc77b3a8f8a6a533a01267759",
        "",
    ),
    (["verify", "conjugation-action"], 0, "[PASS] conjugation-action\n", ""),
    (
        ["verify", "conjugation-action", "--json"],
        0,
        "sha256:e3bb37e20854312fa0ade696256146495c36184693cfec0caf9ec8add4e31537",
        "",
    ),
    # usage errors the library reports
    (["norm", "2+x"], 2, "", "error: bad element literal at position 2: '2+x'\n"),
    (["norm", "2+x", "--json"], 2, "", "error: bad element literal at position 2: '2+x'\n"),
    (["complete", "1", "1"], 2, "", "error: (1+0L, 1+0L) has reduced factor 1 != 0\n"),
    (["factor"], 2, "", "error: one of --level or --hnf is required\n"),
    (
        ["factor", "--hnf", "1,0,2"],
        2,
        "",
        "error: HNF triple (1, 0, 2) is a lattice but not an ideal\n",
    ),
    (["gcd", "0", "0", "--json"], 2, "", "error: gcd(0, 0) is undefined\n"),
    # cap errors
    (
        ["index", "--level", "7", "--enumerate", "--cap", "100"],
        3,
        "",
        "error: orbit exceeded cap 100 (partial count 101)\n",
    ),
    (
        ["index", "--level", "7", "--enumerate", "--cap", "100", "--json"],
        3,
        '{"cap": 100, "error": "orbit exceeded cap 100 (partial count 101)", "partial": 101, '
        '"schema": "hecke5/v1/error"}\n',
        "error: orbit exceeded cap 100 (partial count 101)\n",
    ),
    (
        ["cosets", "--level", "3", "--cap", "119"],
        3,
        "",
        "error: quotient exceeded cap 119 (partial count 120)\n",
    ),
    (
        ["verify", "identities", "--cap", "100", "--json"],
        3,
        '{"cap": 100, "error": "quotient exceeded cap 100 (partial count 101)", "partial": 101, '
        '"schema": "hecke5/v1/error"}\n',
        "error: quotient exceeded cap 100 (partial count 101)\n",
    ),
]


@pytest.mark.parametrize(
    "argv,code,out,err", INVOCATIONS, ids=[" ".join(case[0]) for case in INVOCATIONS]
)
def test_invocation(capsys, argv, code, out, err):
    assert main(argv) == code
    captured = capsys.readouterr()
    if out.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(captured.out.encode()).hexdigest() == out
    else:
        assert captured.out == out
    assert captured.err == err


# argparse's own usage errors: exit 2, nothing on stdout, and the start of
# the last stderr line (the rest, and the usage lines above it, vary with
# the Python version and the terminal width)
ARGPARSE_ERRORS = [
    (["frobnicate"], "hecke5: error: argument command: invalid choice: "),
    (["verify", "nonsense"], "hecke5 verify: error: argument target: invalid choice: "),
    (["factor", "--level", "6", "--cap", "5"], "hecke5: error: unrecognized arguments: --cap 5"),
    (["cosets", "--level", "2", "--json"], "hecke5: error: unrecognized arguments: --json"),
    (["index", "--level", "7", "--cap", "x"], "hecke5 index: error: argument --cap: invalid "),
    (["norm"], "hecke5 norm: error: the following arguments are required: element"),
]


@pytest.mark.parametrize(
    "argv,last_line", ARGPARSE_ERRORS, ids=[" ".join(case[0]) for case in ARGPARSE_ERRORS]
)
def test_argparse_usage_error(capsys, argv, last_line):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(last_line)


def subparsers() -> argparse._SubParsersAction:
    (action,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action


def test_subcommands_and_their_help():
    assert [(a.dest, a.help) for a in subparsers()._choices_actions] == [
        ("norm", "absolute norm of an element"),
        ("divmod", "pseudo-Euclidean division a = (qL)b + r"),
        ("gcd", "pseudo-Euclidean gcd"),
        ("efactor", "reduced factor e(a/b) of a fraction"),
        ("member", "Hecke group membership test for a matrix"),
        ("complete", "complete a reduced column (a, c) to a group element"),
        ("factor", "prime factorization of a level ideal"),
        ("sl2order", "order of SL2 of the residue ring"),
        ("index", "index of the principal congruence subgroup"),
        ("cosets", "coset representative words for a level"),
        ("verify", "machine-verify the supporting computations"),
    ]


JSON = (["--json"], "json", False, None, "machine-readable output")
LEVEL = [
    (["--level"], "level", None, None, "level as a generator literal, e.g. '2+L'"),
    (["--hnf"], "hnf", None, None, "level as an HNF triple 'd1,k,d2'"),
]

# name -> (positionals as (dest, choices, help), options other than -h as
# (option strings, dest, default, choices, help), parser defaults but func)
ARGUMENTS = {
    "norm": ([("element", None, None)], [JSON], {}),
    "divmod": ([("a", None, None), ("b", None, None)], [JSON], {}),
    "gcd": ([("a", None, None), ("b", None, None)], [JSON], {}),
    "efactor": ([("a", None, None), ("b", None, None)], [JSON], {}),
    "member": ([("matrix", None, None)], [JSON], {}),
    "complete": ([("a", None, None), ("c", None, None)], [JSON], {}),
    "factor": ([], [*LEVEL, JSON], {}),
    "sl2order": ([], [*LEVEL, JSON], {}),
    "index": (
        [],
        [
            *LEVEL,
            (
                ["--cap"],
                "cap",
                5000000,
                None,
                "most points in the orbit of e1 the count may reach; exit 3 beyond it",
            ),
            JSON,
            (["--enumerate"], "mode", "both", None, None),
            (["--formula"], "mode", "both", None, None),
            (["--both"], "mode", "both", None, None),
        ],
        {"mode": "both"},
    ),
    "cosets": (
        [],
        [
            *LEVEL,
            (
                ["--cap"],
                "cap",
                5000000,
                None,
                "most quotient elements to enumerate; exit 3 beyond it",
            ),
            (["--out"], "out", "-", None, "output file ('-' for stdout)"),
        ],
        {},
    ),
    "verify": (
        [("target", ["all", "kernel-layers", "conjugation-action", "level5", "identities"], None)],
        [
            (
                ["--cap"],
                "cap",
                5000000,
                None,
                "most elements any one group enumeration may hold; exit 3 beyond it",
            ),
            JSON,
        ],
        {},
    ),
}


@pytest.mark.parametrize("name", ARGUMENTS)
def test_subcommand_arguments(name):
    parser = subparsers().choices[name]
    positionals = [(a.dest, a.choices, a.help) for a in parser._actions if not a.option_strings]
    options = [
        (a.option_strings, a.dest, a.default, a.choices, a.help)
        for a in parser._actions
        if a.option_strings and a.dest != "help"
    ]
    defaults = {k: v for k, v in parser._defaults.items() if k != "func"}
    assert (positionals, options, defaults) == ARGUMENTS[name]
