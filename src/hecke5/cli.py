"""Command-line front end.

Every command is a thin adapter over the library, declared once in
`COMMANDS`; `--json` emits a single JSON document with a versioned
`schema` field.  Exit codes: 0 success, 1 a payload whose `passed` is
false (a verification did not pass), 2 usage error (a malformed literal,
a number that `golden.parse_int` refuses, a zero divisor, a level that
is not an ideal or is given by both `--level` and `--hnf`, two of
`index`'s `--enumerate`, `--formula` and `--both`, a `--cap` below 1,
a `--max-norm` outside 2 to `verify.MAX_SURVEY_NORM`, an `--out` that
cannot be written), 3 a safeguard cap was hit
(`--cap`, the pseudo-Euclidean loop's coordinate budget,
`golden.EUCLID_BUDGET_BITS`, trial division's budget of divisors,
`ideals._DIVISOR_BUDGET`, or an element too long to print,
`golden.format_element`); the error goes to stderr and, under `--json`,
a `hecke5/v1/error` document with `error`, `cap` and `partial` goes to
stdout.  A reader that closes stdout early (`hecke5 cosets ... | head`)
cuts the output short quietly: no traceback, and the exit code the
command would have had anyway.  `cosets` streams its lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

from .formula import index_formula
from .golden import (
    IterationCapError,
    NotAnIntegerError,
    TooLongToPrintError,
    divmod_pseudo,
    format_element,
    gcd_pseudo,
    parse_element,
    parse_int,
)
from .ideals import IdealHNF, ideal_from_generator
from .matrices import complete_column, is_member, parse_matrix, reduce_fraction
from .quotient import (
    DEFAULT_CAP,
    CapExceededError,
    Chain,
    build_quotient,
    coset_words,
    index_g,
    sl2_order,
)
from . import verify as verify_mod

def positive_int(text: str) -> int:
    """argparse type of `--cap`; argparse turns the ValueError into exit 2.

    argparse reports a ValueError only as `invalid positive_int value`, so
    `parse_int`'s other reasons (the digit bound, whitespace between
    digits) go out as ArgumentTypeError, whose message argparse prints."""
    try:
        n = parse_int(text)
    except NotAnIntegerError:
        raise
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if n < 1:
        raise ValueError(text)
    return n


def _level_ideal(args) -> IdealHNF:
    if args.hnf is not None and args.level is not None:
        raise ValueError("give only one of --level or --hnf")
    if args.hnf is not None:
        usage = f"--hnf takes three integers d1,k,d2, not {args.hnf!r}"
        parts = args.hnf.split(",")
        if len(parts) != 3:
            raise ValueError(usage)
        try:  # parse_int's bound and whitespace errors pass through
            d1, k, d2 = map(parse_int, parts)
        except NotAnIntegerError:
            raise ValueError(usage) from None
        return IdealHNF(d1, k, d2)
    if not args.level:
        raise ValueError("one of --level or --hnf is required")
    return ideal_from_generator(parse_element(args.level))


def cmd_norm(args, x):
    return {"element": format_element(x), "norm": x.norm()}, str(x.norm())


def cmd_divmod(args, a, b):
    q, r = divmod_pseudo(a, b)
    return {"q": q, "r": format_element(r)}, f"q = {q}, r = {format_element(r)}"


def cmd_gcd(args, a, b):
    g, quots = gcd_pseudo(a, b)
    text = f"gcd = {format_element(g)}  (quotients {quots})"
    return {"gcd": format_element(g), "quotients": quots}, text


def cmd_efactor(args, a, b):
    rr = reduce_fraction(a, b)
    text = f"e = {rr.e}"
    if not args.json:
        # only --json prints the completion, which can be too long to print
        return None, text
    payload = {
        "e": rr.e,
        "unit_sign": rr.unit.sign,
        "quotients": rr.quotients,
        "completion": str(rr.completion),
    }
    return payload, text


def cmd_member(args, m):
    ok = is_member(m)
    return {"member": ok}, str(ok).lower()


def cmd_complete(args, a, c):
    x = complete_column(a, c)
    return {"matrix": str(x)}, str(x)


def cmd_factor(args, ideal):
    factors = [
        {
            "hnf": [pf.prime.d1, pf.prime.k, pf.prime.d2],
            "generator": format_element(pf.generator),
            "exponent": pf.exponent,
            "degree": pf.residue_degree,
            "ramified": pf.ramified,
        }
        for pf in ideal.factors
    ]
    text = " * ".join(f"({f['generator']})^{f['exponent']}" for f in factors) or "(1)"
    return {"norm": ideal.norm, "factors": factors}, text


def cmd_sl2order(args, ideal):
    n = sl2_order(ideal)
    return {"order": n}, str(n)


def cmd_index(args, ideal):
    payload: dict = {"level": str(ideal), "norm": ideal.norm, "sl2_order": sl2_order(ideal)}
    lines = [f"level {ideal} of norm {ideal.norm}"]
    if args.mode in ("formula", "both"):
        rep = index_formula(ideal)
        payload["index_formula"] = rep.total
        payload["i_a"] = rep.i_a
        payload["j_b"] = rep.j_b
        payload["coprime_part_norm"] = rep.coprime_part_norm
        lines.append(f"index (formula)     = {rep.total}")
    if args.mode in ("enumerate", "both"):
        chain = Chain(ideal, args.cap)
        n = chain.order
        payload["index_h"] = n
        payload["orbit"] = chain.orbit
        payload["stabilizer"] = chain.stabilizer
        payload["index_g"] = index_g(ideal, n)
        payload["surjective"] = n == payload["sl2_order"]
        lines.append(f"index (enumerated)  = {n}")
        lines.append(f"index in G (mod +-I) = {payload['index_g']}")
        lines.append(f"sl2 order            = {payload['sl2_order']}")
        lines.append(f"surjective           = {payload['surjective']}")
    if args.mode == "both":
        payload["agrees"] = payload["index_formula"] == payload["index_h"]
        lines.append(f"agrees               = {payload['agrees']}")
    return payload, "\n".join(lines)


def cmd_cosets(args, ideal):
    predecessor = build_quotient(ideal, args.cap)  # a cap error comes before any output
    # the four entries' reduced pairs (x, y), each printed x+yL
    entries = "[[{}{:+d}L,{}{:+d}L],[{}{:+d}L,{}{:+d}L]]\n"
    lines = (
        f"{word}\t{entries.format(*key)}"
        for key, word in coset_words(ideal, predecessor)
    )
    if args.out == "-":
        return None, lines
    with open(args.out, "w") as fh:
        fh.writelines(lines)
    print(f"wrote {len(predecessor)} cosets to {args.out}", file=sys.stderr)
    return None, None


def cmd_verify(args):
    # the bound is checked before any target runs, whether it reads it or not
    if not 2 <= args.max_norm <= verify_mod.MAX_SURVEY_NORM:
        raise ValueError(f"max-norm {args.max_norm} is outside 2 to {verify_mod.MAX_SURVEY_NORM}")
    # `all` runs every target, in the table's order
    targets = verify_mod.VERIFIERS if args.target == "all" else [args.target]
    reports = [r for t in targets for r in verify_mod.VERIFIERS[t](args.cap, args.max_norm)]
    ok = all(r.passed for r in reports)
    payload = {
        "passed": ok,
        "reports": [
            {"name": r.name, "passed": r.passed, "checks": [vars(c) for c in r.checks]}
            for r in reports
        ],
    }
    lines = []
    for r in reports:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
        for c in r.checks:
            if not c.passed:
                lines.append(f"    FAIL {c.name}: computed {c.computed}, expected {c.expected}")
    return payload, "\n".join(lines)


class Command(NamedTuple):
    """A subcommand and the shared flags it takes: `--level`/`--hnf`,
    `--cap` (`cap` says what it bounds) and `--json`.  The handler takes
    `args` and the values `main` read (a `level` row's ideal, else each
    positional through `parse`) and returns `(payload, text)`; `main`
    prints the payload under `--json`, else the text, a string or an
    iterable of lines written as they come, unless it is None."""

    help: str
    handler: Callable
    positionals: tuple[str, ...] = ()
    level: bool = False
    cap: str | None = None
    json: bool = True
    parse: Callable = parse_element


COMMANDS = {
    "norm": Command("absolute norm of an element", cmd_norm, ("element",)),
    "divmod": Command("pseudo-Euclidean division a = (qL)b + r", cmd_divmod, ("a", "b")),
    "gcd": Command("pseudo-Euclidean gcd", cmd_gcd, ("a", "b")),
    "efactor": Command("reduced factor e(a/b) of a fraction", cmd_efactor, ("a", "b")),
    "member": Command(
        "Hecke group membership test for a matrix", cmd_member, ("matrix",), parse=parse_matrix
    ),
    "complete": Command(
        "complete a reduced column (a, c) to a group element", cmd_complete, ("a", "c")
    ),
    "factor": Command("prime factorization of a level ideal", cmd_factor, level=True),
    "sl2order": Command("order of SL2 of the residue ring", cmd_sl2order, level=True),
    "index": Command(
        "index of the principal congruence subgroup",
        cmd_index,
        level=True,
        cap="points in the orbit of e1 the count may reach",
    ),
    "cosets": Command(
        "coset representative words for a level",
        cmd_cosets,
        level=True,
        cap="quotient elements to enumerate",
        json=False,
    ),
    "verify": Command(
        "machine-verify the supporting computations",
        cmd_verify,
        cap="orbit points of a chain's count",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke5",
        description="Exact arithmetic and congruence-subgroup indices for the "
        "Hecke group over Z[L], L^2 = L + 1.  Element literals use integer "
        "coefficients and L, e.g. '3+2L'; matrices look like '[[0,1L],[-1,0]]'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for positional in command.positionals:
            p.add_argument(positional)
        if command.level:
            p.add_argument("--level", help="level as a generator literal, e.g. '2+L'")
            p.add_argument("--hnf", help="level as an HNF triple 'd1,k,d2'")
        if command.cap:
            cap_help = f"most {command.cap}; exit 3 beyond it"
            p.add_argument("--cap", type=positive_int, default=DEFAULT_CAP, help=cap_help)
        if command.json:
            p.add_argument("--json", action="store_true", help="machine-readable output")

    index = sub.choices["index"]
    modes = index.add_mutually_exclusive_group()
    for mode in ("enumerate", "formula", "both"):
        modes.add_argument(f"--{mode}", dest="mode", action="store_const", const=mode)
    index.set_defaults(mode="both")
    sub.choices["cosets"].add_argument("--out", default="-", help="output file ('-' for stdout)")
    verify = sub.choices["verify"]
    verify.add_argument("target", choices=["all", *verify_mod.VERIFIERS])
    norm_help = f"survey the levels of norm 2 to this, at most {verify_mod.MAX_SURVEY_NORM}"
    verify.add_argument("--max-norm", type=positive_int, default=verify_mod.SURVEY_NORM, help=norm_help)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call, not at import:
    `parse_args` makes a fresh namespace each time, so one parser serves
    every call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    # argparse itself exits 2 on usage errors
    args = _parser().parse_args(argv)
    command = args.command
    row = COMMANDS[command]
    try:
        if row.level:
            values = [_level_ideal(args)]
        else:
            values = [row.parse(getattr(args, name)) for name in row.positionals]
        payload, text = row.handler(args, *values)
        status = 1 if payload and payload.get("passed") is False else 0
    # ZeroDivisionError: a zero divisor argument; OSError: opening `--out`
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapExceededError, IterationCapError, TooLongToPrintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        command, text, status = "error", None, 3
        cap, partial = getattr(exc, "cap", None), getattr(exc, "partial", None)
        payload = {"error": str(exc), "cap": cap, "partial": partial}
    try:
        if getattr(args, "json", False):
            print(json.dumps({"schema": f"hecke5/v1/{command}", **payload}, sort_keys=True))
        elif text is not None:
            sys.stdout.writelines([text + "\n"] if isinstance(text, str) else text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); send what is left to
        # devnull so that the flush at interpreter exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
