"""Command-line front end.

Every command is a thin adapter over the library; `--json` emits a single
JSON document with a versioned `schema` field.  Exit codes: 0 success,
1 mathematical failure (a verification did not pass), 2 usage error,
3 a safeguard cap was hit (`--cap`, or an internal iteration cap); the
error goes to stderr and, under `--json`, a `hecke5/v1/error` document
with `error`, `cap` and `partial` goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .formula import index_formula
from .golden import (
    IterationCapError,
    divmod_pseudo,
    format_element,
    gcd_pseudo,
    parse_element,
)
from .ideals import IdealHNF, factor_ideal, ideal_from_generator
from .matrices import (
    complete_column,
    is_member,
    parse_matrix,
    reduce_fraction,
)
from .quotient import (
    DEFAULT_CAP,
    CapExceededError,
    build_quotient,
    coset_words,
    index_g,
    orbit_stabilizer,
    sl2_order,
)
from . import verify as verify_mod

SCHEMA_PREFIX = "hecke5/v1"


def _level_ideal(args) -> IdealHNF:
    if args.hnf:
        d1, k, d2 = (int(x) for x in args.hnf.split(","))
        return IdealHNF(d1, k, d2)
    if not args.level:
        raise ValueError("one of --level or --hnf is required")
    return ideal_from_generator(parse_element(args.level))


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_norm(args) -> int:
    x = parse_element(args.element)
    _emit(args, {"schema": f"{SCHEMA_PREFIX}/norm", "element": format_element(x), "norm": x.norm()}, str(x.norm()))
    return 0


def cmd_divmod(args) -> int:
    a, b = parse_element(args.a), parse_element(args.b)
    q, r = divmod_pseudo(a, b)
    _emit(
        args,
        {"schema": f"{SCHEMA_PREFIX}/divmod", "q": q, "r": format_element(r)},
        f"q = {q}, r = {format_element(r)}",
    )
    return 0


def cmd_gcd(args) -> int:
    a, b = parse_element(args.a), parse_element(args.b)
    g, quots = gcd_pseudo(a, b)
    _emit(
        args,
        {"schema": f"{SCHEMA_PREFIX}/gcd", "gcd": format_element(g), "quotients": quots},
        f"gcd = {format_element(g)}  (quotients {quots})",
    )
    return 0


def cmd_efactor(args) -> int:
    a, b = parse_element(args.a), parse_element(args.b)
    rr = reduce_fraction(a, b)
    _emit(
        args,
        {
            "schema": f"{SCHEMA_PREFIX}/efactor",
            "e": rr.e,
            "unit_sign": rr.unit.sign,
            "quotients": rr.quotients,
            "completion": str(rr.completion),
        },
        f"e = {rr.e}",
    )
    return 0


def cmd_member(args) -> int:
    m = parse_matrix(args.matrix)
    ok = is_member(m)
    _emit(args, {"schema": f"{SCHEMA_PREFIX}/member", "member": ok}, str(ok).lower())
    return 0


def cmd_complete(args) -> int:
    a, c = parse_element(args.a), parse_element(args.c)
    x = complete_column(a, c)
    _emit(args, {"schema": f"{SCHEMA_PREFIX}/complete", "matrix": str(x)}, str(x))
    return 0


def cmd_factor(args) -> int:
    ideal = _level_ideal(args)
    factors = [
        {
            "hnf": [pf.prime.d1, pf.prime.k, pf.prime.d2],
            "generator": format_element(pf.generator),
            "exponent": pf.exponent,
            "degree": pf.residue_degree,
            "ramified": pf.ramified,
        }
        for pf in factor_ideal(ideal)
    ]
    text = " * ".join(
        f"({f['generator']})^{f['exponent']}" for f in factors
    ) or "(1)"
    _emit(args, {"schema": f"{SCHEMA_PREFIX}/factor", "norm": ideal.norm, "factors": factors}, text)
    return 0


def cmd_sl2order(args) -> int:
    ideal = _level_ideal(args)
    n = sl2_order(ideal)
    _emit(args, {"schema": f"{SCHEMA_PREFIX}/sl2order", "order": n}, str(n))
    return 0


def cmd_index(args) -> int:
    ideal = _level_ideal(args)
    payload: dict = {
        "schema": f"{SCHEMA_PREFIX}/index",
        "level": str(ideal),
        "norm": ideal.norm,
        "sl2_order": sl2_order(ideal),
    }
    lines = [f"level {ideal} of norm {ideal.norm}"]
    if args.mode in ("formula", "both"):
        rep = index_formula(ideal)
        payload["index_formula"] = rep.total
        payload["i_a"] = rep.i_a
        payload["j_b"] = rep.j_b
        payload["coprime_part_norm"] = rep.coprime_part_norm
        lines.append(f"index (formula)     = {rep.total}")
    if args.mode in ("enumerate", "both"):
        orbit, stabilizer = orbit_stabilizer(ideal, args.cap)
        n = orbit * stabilizer
        payload["index_h"] = n
        payload["orbit"] = orbit
        payload["stabilizer"] = stabilizer
        payload["index_g"] = index_g(ideal, index=n)
        payload["surjective"] = n == payload["sl2_order"]
        lines.append(f"index (enumerated)  = {n}")
        lines.append(f"index in G (mod +-I) = {payload['index_g']}")
        lines.append(f"sl2 order            = {payload['sl2_order']}")
        lines.append(f"surjective           = {payload['surjective']}")
    if args.mode == "both":
        payload["agrees"] = payload["index_formula"] == payload["index_h"]
        lines.append(f"agrees               = {payload['agrees']}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_cosets(args) -> int:
    ideal = _level_ideal(args)
    q = build_quotient(ideal, args.cap)
    rows = [
        f"{word}\t[[{m.entry(0, 0)},{m.entry(0, 1)}],[{m.entry(1, 0)},{m.entry(1, 1)}]]"
        for m, word in coset_words(q)
    ]
    out = "\n".join(rows) + "\n"
    if args.out == "-":
        sys.stdout.write(out)
    else:
        with open(args.out, "w") as fh:
            fh.write(out)
        print(f"wrote {q.order} cosets to {args.out}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if args.target == "all":
        reports = verify_mod.verify_all(args.cap)
    else:
        reports = verify_mod.VERIFIERS[args.target](args.cap)
    ok = all(r.passed for r in reports)
    if args.json:
        payload = {
            "schema": f"{SCHEMA_PREFIX}/verify",
            "passed": ok,
            "reports": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "checks": [
                        {
                            "name": c.name,
                            "passed": c.passed,
                            "computed": c.computed,
                            "expected": c.expected,
                        }
                        for c in r.checks
                    ],
                }
                for r in reports
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in reports:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
            for c in r.checks:
                if not c.passed:
                    print(f"    FAIL {c.name}: computed {c.computed}, expected {c.expected}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke5",
        description="Exact arithmetic and congruence-subgroup indices for the "
        "Hecke group over Z[L], L^2 = L + 1.  Element literals use integer "
        "coefficients and L, e.g. '3+2L'; matrices look like '[[0,1L],[-1,0]]'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_level(p):
        p.add_argument("--level", help="level as a generator literal, e.g. '2+L'")
        p.add_argument("--hnf", help="level as an HNF triple 'd1,k,d2'")

    def add_cap(p, what):
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=f"most {what}; exit 3 beyond it")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("norm", help="absolute norm of an element")
    p.add_argument("element")
    add_json(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("divmod", help="pseudo-Euclidean division a = (qL)b + r")
    p.add_argument("a")
    p.add_argument("b")
    add_json(p)
    p.set_defaults(func=cmd_divmod)

    p = sub.add_parser("gcd", help="pseudo-Euclidean gcd")
    p.add_argument("a")
    p.add_argument("b")
    add_json(p)
    p.set_defaults(func=cmd_gcd)

    p = sub.add_parser("efactor", help="reduced factor e(a/b) of a fraction")
    p.add_argument("a")
    p.add_argument("b")
    add_json(p)
    p.set_defaults(func=cmd_efactor)

    p = sub.add_parser("member", help="Hecke group membership test for a matrix")
    p.add_argument("matrix")
    add_json(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("complete", help="complete a reduced column (a, c) to a group element")
    p.add_argument("a")
    p.add_argument("c")
    add_json(p)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("factor", help="prime factorization of a level ideal")
    add_level(p)
    add_json(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("sl2order", help="order of SL2 of the residue ring")
    add_level(p)
    add_json(p)
    p.set_defaults(func=cmd_sl2order)

    p = sub.add_parser("index", help="index of the principal congruence subgroup")
    add_level(p)
    add_cap(p, "orbit points (columns) the count may visit")
    add_json(p)
    p.add_argument(
        "--enumerate", dest="mode", action="store_const", const="enumerate"
    )
    p.add_argument("--formula", dest="mode", action="store_const", const="formula")
    p.add_argument("--both", dest="mode", action="store_const", const="both")
    p.set_defaults(func=cmd_index, mode="both")

    p = sub.add_parser("cosets", help="coset representative words for a level")
    add_level(p)
    add_cap(p, "quotient elements to enumerate")
    p.add_argument("--out", default="-", help="output file ('-' for stdout)")
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("verify", help="machine-verify the supporting computations")
    p.add_argument(
        "target",
        choices=["all", *verify_mod.VERIFIERS],
    )
    add_cap(p, "elements any one group enumeration may hold")
    add_json(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse itself exits 2 on usage errors
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapExceededError, IterationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "json", False):
            payload = {
                "schema": f"{SCHEMA_PREFIX}/error",
                "error": str(exc),
                "cap": getattr(exc, "cap", None),
                "partial": getattr(exc, "partial", None),
            }
            print(json.dumps(payload, sort_keys=True))
        return 3


if __name__ == "__main__":
    sys.exit(main())
