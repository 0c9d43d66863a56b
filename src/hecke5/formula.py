"""Closed-form index of a principal congruence level.

The index is a product of local factors, one per prime power P^e exactly
dividing the level (N(P) the norm of P):

    P above 2 (inert, N = 4):   I_e = 10 for e = 1, 5 * 2^(6(e-1)) for e >= 2
    P above 3 (inert, N = 9):   J_e = 120 * 3^(6(e-1))
    any other P:                N^(3e-2) (N^2 - 1) = |SL2(O/P^e)|

and the empty factor (e = 0) is 1.  `index_factor` is that table and
`sl2_factor` its last row; every formula here and `quotient.sl2_order`
are built from the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import IdealHNF, _is_prime, factor_ideal


@dataclass(frozen=True)
class StepBound:
    exact: int
    bound: int


@dataclass(frozen=True)
class IndexReport:
    i_a: int
    j_b: int
    coprime_part_norm: int
    total: int


def sl2_factor(norm: int, e: int) -> int:
    """|SL2(O/P^e)| for a prime P of the given norm: N^(3e-2) (N^2 - 1)."""
    return norm ** (3 * e - 2) * (norm * norm - 1)


def index_factor(p: int, norm: int, e: int) -> int:
    """Local index factor at P^e, for P a prime of the given norm above the
    rational prime p: I_e at p = 2, J_e at p = 3, the SL2 factor otherwise."""
    if e == 0:
        return 1
    if p == 2:
        return 10 if e == 1 else 5 * 2 ** (6 * (e - 1))
    if p == 3:
        return 120 * 3 ** (6 * (e - 1))
    return sl2_factor(norm, e)


def index_formula(level: IdealHNF) -> IndexReport:
    """Pure integer arithmetic; never enumerates."""
    if level.norm < 2:
        raise ValueError("level must be a proper ideal (norm >= 2)")
    i_a = j_b = coprime_norm = total = 1
    for pf in factor_ideal(level):
        p, norm = pf.rational_prime, pf.prime.norm
        partial = index_factor(p, norm, pf.exponent)
        if p == 2:
            i_a = partial
        elif p == 3:
            j_b = partial
        else:
            coprime_norm *= norm**pf.exponent
        total *= partial
    return IndexReport(i_a, j_b, coprime_norm, total)


def index_prime_power(p: int, n: int, tau_exponent: int = 0) -> int:
    """Index at a prime-power-norm level.

    For inert p or p = 5 the level is p^n (read as tau^n when p = 5).
    For split p = +-1 mod 5 the level is p^n * tau^tau_exponent with tau
    one of the two primes above p; tau_exponent must be 0 otherwise.
    """
    if n < 0 or tau_exponent < 0 or (n == 0 and tau_exponent == 0):
        raise ValueError("need a positive prime-power level")
    if not _is_prime(p):
        raise ValueError(f"{p} is not a rational prime")
    if p == 5:
        if tau_exponent:
            raise ValueError("pass the tau-power as n for p = 5")
        return index_factor(5, 5, n)
    if p % 5 in (1, 4):
        # p^n tau^s = tau^(n+s) sigma^n
        return index_factor(p, p, n + tau_exponent) * index_factor(p, p, n)
    if tau_exponent:
        raise ValueError(f"{p} is inert; no split part")
    return index_factor(p, p * p, n)


def index_bound_step(pi: IdealHNF, n: int) -> StepBound:
    """Exact index step from level pi^n to pi^(n+1) for a prime ideal,
    together with the generic N(pi)^3 upper bound."""
    if n < 1:
        raise ValueError("tower step needs n >= 1")
    factors = factor_ideal(pi)
    if len(factors) != 1 or factors[0].exponent != 1:
        raise ValueError(f"{pi} is not a prime ideal")
    p, norm = factors[0].rational_prime, pi.norm
    exact = index_factor(p, norm, n + 1) // index_factor(p, norm, n)
    return StepBound(exact, norm**3)
