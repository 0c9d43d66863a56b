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

from .ideals import IdealHNF, factor_ideal


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
