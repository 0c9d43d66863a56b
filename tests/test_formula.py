import math
from functools import reduce

import pytest
import sympy

from hecke5.golden import GoldenInt
from hecke5.formula import index_factor, index_formula
from hecke5.ideals import (
    IdealHNF,
    factor_ideal,
    ideal_from_generator,
    ideal_mul,
    ideals_up_to,
    split_rational_prime,
)
from hecke5.quotient import sl2_order

TAU = GoldenInt(2, 1)
TAU_IDEAL = IdealHNF(1, 3, 5)


def ideal_power(x: IdealHNF, n: int) -> IdealHNF:
    """x^n, the unit ideal at n = 0."""
    return reduce(ideal_mul, [x] * n, IdealHNF(1, 0, 1))


class TestIndexFormula:
    @pytest.mark.parametrize(
        "gen,total",
        [
            (2, 10),
            (3, 120),
            (TAU, 120),
            (4, 320),
            (5, 15000),
            (8, 20480),
            (9, 87480),
            (7, 117600),
            (6, 1200),
            (10, 150000),
            (GoldenInt(3, 1), 1320),
            (11, 1742400),
        ],
    )
    def test_closed_form_values(self, gen, total):
        assert index_formula(ideal_from_generator(gen)).total == total

    def test_tau_cubed(self):
        assert index_formula(ideal_power(TAU_IDEAL, 3)).total == 24 * 5**7

    def test_report_fields(self):
        report = index_formula(ideal_from_generator(6))
        assert report.i_a == 10 and report.j_b == 120
        assert report.coprime_part_norm == 1
        assert report.total == 1200
        report7 = index_formula(ideal_from_generator(7))
        assert report7.i_a == 1 and report7.j_b == 1
        assert report7.coprime_part_norm == 49

    def test_unit_level_rejected(self):
        with pytest.raises(ValueError):
            index_formula(IdealHNF(1, 0, 1))

    def test_multiplicative_over_coprime_parts(self):
        two = ideal_from_generator(2)
        seven = ideal_from_generator(7)
        prod = ideal_mul(two, seven)
        assert (
            index_formula(prod).total
            == index_formula(two).total * index_formula(seven).total
        )

    @pytest.mark.parametrize("gen", [TAU, 4, 5, 7, 8, 9, GoldenInt(3, 1)])
    def test_agrees_with_enumeration(self, quotient_cache, gen):
        ideal = gen if isinstance(gen, IdealHNF) else ideal_from_generator(gen)
        assert index_formula(ideal).total == quotient_cache(gen).order

    @pytest.mark.parametrize("gen", [7, GoldenInt(3, 1), GoldenInt(4, 1)])
    def test_equals_sl2_order_away_from_six(self, gen):
        ideal = ideal_from_generator(gen)
        assert math.gcd(ideal.norm, 6) == 1
        assert index_formula(ideal).total == sl2_order(ideal)

    @pytest.mark.parametrize("gen", [2, 3, 4, 6, 9])
    def test_smaller_than_sl2_order_at_six(self, gen):
        ideal = ideal_from_generator(gen)
        assert index_formula(ideal).total < sl2_order(ideal)


class TestIndexPrimePower:
    """`index_factor`, the paper's table of the index at a prime power P^e,
    read as index_factor(rational prime, N(P), e)."""

    def test_inert_two_tower(self):
        assert [index_factor(2, 4, e) for e in (1, 2, 3)] == [10, 320, 20480]

    def test_inert_three_tower(self):
        assert [index_factor(3, 9, e) for e in (1, 2)] == [120, 87480]

    def test_ramified_five(self):
        assert [index_factor(5, 5, e) for e in (1, 2)] == [120, 15000]

    def test_generic_inert(self):
        assert index_factor(7, 49, 1) == 117600

    def test_split_prime(self):
        # one degree-1 prime above 11, and (11), both primes above it
        tau11 = split_rational_prime(11)[0].prime
        assert index_factor(11, 11, 1) == index_formula(tau11).total == 1320
        assert index_formula(ideal_from_generator(11)).total == 1320**2 == 1742400

    def test_consistent_with_formula(self):
        for p, n in [(2, 2), (3, 1), (7, 1), (13, 1)]:
            assert index_factor(p, p * p, n) == index_formula(ideal_from_generator(p**n)).total
        tau11 = split_rational_prime(11)[0].prime
        assert index_factor(11, 11, 1) == index_formula(tau11).total

    def test_every_prime_power_level_up_to_norm_2000(self):
        # the level tau^a sigma^b for the two primes above a split p has
        # index index_factor(p, p, a) * index_factor(p, p, b)
        levels = set()
        for n in range(1, 5):
            level = ideal_power(TAU_IDEAL, n)
            assert index_factor(5, 5, n) == index_formula(level).total, level
            levels.add(level)
        for p in sympy.primerange(2, 2001):
            if p % 5 in (2, 3):
                n = 1
                while p ** (2 * n) <= 2000:
                    level = ideal_from_generator(p**n)
                    assert index_factor(p, p * p, n) == index_formula(level).total, level
                    levels.add(level)
                    n += 1
            elif p != 5:
                tau, sigma = (pf.prime for pf in split_rational_prime(p))
                for a in range(1, 12):
                    for b in range(a + 1):
                        if p ** (a + b) > 2000:
                            break
                        expected = index_factor(p, p, a) * index_factor(p, p, b)
                        for x, y in ((tau, sigma), (sigma, tau)):
                            level = ideal_mul(ideal_power(x, a), ideal_power(y, b))
                            assert expected == index_formula(level).total, level
                            levels.add(level)
        # the sweep reached every level of prime-power norm up to 2000,
        # among them the mixed tau^2 sigma above 11
        assert levels == {
            level
            for level in ideals_up_to(2000)
            if len(sympy.factorint(level.norm)) == 1
        }
        assert len(levels) == 329


def step(p: int, norm: int, n: int) -> int:
    """The index step from P^n to P^(n+1), read from `index_factor`."""
    exact, rest = divmod(index_factor(p, norm, n + 1), index_factor(p, norm, n))
    assert rest == 0
    return exact


class TestIndexBoundStep:
    """Each step up a prime-power tower is at most N(P)^3, the order of the
    kernel layer, and equals it except from (2) to (4)."""

    def test_two_exceptional_first_step(self):
        assert (step(2, 4, 1), step(2, 4, 2)) == (32, 64)

    def test_ramified(self):
        assert step(5, 5, 1) == 125

    def test_inert(self):
        assert step(7, 49, 1) == 7**6

    def test_split_degree_one(self):
        assert step(11, 11, 1) == 11**3

    def test_steps_assemble_the_tower(self):
        # index at pi^(n+1) = index at pi^n times the step, for several pi
        for pi_gen, reps in [(2, 3), (3, 2), (7, 2), (GoldenInt(3, 1), 3), (TAU, 3)]:
            pi = ideal_from_generator(pi_gen)
            (pf,) = factor_ideal(pi)
            level = pi
            for n in range(1, reps + 1):
                nxt = ideal_mul(level, pi)
                exact = step(pf.rational_prime, pi.norm, n)
                assert index_formula(nxt).total == index_formula(level).total * exact
                assert exact <= pi.norm**3
                level = nxt
