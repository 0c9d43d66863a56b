import math

import pytest
import sympy

from hecke5.golden import GoldenInt
from hecke5.formula import (
    index_bound_step,
    index_formula,
    index_prime_power,
)
from hecke5.ideals import (
    IdealHNF,
    ideal_from_generator,
    ideal_mul,
    ideal_pow,
    split_rational_prime,
)
from hecke5.quotient import index_h, sl2_order

from test_quotient import principal_levels

TAU = GoldenInt(2, 1)
TAU_IDEAL = IdealHNF(1, 3, 5)


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
        assert index_formula(ideal_pow(TAU_IDEAL, 3)).total == 24 * 5**7

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
    def test_inert_two_tower(self):
        assert index_prime_power(2, 1) == 10
        assert index_prime_power(2, 2) == 320
        assert index_prime_power(2, 3) == 20480

    def test_inert_three_tower(self):
        assert index_prime_power(3, 1) == 120
        assert index_prime_power(3, 2) == 87480

    def test_ramified_five(self):
        assert index_prime_power(5, 1) == 120
        assert index_prime_power(5, 2) == 15000

    def test_generic_inert(self):
        assert index_prime_power(7, 1) == 117600

    def test_split_prime(self):
        # level = one degree-1 prime above 11
        assert index_prime_power(11, 0, tau_exponent=1) == 1320
        # level = (11), both primes above it
        assert index_prime_power(11, 1) == 1742400
        assert index_prime_power(11, 1) == index_prime_power(11, 0, 1) ** 2

    def test_consistent_with_formula(self):
        for p, n in [(2, 2), (3, 1), (7, 1), (13, 1)]:
            assert (
                index_prime_power(p, n)
                == index_formula(ideal_from_generator(p**n)).total
            )
        tau11 = split_rational_prime(11)[0].prime
        assert index_prime_power(11, 0, 1) == index_formula(tau11).total

    def test_every_prime_power_level_up_to_norm_2000(self):
        # index_prime_power(p, n, s) is the index at tau^(n+s) sigma^n for the
        # two primes above a split p, and so also at sigma^(n+s) tau^n
        levels = set()
        for n in range(1, 5):
            level = ideal_pow(TAU_IDEAL, n)
            assert index_prime_power(5, n) == index_formula(level).total, level
            levels.add(level)
        for p in sympy.primerange(2, 2001):
            if p % 5 in (2, 3):
                n = 1
                while p ** (2 * n) <= 2000:
                    level = ideal_from_generator(p**n)
                    assert index_prime_power(p, n) == index_formula(level).total, level
                    levels.add(level)
                    n += 1
            elif p != 5:
                tau, sigma = (pf.prime for pf in split_rational_prime(p))
                for a in range(1, 12):
                    for b in range(a + 1):
                        if p ** (a + b) > 2000:
                            break
                        expected = index_prime_power(p, b, a - b)
                        for x, y in ((tau, sigma), (sigma, tau)):
                            level = ideal_mul(ideal_pow(x, a), ideal_pow(y, b))
                            assert expected == index_formula(level).total, level
                            levels.add(level)
        # the sweep reached every level of prime-power norm up to 2000,
        # among them the mixed tau^2 sigma above 11
        assert levels == {
            level
            for level in principal_levels(2, 2000)
            if len(sympy.factorint(level.norm)) == 1
        }
        assert len(levels) == 329

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            index_prime_power(2, 0)
        with pytest.raises(ValueError):
            index_prime_power(2, 1, tau_exponent=1)
        with pytest.raises(ValueError):
            index_prime_power(7, 1, tau_exponent=1)
        with pytest.raises(ValueError):
            index_prime_power(5, 1, tau_exponent=1)
        for not_prime in (4, 1, 9, -3):
            with pytest.raises(ValueError):
                index_prime_power(not_prime, 1)


class TestIndexBoundStep:
    def test_two_exceptional_first_step(self):
        two = ideal_from_generator(2)
        s1 = index_bound_step(two, 1)
        assert (s1.exact, s1.bound) == (32, 64)
        s2 = index_bound_step(two, 2)
        assert (s2.exact, s2.bound) == (64, 64)

    def test_ramified(self):
        s = index_bound_step(TAU_IDEAL, 1)
        assert (s.exact, s.bound) == (125, 125)

    def test_inert(self):
        s = index_bound_step(ideal_from_generator(7), 1)
        assert (s.exact, s.bound) == (7**6, 7**6)

    def test_split_degree_one(self):
        tau11 = split_rational_prime(11)[0].prime
        s = index_bound_step(tau11, 1)
        assert (s.exact, s.bound) == (11**3, 11**3)

    def test_steps_assemble_the_tower(self):
        # index at pi^(n+1) = index at pi^n times the step, for several pi
        for pi_gen, reps in [(2, 3), (3, 2), (7, 2), (GoldenInt(3, 1), 3)]:
            pi = ideal_from_generator(pi_gen)
            level = pi
            for n in range(1, reps + 1):
                nxt = ideal_mul(level, pi)
                step = index_bound_step(pi, n)
                assert (
                    index_formula(nxt).total
                    == index_formula(level).total * step.exact
                )
                assert step.exact <= step.bound
                level = nxt
        level = TAU_IDEAL
        for n in range(1, 4):
            nxt = ideal_mul(level, TAU_IDEAL)
            assert (
                index_formula(nxt).total
                == index_formula(level).total * index_bound_step(TAU_IDEAL, n).exact
            )
            level = nxt

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            index_bound_step(ideal_from_generator(4), 1)
        with pytest.raises(ValueError):
            index_bound_step(ideal_from_generator(6), 1)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            index_bound_step(ideal_from_generator(2), 0)
