import math
import time
from functools import reduce
from itertools import combinations

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke5.golden import GoldenInt, LAMBDA, lambda_power
from hecke5.ideals import (
    IdealHNF,
    TAU,
    factor_ideal,
    ideal_divides,
    ideal_from_generator,
    ideal_mul,
    ideals_up_to,
    lattice_hnf,
    split_rational_prime,
)

coords = st.integers(-200, 200)
nonzero_elements = st.builds(GoldenInt, coords, coords).filter(bool)


def sympy_hnf(g: GoldenInt) -> IdealHNF:
    """Independent HNF of the row lattice of g and L*g via sympy.

    sympy returns an upper-triangular column HNF [[h00, h01], [0, h11]]
    whose columns span the lattice; convert that to the row convention
    (d1, k), (0, d2) with an extended gcd.
    """
    lg = LAMBDA * g
    m = sympy.Matrix([[g.a, lg.a], [g.b, lg.b]])
    h = hermite_normal_form(m)
    h00, h01, h11 = int(h[0, 0]), int(h[0, 1]), int(h[1, 1])
    u, v, d1 = sympy.gcdex(h00, h01)
    d1 = int(d1)
    d2 = abs(h00 * h11) // d1
    k = (int(v) * h11) % d2
    return IdealHNF(d1, k, d2)


class TestIdealHNF:
    def test_canonical_validation(self):
        with pytest.raises(ValueError):
            IdealHNF(0, 0, 1)
        with pytest.raises(ValueError):
            IdealHNF(2, 2, 2)
        with pytest.raises(ValueError):
            IdealHNF(2, -1, 2)

    def test_norm(self):
        assert IdealHNF(1, 3, 5).norm == 5
        assert IdealHNF(2, 0, 2).norm == 4

    def test_contains(self):
        a = IdealHNF(1, 3, 5)
        assert a.contains(GoldenInt(2, 1))
        assert a.contains(GoldenInt(1, 3))
        assert not a.contains(GoldenInt(1, 0))

    def test_lattice_that_is_not_an_ideal_rejected(self):
        # Z*1 + Z*2L: L * 1 = L is not in it
        with pytest.raises(ValueError, match="not an ideal"):
            IdealHNF(1, 0, 2)

    @given(
        st.integers(1, 30).flatmap(
            lambda d2: st.tuples(st.integers(1, 30), st.integers(0, d2 - 1), st.just(d2))
        )
    )
    @settings(max_examples=300)
    def test_rejected_exactly_when_not_closed_under_L(self, triple):
        d1, k, d2 = triple
        # oracle: the lattice with basis rows B is closed under v -> v M, the
        # action of L on coordinates, iff B M B^-1 is an integer matrix
        b = sympy.Matrix([[d1, k], [0, d2]])
        m = sympy.Matrix([[0, 1], [1, 1]])
        closed = all(x.is_integer for x in b * m * b.inv())
        if closed:
            assert IdealHNF(d1, k, d2).norm == d1 * d2
        else:
            with pytest.raises(ValueError):
                IdealHNF(d1, k, d2)


class TestLatticeHNF:
    def test_stabilizer_lattice_at_two(self):
        # the span Z*2 + Z*L (with the level (2)) is a lattice but not an ideal
        assert lattice_hnf([(2, 0), (0, 2), (0, 1)]) == (2, 0, 1)
        with pytest.raises(ValueError):
            IdealHNF(2, 0, 1)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            lattice_hnf([(2, 4), (1, 2)])
        with pytest.raises(ValueError):
            lattice_hnf([(0, 3), (0, 5)])

    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=2, max_size=6))
    @settings(max_examples=300)
    def test_spans_the_same_lattice(self, rows):
        # the determinant of the span is the gcd of the 2x2 minors
        det = 0
        for (a, b), (c, d) in combinations(rows, 2):
            det = math.gcd(det, a * d - b * c)
        if det == 0:
            with pytest.raises(ValueError):
                lattice_hnf(rows)
            return
        d1, k, d2 = lattice_hnf(rows)
        assert d1 > 0 and d2 > 0 and 0 <= k < d2
        assert d1 * d2 == det
        # every row lies in the HNF lattice, which has the same determinant,
        # so the two lattices are equal
        for x, y in rows:
            assert x % d1 == 0 and (y - x // d1 * k) % d2 == 0


class TestFromGenerator:
    @pytest.mark.parametrize(
        "gen,triple",
        [
            (TAU, (1, 3, 5)),
            (GoldenInt(2, 0), (2, 0, 2)),
            (GoldenInt(3, 0), (3, 0, 3)),
            (LAMBDA, (1, 0, 1)),
        ],
    )
    def test_examples(self, gen, triple):
        ideal = ideal_from_generator(gen)
        assert (ideal.d1, ideal.k, ideal.d2) == triple

    def test_int_argument(self):
        assert ideal_from_generator(4) == IdealHNF(4, 0, 4)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ideal_from_generator(GoldenInt(0, 0))

    @given(nonzero_elements)
    @settings(max_examples=150)
    def test_matches_sympy_hnf(self, g):
        assert ideal_from_generator(g) == sympy_hnf(g)

    @given(nonzero_elements, st.integers(-4, 4), st.sampled_from([1, -1]))
    @settings(max_examples=100)
    def test_associates_give_same_ideal(self, g, k, sign):
        assert ideal_from_generator(g) == ideal_from_generator(g * lambda_power(k) * sign)

    @given(nonzero_elements)
    def test_norm_and_membership(self, g):
        ideal = ideal_from_generator(g)
        assert ideal.norm == g.norm()
        assert ideal.contains(g)
        assert ideal.contains(LAMBDA * g)


class TestIdealArithmetic:
    @given(nonzero_elements, nonzero_elements)
    @settings(max_examples=100)
    def test_mul_of_principals(self, g, h):
        lhs = ideal_mul(ideal_from_generator(g), ideal_from_generator(h))
        assert lhs == ideal_from_generator(g * h)

    def test_divides(self):
        two = ideal_from_generator(2)
        four = ideal_from_generator(4)
        assert ideal_divides(two, four)
        assert not ideal_divides(four, two)
        assert ideal_divides(two, two)

    @given(nonzero_elements, nonzero_elements)
    @settings(max_examples=100)
    def test_factor_divides_product(self, g, h):
        a, b = ideal_from_generator(g), ideal_from_generator(h)
        p = ideal_mul(a, b)
        assert ideal_divides(a, p) and ideal_divides(b, p)


class TestSplitting:
    def test_five_ramifies(self):
        (pf,) = split_rational_prime(5)
        assert pf.ramified and pf.exponent == 2 and pf.residue_degree == 1
        assert pf.prime == IdealHNF(1, 3, 5)
        assert pf.rational_prime == 5

    def test_two_inert(self):
        (pf,) = split_rational_prime(2)
        assert not pf.ramified and pf.residue_degree == 2
        assert pf.prime == IdealHNF(2, 0, 2)
        assert pf.rational_prime == 2

    def test_eleven_splits(self):
        factors = split_rational_prime(11)
        assert len(factors) == 2
        assert all(f.prime.norm == 11 and f.residue_degree == 1 for f in factors)
        assert factors[0].prime != factors[1].prime
        prod = ideal_mul(factors[0].prime, factors[1].prime)
        assert prod == ideal_from_generator(11)

    @pytest.mark.parametrize("p", [11, 19, 29, 31, 41])
    def test_split_primes_mod_five(self, p):
        factors = split_rational_prime(p)
        assert len(factors) == 2
        for f in factors:
            assert f.generator.norm() == p and f.rational_prime == p
            assert ideal_divides(f.prime, ideal_from_generator(p))

    @pytest.mark.parametrize("p", [2, 3, 7, 13, 17, 23])
    def test_inert_primes_mod_five(self, p):
        (pf,) = split_rational_prime(p)
        assert pf.prime.norm == p * p and pf.residue_degree == 2
        assert pf.rational_prime == p

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            split_rational_prime(6)

    def test_deterministic_order(self):
        assert split_rational_prime(11) == split_rational_prime(11)

    @pytest.mark.parametrize("p", [2, 3, 5, 11, 19])
    def test_power_is_prime_to_exponent(self, p):
        check = IdealHNF(1, 0, 1)
        for f in split_rational_prime(p):
            assert f.power == reduce(ideal_mul, [f.prime] * f.exponent)
            check = ideal_mul(check, f.power)
        assert check == ideal_from_generator(p)


class TestFactorIdeal:
    def test_six(self):
        factors = factor_ideal(ideal_from_generator(6))
        assert [(f.rational_prime, f.exponent, f.residue_degree) for f in factors] == [
            (2, 1, 2),
            (3, 1, 2),
        ]

    def test_five(self):
        factors = factor_ideal(ideal_from_generator(5))
        assert len(factors) == 1
        assert factors[0].exponent == 2 and factors[0].ramified

    def test_unit_ideal_empty(self):
        assert factor_ideal(IdealHNF(1, 0, 1)) == []
        assert IdealHNF(1, 0, 1).factors == ()

    @pytest.mark.parametrize("g", [6, 5, 11, 1000, GoldenInt(7, 3)])
    def test_factors_kept_per_object(self, g):
        level = ideal_from_generator(g)
        factors = level.factors
        assert isinstance(factors, tuple) and list(factors) == factor_ideal(level)
        assert level.factors is factors
        # an equal level built apart compares and hashes alike, and
        # factors itself
        twin = IdealHNF(level.d1, level.k, level.d2)
        assert twin == level and hash(twin) == hash(level) and twin is not level
        assert twin.factors == factors and twin.factors is not factors

    def test_rational_prime_level_trial_divides_d2(self):
        # (1000000007), 2 mod 5, is inert: its norm is p^2, but the trial
        # division runs on d2 = p, so only up to sqrt(p)
        start = time.perf_counter()
        factors = factor_ideal(ideal_from_generator(1000000007))
        assert time.perf_counter() - start < 10
        assert [(f.rational_prime, f.exponent, f.residue_degree) for f in factors] == [
            (1000000007, 1, 2)
        ]

    @given(nonzero_elements)
    @settings(max_examples=60, deadline=None)
    def test_reconstruction(self, g):
        ideal = ideal_from_generator(g)
        factors = factor_ideal(ideal)
        check = IdealHNF(1, 0, 1)
        for f in factors:
            assert f.power == reduce(ideal_mul, [f.prime] * f.exponent)
            check = ideal_mul(check, f.power)
        assert check == ideal
        assert ideal.norm == 1 or all(
            f.prime.norm > 1 for f in factors
        )


class TestIdealsUpTo:
    def test_every_triple_that_is_an_ideal(self):
        # every HNF triple of norm 2..150, k < d2 unrestricted: the ones
        # IdealHNF accepts, in (norm, d1, k) order
        expected = []
        for d1 in range(1, 151):
            for d2 in range(1, 150 // d1 + 1):
                for k in range(d2):
                    if d1 * d2 >= 2:
                        try:
                            expected.append(IdealHNF(d1, k, d2))
                        except ValueError:
                            pass
        expected.sort(key=lambda x: (x.norm, x.d1, x.k))
        assert ideals_up_to(150) == expected

    def test_below_the_first_ideal(self):
        # no ideal has norm 2 or 3: 2 and 3 are inert
        assert ideals_up_to(1) == ideals_up_to(3) == []
        assert ideals_up_to(4) == [IdealHNF(2, 0, 2)]


def residue(ideal: IdealHNF, x: GoldenInt) -> GoldenInt:
    """The reduced pair of x mod the ideal, as an element."""
    return GoldenInt(*ideal.reduce_pair(x.a, x.b))


class TestResidueRing:
    """The residue ring Z[L]/A, whose residues are the reduced pairs of
    `IdealHNF.reduce_pair`."""

    def test_size_matches_enumeration(self):
        # the reductions of a box of lifts fill exactly the d1 x d2 grid
        for triple in [(1, 0, 1), (2, 0, 2), (1, 3, 5), (3, 0, 3), (4, 0, 4), (2, 6, 10)]:
            ideal = IdealHNF(*triple)
            reduced = {ideal.reduce_pair(a, b) for a in range(-12, 12) for b in range(-12, 12)}
            grid = {(x, y) for x in range(ideal.d1) for y in range(ideal.d2)}
            assert reduced == grid and len(grid) == ideal.norm

    def test_reduce_is_section(self):
        for ideal in (IdealHNF(1, 3, 5), IdealHNF(2, 6, 10)):
            for x in range(ideal.d1):
                for y in range(ideal.d2):
                    assert ideal.reduce_pair(x, y) == (x, y)

    def test_reduction_kernel_is_the_ideal(self):
        # independent oracle: x lies in (g) exactly when g divides x
        for g in (GoldenInt(4, 2), GoldenInt(9, 3), GoldenInt(4, 1), GoldenInt(6, 0)):
            ideal = ideal_from_generator(g)
            for a in range(-12, 13):
                for b in range(-12, 13):
                    x = GoldenInt(a, b)
                    assert (ideal.reduce_pair(a, b) == (0, 0)) == g.divides(x)
                    assert ideal.contains(x) == g.divides(x)

    @given(
        st.builds(GoldenInt, st.integers(-50, 50), st.integers(-50, 50)),
        st.builds(GoldenInt, st.integers(-50, 50), st.integers(-50, 50)),
    )
    def test_ring_homomorphism(self, x, y):
        g = GoldenInt(4, 1)
        ideal = ideal_from_generator(g)
        rx, ry = residue(ideal, x), residue(ideal, y)
        # a lift and its residue differ by a multiple of the generator
        assert g.divides(x - rx)
        # reducing before or after +, *, - and negation gives the same residue
        assert residue(ideal, rx + ry) == residue(ideal, x + y)
        assert residue(ideal, rx * ry) == residue(ideal, x * y)
        assert residue(ideal, rx - ry) == residue(ideal, x - y)
        assert residue(ideal, -rx) == residue(ideal, -x)

    def test_residue_field_of_split_prime(self):
        ideal = IdealHNF(1, 3, 5)
        one = GoldenInt(*ideal.reduce_pair(1, 0))
        # every nonzero class invertible: x^(q-1) = 1 with q = 5
        for x in range(ideal.d1):
            for y in range(ideal.d2):
                if (x, y) == (0, 0):
                    continue
                acc = one
                for _ in range(4):
                    acc = residue(ideal, acc * GoldenInt(x, y))
                assert acc == one
