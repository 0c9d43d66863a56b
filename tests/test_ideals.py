import math
import random
import time
from collections import Counter
from functools import reduce
from itertools import combinations

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hecke5 import ideals
from hecke5.golden import GoldenInt, IterationCapError, LAMBDA, gcd_pseudo, lambda_power
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

from conftest import divides

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
        assert a.contains(2, 1)
        assert a.contains(1, 3)
        assert not a.contains(1, 0)

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
    @example([(10**30 + 7, -(10**30) + 3), (-(10**30) + 1, 10**30 - 11), (3 * 10**29, 10**30 + 1)])
    @example([(-6, 4), (-10, -3), (-15, 7)])
    @example([(0, 0), (4, 6), (0, 0), (6, 1)])
    @example([(2 * (10**30 + 3), -4 * (10**30 - 1)), (-3 * (10**30 + 3), 6 * (10**30 - 1))])
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
        lg = LAMBDA * g
        assert ideal.contains(g.a, g.b)
        assert ideal.contains(lg.a, lg.b)


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


def basis(x: IdealHNF) -> tuple[GoldenInt, GoldenInt]:
    return GoldenInt(x.d1, x.k), GoldenInt(0, x.d2)


def reference_mul(x: IdealHNF, y: IdealHNF) -> IdealHNF:
    """x * y as the span of the GoldenInt products of the two bases."""
    products = [e * f for e in basis(x) for f in basis(y)]
    return IdealHNF(*lattice_hnf([(p.a, p.b) for p in products]))


def reference_divides(x: IdealHNF, y: IdealHNF) -> bool:
    """x | y exactly when x + y, the span of both bases, is x."""
    return lattice_hnf([(e.a, e.b) for e in basis(x) + basis(y)]) == (x.d1, x.k, x.d2)


class TestAgainstGoldenIntReference:
    """`ideal_mul` and `ideal_divides` run on the HNF integers; the
    reference builds GoldenInts."""

    def test_every_pair_up_to_norm_120(self):
        small = ideals_up_to(120)
        assert len(small) > 40
        for x in small:
            for y in small:
                assert ideal_mul(x, y) == reference_mul(x, y), (x, y)
                assert ideal_divides(x, y) == reference_divides(x, y), (x, y)

    @given(nonzero_elements, nonzero_elements)
    @settings(max_examples=200)
    def test_principal_ideals(self, g, h):
        x, y = ideal_from_generator(g), ideal_from_generator(h)
        assert ideal_mul(x, y) == reference_mul(x, y)
        assert ideal_divides(x, y) == reference_divides(x, y)
        assert ideal_divides(y, x) == reference_divides(y, x)


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

    def test_split_primes_below_5000_match_the_gcd_construction(self):
        # oracle: each root t of t^2 = t + 1 from sympy's square roots of 5
        # (t = (1 + r) / 2 for r^2 = 5), and each prime as the ideal of
        # gcd(p, L - t), in the order of the roots' primes' k
        for p in sympy.primerange(2, 5000):
            if p % 5 not in (1, 4):
                continue
            factors = split_rational_prime(p)
            half = pow(2, -1, p)
            roots = sorted((1 + r) * half % p for r in sympy.ntheory.sqrt_mod(5, p, all_roots=True))
            assert len(roots) == 2 and all((t * t - t - 1) % p == 0 for t in roots)
            gcd_primes = sorted(
                (ideal_from_generator(gcd_pseudo(GoldenInt(p, 0), GoldenInt(-t, 1))[0]) for t in roots),
                key=lambda x: x.k,
            )
            assert [f.prime for f in factors] == gcd_primes
            assert sorted((1 - f.prime.k) % p for f in factors) == roots
            for f in factors:
                assert ideal_from_generator(f.generator) == f.prime

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

    def test_inert_prime_near_10_to_15_is_factored_at_once(self):
        # trial division to sqrt(10^15 + 37) took about 2 s; the prime
        # cofactor now ends it once d passes 1000
        start = time.perf_counter()
        factors = factor_ideal(ideal_from_generator(10**15 + 37))
        assert time.perf_counter() - start < 1
        assert [(f.rational_prime, f.exponent, f.residue_degree) for f in factors] == [
            (10**15 + 37, 1, 2)
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

    def test_degrees_and_exponents_add_up_to_the_norm(self):
        # for every ideal of norm <= 1000 and every p: the sum of f * e over
        # the primes above p is v_p(N(A)), read from sympy
        for ideal in ideals_up_to(1000):
            found = Counter()
            for f in ideal.factors:
                found[f.rational_prime] += f.residue_degree * f.exponent
            assert found == sympy.factorint(ideal.norm), ideal


class TestFactorInt:
    def test_psi12_is_the_bound_of_the_prime_test(self):
        # the least composite that passes the twelve Miller-Rabin bases
        assert ideals._PSI12 == 399165290221 * 798330580441
        assert ideals._is_prime(ideals._PSI12) and not sympy.isprime(ideals._PSI12)

    def test_matches_sympy_on_large_prime_cofactors(self):
        rng = random.Random(20261019)
        for _ in range(200):
            smooth = math.prod(rng.choice((2, 3, 5, 7, 997, 1009, 65537)) for _ in range(rng.randint(0, 6)))
            middle = sympy.prevprime(rng.randint(1001, 10**5)) if rng.random() < 0.5 else 1
            big = sympy.prevprime(rng.randint(10**6, 10**20))
            n = smooth * middle * big
            assert ideals._factor_int(n) == sympy.factorint(n), n

    def test_matches_sympy_below_10_to_7(self):
        rng = random.Random(20261020)
        for n in [*range(1, 2000), *(rng.randint(2000, 10**7) for _ in range(2000))]:
            assert ideals._factor_int(n) == sympy.factorint(n), n

    def test_no_cofactor_at_or_above_psi12_is_tested(self, monkeypatch):
        # a prime test that says yes to everything: the exit it allows
        # may be taken only below the bound; with the bound lowered to the
        # prime p, 1009 * p keeps dividing past d = 1009 and finds p itself
        asked = []
        monkeypatch.setattr(ideals, "_is_prime", lambda n: asked.append(n) or True)
        n = 1009**7 * 1013 * 1019 * 1021  # above the bound until 1009 is out
        assert n > ideals._PSI12
        assert ideals._factor_int(n) == {1009: 7, 1013 * 1019 * 1021: 1}
        assert asked == [1013 * 1019 * 1021]
        p = 10000019
        monkeypatch.setattr(ideals, "_PSI12", p)
        asked.clear()
        assert ideals._factor_int(1009 * p) == {1009: 1, p: 1} == sympy.factorint(1009 * p)
        assert asked == []
        assert ideals._factor_int(1009 * 1013 * 9999991) == {1009: 1, 1013: 1, 9999991: 1}
        assert asked == [9999991]

    def test_division_budget(self, monkeypatch):
        # a cofactor with two prime factors above the budget is not
        # factored; one prime factor above it, below psi12, still is
        monkeypatch.setattr(ideals, "_DIVISOR_BUDGET", 1500)
        with pytest.raises(IterationCapError, match="trial division passed d = 1500"):
            ideals._factor_int(2 * 1511 * 1523)
        assert ideals._factor_int(2 * 1499 * (10**9 + 7)) == {2: 1, 1499: 1, 10**9 + 7: 1}

    def test_a_prime_factor_near_the_budget_above_a_large_prime(self):
        # the budget is the divisor 10^7, which 3,000,017 stays below
        p = sympy.nextprime(10**18)
        assert ideals._factor_int(3000017 * p) == {3000017: 1, p: 1}

    def test_no_prime_test_below_d_1000(self, monkeypatch):
        # norms below 10^6 are trial-divided as before, with no prime test
        monkeypatch.setattr(ideals, "_is_prime", lambda n: pytest.fail(f"prime test on {n}"))
        for n in (999983, 997 * 991, 2**19, 10**6 - 1):
            assert ideals._factor_int(n) == sympy.factorint(n)


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
                    assert (ideal.reduce_pair(a, b) == (0, 0)) == divides(g, x)
                    assert ideal.contains(a, b) == divides(g, x)

    @given(
        st.builds(GoldenInt, st.integers(-50, 50), st.integers(-50, 50)),
        st.builds(GoldenInt, st.integers(-50, 50), st.integers(-50, 50)),
    )
    def test_ring_homomorphism(self, x, y):
        g = GoldenInt(4, 1)
        ideal = ideal_from_generator(g)
        rx, ry = residue(ideal, x), residue(ideal, y)
        # a lift and its residue differ by a multiple of the generator
        assert divides(g, x - rx)
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
