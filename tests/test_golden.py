import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke5.golden import (
    GoldenInt,
    IterationCapError,
    LAMBDA,
    NotAUnitError,
    ONE,
    ZERO,
    compare_real,
    divmod_pseudo,
    format_element,
    gcd_pseudo,
    lambda_power,
    parse_element,
    power,
    unit_log,
)

coords = st.integers(-(10**6), 10**6)
elements = st.builds(GoldenInt, coords, coords)
nonzero = elements.filter(bool)
big_coords = st.integers(-(2**64), 2**64)
big_elements = st.builds(GoldenInt, big_coords, big_coords)


def real_value(x: GoldenInt) -> mpmath.mpf:
    """100-digit interval-style evaluation, independent of the exact code."""
    with mpmath.workdps(100):
        return mpmath.mpf(x.a) + mpmath.mpf(x.b) * (1 + mpmath.sqrt(5)) / 2


def oracle_divmod(a: GoldenInt, b: GoldenInt):
    """Brute scan for the unique q putting r in (-|bL|/2, |bL|/2]."""
    c = LAMBDA * b
    with mpmath.workdps(100):
        guess = int(mpmath.nint(real_value(a) / real_value(c)))
        hits = []
        eps = mpmath.mpf(10) ** -80
        for q in range(guess - 3, guess + 4):
            r = a - c * q
            half = abs(real_value(c)) / 2
            rv = real_value(r)
            # the right endpoint is included, the left excluded; eps guards
            # against last-digit ties when r sits exactly on the boundary
            if rv > -half + eps and (rv < half - eps or abs(rv - half) < eps):
                hits.append((q, r))
    assert len(hits) == 1
    return hits[0]


class TestMul:
    def test_lambda_squared(self):
        assert LAMBDA * LAMBDA == GoldenInt(1, 1)

    def test_identity(self):
        assert GoldenInt(2, 1) * ONE == GoldenInt(2, 1)

    def test_lambda_inverse(self):
        # expand L(L-1) = L^2 - L = 1
        assert LAMBDA * (LAMBDA - ONE) == ONE

    @given(elements, elements, elements)
    def test_ring_axioms(self, x, y, z):
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


class TestNorm:
    def test_tau(self):
        assert GoldenInt(2, 1).norm() == 5

    def test_unit(self):
        assert LAMBDA.norm() == 1

    def test_rational(self):
        assert GoldenInt(3, 0).norm() == 9

    @given(elements, elements)
    def test_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()


class TestCompareReal:
    def test_lambda_gt_one(self):
        assert compare_real(LAMBDA, ONE) == 1

    def test_one_minus_lambda_negative(self):
        assert compare_real(ONE - LAMBDA, ZERO) == -1

    def test_equal(self):
        assert compare_real(GoldenInt(2, 1), GoldenInt(2, 1)) == 0

    @given(elements, elements)
    def test_matches_high_precision(self, x, y):
        diff = real_value(x) - real_value(y)
        expected = 0 if x == y else (1 if diff > 0 else -1)
        assert compare_real(x, y) == expected

    @given(elements, elements, elements)
    def test_total_order_translation_invariant(self, x, y, z):
        assert compare_real(x, y) == compare_real(x + z, y + z)


class TestDivmodPseudo:
    @pytest.mark.parametrize(
        "a,b,q,r",
        [
            # oracle scan over q in {0,+-1,+-2}: only q=1 lands inside
            (ONE, ONE, 1, GoldenInt(1, -1)),
            # 5 - 4L is about -1.47, inside (-L, L]
            (GoldenInt(5, 0), GoldenInt(2, 0), 2, GoldenInt(5, -4)),
            # boundary: r equals |bL|/2 exactly and is included
            (LAMBDA, GoldenInt(2, 0), 0, LAMBDA),
        ],
    )
    def test_examples(self, a, b, q, r):
        assert divmod_pseudo(a, b) == (q, r)
        assert oracle_divmod(a, b) == (q, r)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divmod_pseudo(ONE, ZERO)

    @given(elements, nonzero)
    def test_division_identity_and_interval(self, a, b):
        q, r = divmod_pseudo(a, b)
        assert a == LAMBDA * b * q + r
        abs_c = (LAMBDA * b).abs_real()
        r2 = r + r
        assert (r2 + abs_c).sign() > 0
        assert (r2 - abs_c).sign() <= 0

    @given(elements, nonzero)
    def test_quotient_unique(self, a, b):
        q, _ = divmod_pseudo(a, b)
        abs_c = (LAMBDA * b).abs_real()
        for bad in (q - 1, q + 1):
            r2 = (a - LAMBDA * b * bad) * 2
            assert not ((r2 + abs_c).sign() > 0 and (r2 - abs_c).sign() <= 0)

    # r = |bL|/2 exactly, for both signs of bL: the right endpoint is kept
    @pytest.mark.parametrize(
        "a,b,q",
        [
            (-LAMBDA, GoldenInt(2, 0), -1),
            (LAMBDA, GoldenInt(-2, 0), 0),
            (-LAMBDA, GoldenInt(-2, 0), 1),
        ],
    )
    def test_half_boundary_both_signs(self, a, b, q):
        assert divmod_pseudo(a, b) == oracle_divmod(a, b) == (q, LAMBDA)

    @given(elements.filter(bool), st.integers(-50, 50))
    def test_ties_round_to_the_right_endpoint(self, half_b, k):
        # a = (k + 1/2) * bL puts a/(bL) exactly halfway between two integers
        b = half_b * 2
        a = LAMBDA * half_b * (2 * k + 1)
        q, r = divmod_pseudo(a, b)
        assert (q, r) == oracle_divmod(a, b)
        assert r + r == (LAMBDA * b).abs_real()

    @given(big_elements, big_elements.filter(bool))
    def test_matches_oracle_at_64_bits(self, a, b):
        assert divmod_pseudo(a, b) == oracle_divmod(a, b)


class TestGcdPseudo:
    def test_unit_pair(self):
        g, steps = gcd_pseudo(ONE, ONE)
        assert g == GoldenInt(1, -1)
        assert g.norm() == 1
        assert steps == [1, -1]

    def test_b_zero(self):
        a = GoldenInt(7, 3)
        g, steps = gcd_pseudo(a, ZERO)
        assert g == a and steps == []

    def test_coprime_to_three_lambda(self):
        g, _ = gcd_pseudo(GoldenInt(2, 0), GoldenInt(0, 3))
        assert g.norm() == 1

    def test_both_zero(self):
        with pytest.raises(ValueError):
            gcd_pseudo(ZERO, ZERO)

    @given(nonzero, nonzero)
    @settings(max_examples=200)
    def test_divides_both(self, a, b):
        g, _ = gcd_pseudo(a, b)
        assert g.divides(a) and g.divides(b)


class TestUnitLog:
    def test_one(self):
        assert unit_log(ONE) == unit_log(ONE).__class__(1, 0)

    def test_negative_inverse(self):
        d = unit_log(ONE - LAMBDA)
        assert (d.sign, d.exponent) == (-1, -1)

    def test_lambda_fifth(self):
        d = unit_log(GoldenInt(3, 5))  # L^5 = 5L + 3
        assert (d.sign, d.exponent) == (1, 5)

    def test_non_unit(self):
        with pytest.raises(NotAUnitError):
            unit_log(GoldenInt(2, 0))

    @given(st.integers(-30, 30), st.sampled_from([-1, 1]))
    def test_roundtrip(self, k, sign):
        d = unit_log(lambda_power(k) * sign)
        assert (d.sign, d.exponent) == (sign, k)


class TestLambdaPower:
    def test_fibonacci_coordinates(self):
        # L^k = F(k-1) + F(k) L for every integer k, with F(-n) = (-1)^(n+1) F(n)
        fib = [0, 1]
        while len(fib) < 302:
            fib.append(fib[-1] + fib[-2])

        def f(n):
            return fib[n] if n >= 0 else (-1) ** (-n + 1) * fib[-n]

        for k in range(-300, 301):
            assert lambda_power(k) == GoldenInt(f(k - 1), f(k)), k

    def test_power_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            power(LAMBDA, -1, ONE)


class TestLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3+2L", GoldenInt(3, 2)),
            ("-4L-2", GoldenInt(-2, -4)),
            ("0", ZERO),
            ("L", LAMBDA),
            ("-L", -LAMBDA),
            (" 1 - 1 L ", GoldenInt(1, -1)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_element(text) == value

    # a term after the first needs its sign: these are not read as 3+2L,
    # 2L, 2+L or 3L (the values they used to give)
    # nor are digits split by whitespace read as one number (23, 12L)
    @pytest.mark.parametrize(
        "bad", ["", "2+", "x", "1.5", "+", "2L3", "LL", "L2", "2LL", "2 3", "1 2L", "1-2\t0L"]
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_element(bad)

    @given(elements)
    def test_roundtrip(self, x):
        assert parse_element(format_element(x)) == x


def test_gcd_terminates_on_stress_samples():
    rng = random.Random(20240817)
    for _ in range(500):
        a = GoldenInt(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
        b = GoldenInt(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
        if not a and not b:
            continue
        g, steps = gcd_pseudo(a, b)
        assert g.divides(a) and g.divides(b)
        assert len(steps) <= 64 + 4 * math.ceil(math.log2(10**6))


def test_iteration_cap_is_diagnosable():
    assert issubclass(IterationCapError, RuntimeError)
