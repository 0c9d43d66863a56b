import copy
import math
import pickle
import random
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke5 import golden
from hecke5.golden import (
    GoldenInt,
    IterationCapError,
    LAMBDA,
    MAX_LITERAL_DIGITS,
    NotAUnitError,
    ONE,
    ZERO,
    compare_real,
    divmod_pseudo,
    format_element,
    gcd_pseudo,
    lambda_power,
    parse_element,
    parse_int,
    power,
    unit_log,
)

from conftest import divides

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


# The sign and the floor of a quotient as `golden` once decided them, kept
# as the reference of `_floor_sqrt5`: a four-way case analysis, and a floor
# proposed from sqrt5 truncated to bits + 16 bits, then walked into place
# by sign tests.
def reference_sign(x: GoldenInt) -> int:
    u, v = 2 * x.a + x.b, x.b
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return 1 if v > 0 else -1
    if (u > 0) == (v > 0):
        return 1 if u > 0 else -1
    big = u * u > 5 * v * v
    return (1 if big else -1) * (1 if u > 0 else -1)


def reference_floor_quotient(w: GoldenInt, n: int) -> int:
    prec = abs(w.b).bit_length() + 16
    s5 = math.isqrt(5 << (2 * prec))
    f = ((2 * w.a + w.b) * (1 << prec) + w.b * s5) // (2 * n << prec)
    n_elt = GoldenInt(n, 0)
    while reference_sign(w - n_elt * f) < 0:
        f -= 1
    while reference_sign(w - n_elt * (f + 1)) >= 0:
        f += 1
    return f


def reference_divmod(a: GoldenInt, b: GoldenInt) -> tuple[int, GoldenInt]:
    c = LAMBDA * b
    n = c.a * c.a + c.a * c.b - c.b * c.b
    w = a * c.conjugate()
    if n < 0:
        n, w = -n, -w
    s = -reference_sign(c)
    q = s * reference_floor_quotient(GoldenInt(n + 2 * s * w.a, 2 * s * w.b), 2 * n)
    return q, a - c * q


def abs_real(x: GoldenInt) -> GoldenInt:
    """|x| under the real embedding."""
    return x if x.sign() >= 0 else -x


class TestValueSemantics:
    # GoldenInt keeps a frozen dataclass's value semantics; only the
    # missing __dict__ is new with the slotted class
    def test_equal_values_compare_and_hash_equal(self):
        x, y = GoldenInt(3, -2), GoldenInt(3, -2)
        assert x is not y and x == y and hash(x) == hash(y)
        assert x != GoldenInt(-2, 3) and len({x, y, GoldenInt(-2, 3)}) == 2

    def test_never_equal_to_another_type(self):
        assert GoldenInt(1, 0) != 1
        assert GoldenInt(1, 0) != (1, 0)
        assert GoldenInt.__eq__(ONE, 1) is NotImplemented

    def test_repr(self):
        assert repr(GoldenInt(1, 2)) == "GoldenInt(a=1, b=2)"
        assert repr(GoldenInt(-7, 0)) == "GoldenInt(a=-7, b=0)"

    @pytest.mark.parametrize(
        "change",
        [lambda x: setattr(x, "a", 5), lambda x: delattr(x, "b"), lambda x: setattr(x, "c", 0)],
        ids=["set", "delete", "add"],
    )
    def test_immutable(self, change):
        x = GoldenInt(3, -2)
        with pytest.raises(AttributeError):
            change(x)
        assert x == GoldenInt(3, -2) and not hasattr(x, "c")

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy]
        + [lambda x, p=p: pickle.loads(pickle.dumps(x, p)) for p in (0, pickle.HIGHEST_PROTOCOL)],
        ids=["copy", "deepcopy", "pickle-0", "pickle-highest"],
    )
    def test_copies_are_equal(self, clone):
        x = GoldenInt(3, -(2**100))
        y = clone(x)
        assert type(y) is GoldenInt and y == x and hash(y) == hash(x)

    def test_no_instance_dict(self):
        assert not hasattr(GoldenInt(3, -2), "__dict__")


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
            # a tie, where negating a moves q by one, not to -q: the third
            # steps of reduce_fraction and gcd_pseudo on (-3+3L, -2-2L)
            (GoldenInt(3, -3), GoldenInt(-4, 2), 2, GoldenInt(-1, 1)),
            (GoldenInt(-3, 3), GoldenInt(-4, 2), -1, GoldenInt(-1, 1)),
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
        abs_c = abs_real(LAMBDA * b)
        r2 = r + r
        assert (r2 + abs_c).sign() > 0
        assert (r2 - abs_c).sign() <= 0

    @given(elements, nonzero)
    def test_quotient_unique(self, a, b):
        q, _ = divmod_pseudo(a, b)
        abs_c = abs_real(LAMBDA * b)
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
        assert r + r == abs_real(LAMBDA * b)

    @given(big_elements, big_elements.filter(bool))
    def test_matches_oracle_at_64_bits(self, a, b):
        assert divmod_pseudo(a, b) == oracle_divmod(a, b)


huge = st.integers(-(2**3000), 2**3000)
literal = st.integers(-(10**MAX_LITERAL_DIGITS - 1), 10**MAX_LITERAL_DIGITS - 1)
edge = st.sampled_from([0, 1, -1, 2, -2])


def near_ties():
    # +-L^k + d: mixed-sign coordinates of up to about 3000 bits whose real
    # value is within 1 of d, the hardest case for a truncated sqrt5
    return [
        lambda_power(k) * s + GoldenInt(d, 0)
        for k in range(-4300, 4301, 43)
        for s in (1, -1)
        for d in (-1, 0, 1)
    ]


class TestExactFloor:
    @pytest.mark.parametrize("y,floor", [(0, 0), (1, 2), (-1, -3), (2, 4), (-2, -5), (9, 20), (-9, -21)])
    def test_floor_sqrt5_examples(self, y, floor):
        assert golden._floor_sqrt5(y) == floor

    @given(st.one_of(huge, edge))
    def test_floor_sqrt5_brackets(self, y):
        # r <= y sqrt5 < r + 1, squared: for y >= 0, r^2 <= 5y^2 < (r+1)^2;
        # for y < 0, (r+1)^2 < 5y^2 < r^2 with r + 1 <= 0
        r = golden._floor_sqrt5(y)
        if y >= 0:
            assert 0 <= r and r * r <= 5 * y * y < (r + 1) ** 2
        else:
            assert r + 1 <= 0 and (r + 1) ** 2 < 5 * y * y < r * r

    @given(st.builds(GoldenInt, st.one_of(huge, edge), st.one_of(huge, edge)))
    @settings(max_examples=500)
    def test_sign_matches_reference(self, x):
        assert x.sign() == reference_sign(x)

    @pytest.mark.parametrize(
        "x,sign",
        [(ZERO, 0), (ONE, 1), (-ONE, -1), (GoldenInt(2**3000, 0), 1), (GoldenInt(-(2**3000), 0), -1),
         (LAMBDA, 1), (-LAMBDA, -1), (GoldenInt(0, 2**3000), 1), (GoldenInt(0, -(2**3000)), -1)],
    )
    def test_sign_edges(self, x, sign):
        assert x.sign() == reference_sign(x) == sign

    def test_sign_near_ties(self):
        for x in near_ties():
            assert x.sign() == reference_sign(x), x

    @given(st.builds(GoldenInt, st.one_of(literal, edge), st.one_of(literal, edge)).filter(bool))
    @settings(max_examples=500)
    def test_same_sign_shortcut_matches_the_floor_path(self, x):
        # the early return for a and b of one sign against the one root, on
        # coordinates of up to 700 digits (2325 bits), the literal bound
        floor = 2 * x.a + x.b + golden._floor_sqrt5(x.b)
        assert x.sign() == (1 if floor >= 0 else -1)

    @given(st.builds(GoldenInt, st.one_of(huge, edge), st.one_of(huge, edge)),
           st.builds(GoldenInt, st.one_of(huge, edge), st.one_of(huge, edge)).filter(bool))
    @settings(max_examples=300)
    def test_divmod_matches_reference(self, a, b):
        assert divmod_pseudo(a, b) == reference_divmod(a, b)

    @given(st.builds(GoldenInt, literal, literal), st.builds(GoldenInt, literal, literal).filter(bool))
    @settings(max_examples=300)
    def test_divmod_matches_reference_at_the_literal_bound(self, a, b):
        assert divmod_pseudo(a, b) == reference_divmod(a, b)

    def test_divmod_near_ties(self):
        # a/(bL) exactly an integer or a half (w.b = 0 inside the rounding),
        # and divisors with a tiny real value and huge coordinates
        xs = [x for x in near_ties() if x]
        cases = [(ZERO, b) for b in xs[:20]]
        cases += [(LAMBDA * b * k, b) for b in xs[::40] for k in (-3, 0, 5)]
        cases += [(LAMBDA * b * (2 * k + 1), b * 2) for b in xs[::40] for k in (-2, 1)]
        cases += list(zip(xs[::7], xs[3::11]))
        for a, b in cases:
            assert divmod_pseudo(a, b) == reference_divmod(a, b), (a, b)


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

    def test_tie_splits_from_the_continued_fraction(self):
        # reduce_fraction's quotients on this pair are [0, 2, 2, 1, 2, 1]:
        # alternating their signs would give [0, -2, 2, -1, 2, -1], but the
        # tie at the third step splits the two sequences
        g, steps = gcd_pseudo(GoldenInt(-3, 3), GoldenInt(-2, -2))
        assert g == GoldenInt(-5, 3) and g.norm() == 1
        assert steps == [0, -2, 1, 1, -2, 1]

    def test_coordinate_budget(self):
        # L^1000 against 1: the 50th remainder's L-coordinate passes the
        # budget, well before the loop's time grows to tens of seconds
        with pytest.raises(IterationCapError, match="a remainder passed the 32768-bit coordinate budget"):
            gcd_pseudo(lambda_power(1000), ONE)

    @given(nonzero, nonzero)
    @settings(max_examples=200)
    def test_divides_both(self, a, b):
        g, _ = gcd_pseudo(a, b)
        assert divides(g, a) and divides(g, b)


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

    @given(st.integers(-5000, 5000), st.sampled_from([-1, 1]))
    def test_roundtrip(self, k, sign):
        d = unit_log(lambda_power(k) * sign)
        assert (d.sign, d.exponent) == (sign, k)

    def test_roundtrip_where_fibonacci_gains_a_bit(self):
        # the guess reads the bit length of |y.b| = F(|k|): each n where F(n)
        # gains a bit, and the n just before it, are the two ends of the
        # guess's error, and the walk's cap of two steps checks that error.
        # L^n = F(n-1) + F(n) L and L^-n = (-1)^n (F(n+1) - F(n) L); k and
        # the unit alternate sign
        fib = [0, 1]
        while len(fib) <= 5001:
            fib.append(fib[-1] + fib[-2])
        edges = [n for n in range(1, 5001) if fib[n].bit_length() > fib[n - 1].bit_length()]
        for n in sorted({*edges, *(n - 1 for n in edges)}):
            k, sign = (n, 1) if n % 2 else (-n, (-1) ** (n // 2))
            x = GoldenInt(fib[n - 1], fib[n]) if k > 0 else GoldenInt(fib[n + 1], -fib[n]) * (-1) ** n
            d = unit_log(x * sign)
            assert (d.sign, d.exponent) == (sign, k)

    def test_walk_is_capped(self, monkeypatch):
        # a guess that divides nothing out leaves a walk of |k| steps
        x = lambda_power(10)
        monkeypatch.setattr(golden, "lambda_power", lambda k: ONE)
        with pytest.raises(IterationCapError, match="walked 2 steps"):
            unit_log(x)


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


# the characters Python's int reads as digits but parse_int does not:
# `_` and every non-ASCII character for which str.isdigit is true
FOREIGN_DIGITS = ["_"] + [
    c for c in map(chr, range(0x80, sys.maxunicode + 1)) if c.isdigit()
]


class TestParseInt:
    @given(
        st.text(" ", max_size=2),
        st.sampled_from(["", "+", "-"]),
        st.text("0123456789", min_size=1, max_size=MAX_LITERAL_DIGITS),
        st.text(" ", max_size=2),
    )
    def test_equals_int_on_ascii_numerals(self, left, sign, digits, right):
        text = left + sign + digits + right
        assert parse_int(text) == int(text)

    @given(st.text(), st.sampled_from(FOREIGN_DIGITS), st.text())
    def test_refuses_underscores_and_foreign_digits(self, left, c, right):
        with pytest.raises(ValueError):
            parse_int(left + c + right)

    @pytest.mark.parametrize("bad", ["", "+", "-", "+-1", "1_0", "0x10", "1e3", "1.0", "٣", "1²"])
    def test_errors(self, bad):
        with pytest.raises(ValueError):
            parse_int(bad)

    def test_bound(self):
        assert parse_int("-" + "9" * MAX_LITERAL_DIGITS) == -(10**MAX_LITERAL_DIGITS - 1)
        with pytest.raises(ValueError, match="701-digit integer literal: the bound is 700 digits"):
            parse_int("1" * (MAX_LITERAL_DIGITS + 1))


def test_gcd_terminates_on_stress_samples():
    rng = random.Random(20240817)
    for _ in range(500):
        a = GoldenInt(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
        b = GoldenInt(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
        if not a and not b:
            continue
        g, steps = gcd_pseudo(a, b)
        assert divides(g, a) and divides(g, b)
        assert len(steps) <= 64 + 4 * math.ceil(math.log2(10**6))


def test_iteration_cap_is_diagnosable():
    assert issubclass(IterationCapError, RuntimeError)
