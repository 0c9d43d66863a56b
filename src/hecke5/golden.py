"""Exact arithmetic in Z[L] where L = (1 + sqrt 5)/2, so L^2 = L + 1.

Elements are stored as integer pairs (a, b) meaning a + b*L.  All
comparisons against the real embedding are decided by exact integer sign
tests; floating point is only ever used as a first guess that is then
corrected exactly.

`power` is the one exponentiation routine (left-to-right binary
square-and-multiply): `lambda_power` here and the `**` of the matrix
types in `matrices` and `quotient` are each one call to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class NotAUnitError(ValueError):
    pass


class IterationCapError(RuntimeError):
    """Safeguard cap hit; indicates a bug, not a user error."""


@dataclass(frozen=True)
class GoldenInt:
    """a + b*L with exact integer coordinates."""

    a: int
    b: int

    def __add__(self, other: GoldenInt) -> GoldenInt:
        return GoldenInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: GoldenInt) -> GoldenInt:
        return GoldenInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> GoldenInt:
        return GoldenInt(-self.a, -self.b)

    def __mul__(self, other: GoldenInt | int) -> GoldenInt:
        if isinstance(other, int):
            return GoldenInt(self.a * other, self.b * other)
        # (a1 + b1 L)(a2 + b2 L), rewriting L^2 = L + 1
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return GoldenInt(a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def conjugate(self) -> GoldenInt:
        """Galois conjugate, L -> 1 - L."""
        return GoldenInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        """Absolute norm |a^2 + a*b - b^2|."""
        return abs(self.a * self.a + self.a * self.b - self.b * self.b)

    def is_unit(self) -> bool:
        return self.norm() == 1

    def sign(self) -> int:
        """Exact sign of the real value a + b*(1+sqrt5)/2.

        Doubling gives (2a+b) + b*sqrt5; when the two parts disagree in
        sign the answer comes from comparing (2a+b)^2 with 5 b^2.
        """
        u = 2 * self.a + self.b
        v = self.b
        if v == 0:
            return (u > 0) - (u < 0)
        if u == 0:
            return 1 if v > 0 else -1
        if (u > 0) == (v > 0):
            return 1 if u > 0 else -1
        # mixed signs; u^2 = 5 v^2 would force u = v = 0
        big = u * u > 5 * v * v
        return (1 if big else -1) * (1 if u > 0 else -1)

    def abs_real(self) -> GoldenInt:
        return self if self.sign() >= 0 else -self

    def divides(self, other: GoldenInt) -> bool:
        """Exact divisibility test in Z[L]."""
        if not self:
            return not other
        q = exact_div(other, self)
        return q is not None

    def __str__(self) -> str:
        return format_element(self)


ZERO = GoldenInt(0, 0)
ONE = GoldenInt(1, 0)
LAMBDA = GoldenInt(0, 1)
LAMBDA_INV = GoldenInt(-1, 1)  # L^-1 = L - 1


@dataclass(frozen=True)
class UnitDecomposition:
    """sign * L**exponent, the unique decomposition of a unit."""

    sign: int
    exponent: int


def compare_real(x: GoldenInt, y: GoldenInt) -> int:
    """-1, 0 or 1 as x <, = or > y under the real embedding."""
    return (x - y).sign()


def exact_div(x: GoldenInt, y: GoldenInt) -> GoldenInt | None:
    """x / y if it lies in Z[L], else None."""
    if not y:
        raise ZeroDivisionError("division by zero in Z[L]")
    n = y.a * y.a + y.a * y.b - y.b * y.b  # signed norm
    z = x * y.conjugate()
    if z.a % n or z.b % n:
        return None
    return GoldenInt(z.a // n, z.b // n)


def _floor_quotient(w: GoldenInt, n: int) -> int:
    """Exact floor of the real value of w / n for a positive integer n.

    A truncated sqrt(5) proposes the floor; the exact sign test then walks
    it into place (at most a step or two given the precision margin).
    """
    prec = abs(w.b).bit_length() + 16
    s5 = math.isqrt(5 << (2 * prec))
    f = ((2 * w.a + w.b) * (1 << prec) + w.b * s5) // (2 * n << prec)
    n_elt = GoldenInt(n, 0)
    while (w - n_elt * f).sign() < 0:
        f -= 1
    while (w - n_elt * (f + 1)).sign() >= 0:
        f += 1
    return f


def divmod_pseudo(a: GoldenInt, b: GoldenInt) -> tuple[int, GoldenInt]:
    """Pseudo-Euclidean division a = (q*L)*b + r.

    r is pinned to the half-open interval (-|c|/2, |c|/2] of the real
    line, c = b*L, so q is one exact rounding of a/c: ceil(a/c - 1/2) for
    c > 0 and floor(a/c + 1/2) for c < 0.  The quotient a/c is first
    cleared to an integer denominator n, a/c = w/n, so the rounding is one
    exact floor even when c has a tiny real value with huge coordinates.
    """
    if not b:
        raise ZeroDivisionError("pseudo-division by zero")
    c = LAMBDA * b
    n = c.a * c.a + c.a * c.b - c.b * c.b  # signed norm, = c * conj(c)
    w = a * c.conjugate()
    if n < 0:
        n, w = -n, -w
    # s = -1: ceil(w/n - 1/2) = -floor((n - 2w) / 2n); s = 1: floor((n + 2w) / 2n)
    s = -c.sign()
    q = s * _floor_quotient(GoldenInt(n + 2 * s * w.a, 2 * s * w.b), 2 * n)
    return q, a - c * q


def gcd_pseudo(a: GoldenInt, b: GoldenInt) -> tuple[GoldenInt, list[int]]:
    """Last nonzero remainder of iterated pseudo-division, plus quotients.

    The cap converts a (theoretically impossible) non-terminating run into
    a diagnosable error.
    """
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    bits = max(abs(x).bit_length() for x in (a.a, a.b, b.a, b.b))
    cap = 64 + 4 * bits
    quotients: list[int] = []
    while b:
        if len(quotients) > cap:
            raise IterationCapError(f"gcd exceeded {cap} pseudo-divisions")
        q, r = divmod_pseudo(a, b)
        quotients.append(q)
        a, b = b, r
    return a, quotients


def unit_log(x: GoldenInt) -> UnitDecomposition:
    """Write a unit as sign * L**k; errors if norm(x) != 1."""
    if x.norm() != 1:
        raise NotAUnitError(f"{x} has norm {x.norm()}, not a unit")
    sign = x.sign()
    y = x if sign > 0 else -x
    k = 0
    cap = 16 + 2 * max(abs(v).bit_length() for v in (x.a, x.b))
    while y != ONE:
        if abs(k) > cap:
            raise IterationCapError("unit_log failed to reach 1")
        if compare_real(y, ONE) > 0:
            y = y * LAMBDA_INV
            k += 1
        else:
            y = y * LAMBDA
            k -= 1
    return UnitDecomposition(sign, k)


def power(x, n: int, one):
    """x**n for n >= 0 under x's associative `*`, and `one` at n = 0.

    Left-to-right binary method (Knuth, TAOCP vol. 2, 4.6.3): start from
    x, then square once per remaining bit of n and multiply by x on each
    1 bit, so n costs at most 2*log2(n) products.
    """
    if n < 0:
        raise ValueError(f"power needs n >= 0, got {n}")
    if n == 0:
        return one
    out = x
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


def lambda_power(k: int) -> GoldenInt:
    """L**k for any integer k."""
    return power(LAMBDA if k >= 0 else LAMBDA_INV, abs(k), ONE)


MAX_LITERAL_DIGITS = 700


def check_literal_digits(text: str) -> None:
    """Refuse an integer literal of more than MAX_LITERAL_DIGITS digits
    with a ValueError that names the bound.  Within it every answer
    prints: the largest, an index, has at most about six times the digits
    of its level's coordinates, below Python's 4300-digit limit on
    converting an int to a string."""
    n = sum(c.isdigit() for c in text)
    if n > MAX_LITERAL_DIGITS:
        raise ValueError(f"{n}-digit integer literal: the bound is {MAX_LITERAL_DIGITS} digits")


def parse_element(text: str) -> GoldenInt:
    """Parse the literal grammar: a sum of terms, each an integer or an
    optional integer followed by `L` (lambda); every term after the first
    starts with `+` or `-`.

    Examples: `3+2L`, `-4L-2`, `0`, `L`.  Whitespace around signs, terms
    and `L` is insignificant.  `2L3`, `LL`, `L2` and `2 3` are errors, not
    products, sums or one number, and so is an integer of more than
    MAX_LITERAL_DIGITS digits.
    """
    s = squeeze_whitespace(text)
    if not s:
        raise ValueError("empty element literal")
    a = b = 0
    i = 0
    seen_term = False
    while i < len(s):
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        elif seen_term:
            raise ValueError(f"expected '+' or '-' at position {i}: {text!r}")
        j = i
        while j < len(s) and s[j].isdigit():
            j += 1
        digits = s[i:j]
        check_literal_digits(digits)
        i = j
        if i < len(s) and s[i] in "Ll":
            b += sign * (int(digits) if digits else 1)
            i += 1
        elif digits:
            a += sign * int(digits)
        else:
            raise ValueError(f"bad element literal at position {i}: {text!r}")
        seen_term = True
    return GoldenInt(a, b)


def squeeze_whitespace(text: str) -> str:
    """`text` with its whitespace removed.  Whitespace between two digits
    is a ValueError: removing it would join two numbers into one."""
    tokens = text.split()
    for left, right in zip(tokens, tokens[1:]):
        if left[-1].isdigit() and right[0].isdigit():
            raise ValueError(f"whitespace between digits: {text!r}")
    return "".join(tokens)


def format_element(x: GoldenInt) -> str:
    """Canonical form `a+bL`, both coefficients always printed."""
    return f"{x.a}{x.b:+d}L"
