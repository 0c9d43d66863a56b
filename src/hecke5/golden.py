"""Exact arithmetic in Z[L] where L = (1 + sqrt 5)/2, so L^2 = L + 1.

Elements are stored as integer pairs (a, b) meaning a + b*L.  Every
question about the real embedding is decided in one place, the exact
floor(y*sqrt5) of `_floor_sqrt5`; `GoldenInt.sign` (when a and b differ
in sign) and the rounding of `divmod_pseudo` both read it.  No floating
point is used anywhere: the one estimate, the bit-length guess of
`unit_log`, is an integer that exact sign tests then correct.

`power` is the one exponentiation routine (left-to-right binary
square-and-multiply): `lambda_power` here and the `**` of the matrix
types in `matrices` and `quotient` are each one call to it.  Modular
powers of plain integers, the inverse pow(x, -1, n) too, use the
builtin `pow` (`ideals._is_prime`, `quotient._line_form`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


class NotAUnitError(ValueError):
    pass


class IterationCapError(RuntimeError):
    """A bound on the work ran out: `pseudo_euclid`'s coordinate budget,
    a limit on the input, or `unit_log`'s walk from its guess, which only
    a wrong guess reaches.  The CLI exits 3."""


class GoldenInt:
    """a + b*L with exact integer coordinates.

    An immutable value with the equality, hash, repr and copying of a
    frozen dataclass, written out by hand: a frozen dataclass writes
    each field through `object.__setattr__`, slower than the slot
    descriptor's `__set__` (`_set_a`, `_set_b`) that `__init__` calls,
    and every step of `divmod_pseudo` builds six or seven.  Assigning or
    deleting any attribute raises AttributeError, and there is no
    `__dict__`.
    """

    __slots__ = ("a", "b")
    a: int
    b: int

    def __init__(self, a: int, b: int) -> None:
        _set_a(self, a)
        _set_b(self, b)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GoldenInt:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"GoldenInt(a={self.a!r}, b={self.b!r})"

    def __reduce__(self) -> tuple:
        # copy, deepcopy and pickle rebuild through __init__, not setattr
        return GoldenInt, (self.a, self.b)

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

    def sign(self) -> int:
        """Exact sign of the real value a + b*(1+sqrt5)/2: that of a and b
        when they agree.  Else, doubled, it is 2a + b + b*sqrt5, irrational
        unless b = 0, so it is positive exactly when its floor is >= 0.
        """
        if not self:
            return 0
        if (self.a >= 0) == (self.b >= 0):
            return 1 if self.b >= 0 else -1
        return 1 if 2 * self.a + self.b + _floor_sqrt5(self.b) >= 0 else -1

    def __str__(self) -> str:
        return format_element(self)


_set_a = GoldenInt.a.__set__
_set_b = GoldenInt.b.__set__

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


def _floor_sqrt5(y: int) -> int:
    """floor(y * sqrt5), exactly.  For y != 0, 5y^2 is never a square, so
    y*sqrt5 is irrational: its floor is isqrt(5y^2) for y > 0 and
    -isqrt(5y^2) - 1 for y < 0."""
    root = math.isqrt(5 * y * y)
    return root if y >= 0 else -root - 1


def divmod_pseudo(a: GoldenInt, b: GoldenInt) -> tuple[int, GoldenInt]:
    """Pseudo-Euclidean division a = (q*L)*b + r.

    r is pinned to the half-open interval (-|c|/2, |c|/2] of the real
    line, c = b*L, so q is one exact rounding of a/c: ceil(a/c - 1/2) for
    c > 0 and floor(a/c + 1/2) for c < 0.  The quotient a/c is first
    cleared to an integer denominator n, a/c = w/n, so the rounding is one
    exact floor even when c has a tiny real value with huge coordinates:
    for an integer m > 0, floor(v/m) = floor(floor(v)/m).
    """
    if not b:
        raise ZeroDivisionError("pseudo-division by zero")
    c = LAMBDA * b
    n = c.a * c.a + c.a * c.b - c.b * c.b  # signed norm, = c * conj(c)
    w = a * c.conjugate()
    if n < 0:
        n, w = -n, -w
    # s = -1: ceil(w/n - 1/2) = -floor((n - 2w) / 2n); s = 1: floor((n + 2w) / 2n),
    # where n + 2sw = x + yL = (2x + y + y*sqrt5) / 2
    s = -c.sign()
    x, y = n + 2 * s * w.a, 2 * s * w.b
    q = s * ((2 * x + y + _floor_sqrt5(y)) // (4 * n))
    return q, a - c * q


# the most bits a remainder's L-coordinate may have in `pseudo_euclid`
EUCLID_BUDGET_BITS = 2**15


def pseudo_euclid(a: GoldenInt, b: GoldenInt, sign: int) -> tuple[GoldenInt, list[int]]:
    """The last nonzero remainder and the quotients of a, b <- b, sign*r
    over (q, r) = divmod_pseudo(a, b), until b = 0.

    sign = 1 is the gcd recursion, sign = -1 the lambda-continued fraction
    of `matrices.reduce_fraction`.  Away from ties the second's quotients
    are the first's times (-1)^i, but divmod_pseudo rounds a tie into a
    half-open interval, so there the two sequences split.

    A remainder whose L-coordinate passes EUCLID_BUDGET_BITS bits raises
    IterationCapError, and so the loop ends.  In real value |r| <= 0.81|b|,
    so no remainder exceeds the input and |r.a| <= |input| + L|r.b|: both
    coordinates are bounded, hence so is |conj r|, and a nonzero r has
    |r| = |N(r)| / |conj r| >= 1 / |conj r|.  Falling by 0.81 per step
    between those bounds, the real value reaches 0 within about
    3.3 * (budget + input bits) steps.
    """
    quotients: list[int] = []
    while b:
        q, r = divmod_pseudo(a, b)
        if r.b.bit_length() > EUCLID_BUDGET_BITS:
            raise IterationCapError(f"a remainder passed the {EUCLID_BUDGET_BITS}-bit coordinate budget")
        quotients.append(q)
        a, b = b, r if sign == 1 else -r
    return a, quotients


def gcd_pseudo(a: GoldenInt, b: GoldenInt) -> tuple[GoldenInt, list[int]]:
    """Last nonzero remainder of iterated pseudo-division, plus quotients:
    `pseudo_euclid` with sign 1."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    return pseudo_euclid(a, b, 1)


def unit_log(x: GoldenInt) -> UnitDecomposition:
    """Write a unit as sign * L**k; errors if norm(x) != 1.

    y = sign * x = L^k has |y.b| = F(|k|), the Fibonacci number nearest
    L^|k| / sqrt 5, so its bit length B is |k| log2 L - 1.16 + d with
    0 <= d < 1.  The integer guess g = B * 144042009 // 10**8, with
    1/log2 L = 1.440420090..., then has |k| - 2 <= g <= |k| for every B
    below 8 * 10**8 (the small |k|, where F(|k|) is not yet that close,
    checked one by one), and k has the sign of y - 1.  Dividing out
    L^(+-g) once leaves at most two exact sign-test steps; the cap on that
    walk turns a bad guess into a diagnosable error.
    """
    if x.norm() != 1:
        raise NotAUnitError(f"{x} has norm {x.norm()}, not a unit")
    sign = x.sign()
    y = x if sign > 0 else -x
    bits = abs(y.b).bit_length()
    k = compare_real(y, ONE) * (bits * 144042009 // 10**8)
    y = y * lambda_power(-k)
    cap = 2 + bits // 10**9
    steps = 0
    while y != ONE:
        if steps == cap:
            raise IterationCapError(f"unit_log walked {cap} steps from its guess without reaching 1")
        if compare_real(y, ONE) > 0:
            y = y * LAMBDA_INV
            k += 1
        else:
            y = y * LAMBDA
            k -= 1
        steps += 1
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
DIGITS = "0123456789"


class NotAnIntegerError(ValueError):
    """Text that is not an integer under `parse_int`'s grammar."""


def parse_int(text: str) -> int:
    """The one integer grammar: an optional sign and 1 to MAX_LITERAL_DIGITS
    ASCII digits, whitespace as in `squeeze_whitespace`.  The bound keeps
    every index printable: it has at most about six times its level's
    digits, below Python's 4300-digit limit on str(int)."""
    s = squeeze_whitespace(text)
    digits = s[1:] if s[:1] in ("+", "-") else s
    if not digits or digits.strip(DIGITS):  # what strip leaves is no digit
        raise NotAnIntegerError(f"not an integer: {text!r}")
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ValueError(f"{len(digits)}-digit integer literal: the bound is {MAX_LITERAL_DIGITS} digits")
    return int(s)


def parse_element(text: str) -> GoldenInt:
    """Parse the literal grammar: a sum of terms, each an integer or an
    optional integer followed by `L` (lambda); every term after the first
    starts with `+` or `-`.

    Examples: `3+2L`, `-4L-2`, `0`, `L`.  Whitespace around signs, terms
    and `L` is insignificant.  `2L3`, `LL`, `L2` and `2 3` are errors, not
    products, sums or one number, and so is an integer that `parse_int`
    refuses.
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
        j = len(s) - len(s[i:].lstrip(DIGITS))  # the end of the digits at i
        n = parse_int(s[i:j]) if j > i else None
        i = j
        if i < len(s) and s[i] in "Ll":
            b += sign * (1 if n is None else n)
            i += 1
        elif n is not None:
            a += sign * n
        else:
            raise ValueError(f"bad element literal at position {i}: {text!r}")
        seen_term = True
    return GoldenInt(a, b)


def squeeze_whitespace(text: str) -> str:
    """`text` with its whitespace removed.  Whitespace between two digits
    is a ValueError: removing it would join two numbers into one."""
    tokens = text.split()
    for left, right in zip(tokens, tokens[1:]):
        if left[-1] in DIGITS and right[0] in DIGITS:
            raise ValueError(f"whitespace between digits: {text!r}")
    return "".join(tokens)


class TooLongToPrintError(RuntimeError):
    """An element with a coefficient past Python's limit on str(int)."""


def format_element(x: GoldenInt) -> str:
    """Canonical form `a+bL`, both coefficients always printed.  Every
    element printed comes here, so one error tells it is too long."""
    try:
        return f"{x.a}{x.b:+d}L"
    except ValueError:  # the limit on str(int)
        limit = sys.get_int_max_str_digits()
        raise TooLongToPrintError(f"a coefficient of more than {limit} digits is too long to print") from None
