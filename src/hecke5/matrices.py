"""2x2 matrices over Z[L], the generators S and T, and the reduced-form
machinery: word evaluation, the pseudo-Euclidean reduction of a fraction,
the membership test, column completion and parabolic conjugates."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .golden import (
    GoldenInt,
    LAMBDA,
    ONE,
    UnitDecomposition,
    ZERO,
    parse_element,
    power,
    pseudo_euclid,
    squeeze_whitespace,
    unit_log,
)


class NotCoprimeError(ValueError):
    pass


class NotReducedError(ValueError):
    pass


class Mat2:
    """[[a11, a12], [a21, a22]] over Z[L]: an immutable slotted value,
    written out by hand for the reason `GoldenInt` is, with a frozen
    dataclass's equality, hash, repr and copying."""

    __slots__ = ("a11", "a12", "a21", "a22")
    a11: GoldenInt
    a12: GoldenInt
    a21: GoldenInt
    a22: GoldenInt

    def __init__(self, a11: GoldenInt, a12: GoldenInt, a21: GoldenInt, a22: GoldenInt) -> None:
        _set_a11(self, a11)
        _set_a12(self, a12)
        _set_a21(self, a21)
        _set_a22(self, a22)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Mat2:
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __repr__(self) -> str:
        return f"Mat2(a11={self.a11!r}, a12={self.a12!r}, a21={self.a21!r}, a22={self.a22!r})"

    def __reduce__(self) -> tuple:
        # copy, deepcopy and pickle rebuild through __init__, not setattr
        return Mat2, self.entries()

    @classmethod
    def from_ints(cls, rows: list[list[tuple[int, int]]]) -> Mat2:
        (p, q), (r, s) = rows
        return cls(GoldenInt(*p), GoldenInt(*q), GoldenInt(*r), GoldenInt(*s))

    def __mul__(self, other: Mat2) -> Mat2:
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __neg__(self) -> Mat2:
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)

    def det(self) -> GoldenInt:
        return self.a11 * self.a22 - self.a12 * self.a21

    def inverse(self) -> Mat2:
        d = self.det()
        adj = Mat2(self.a22, -self.a12, -self.a21, self.a11)
        if d == ONE:
            return adj
        if d == -ONE:
            return -adj
        raise ValueError(f"only det +-1 matrices are invertible here, det = {d}")

    def __pow__(self, n: int) -> Mat2:
        return power(self if n >= 0 else self.inverse(), abs(n), IDENTITY)

    def entries(self) -> tuple[GoldenInt, GoldenInt, GoldenInt, GoldenInt]:
        return self.a11, self.a12, self.a21, self.a22

    def __str__(self) -> str:
        return f"[[{self.a11},{self.a12}],[{self.a21},{self.a22}]]"


_set_a11 = Mat2.a11.__set__
_set_a12 = Mat2.a12.__set__
_set_a21 = Mat2.a21.__set__
_set_a22 = Mat2.a22.__set__

IDENTITY = Mat2(ONE, ZERO, ZERO, ONE)
S = Mat2(ZERO, ONE, -ONE, ZERO)
T = Mat2(ONE, LAMBDA, ZERO, ONE)

# a letter as the step (q, r) of `_column_product`: T^q, then S^r
_STEPS = {"S": (0, 1), "s": (0, -1), "T": (1, 0), "t": (-1, 0)}


def _column_product(steps: Iterable[tuple[int, int]]) -> Mat2:
    """The left-to-right product of T^q S^r over the steps (q, r), r in
    {-1, 0, 1}, kept as its two columns: eight ints, x + yL per entry.

    A right factor T^q adds qL times the first column to the second, with
    L(x + yL) = y + (x + y)L; S swaps the columns and negates the new
    first, S^-1 negates the new second.
    """
    a, b, c, d = 1, 0, 0, 0  # first column (a + bL, c + dL)
    e, f, g, h = 0, 0, 1, 0  # second column (e + fL, g + hL)
    for q, r in steps:
        if q:
            e, f, g, h = e + q * b, f + q * (a + b), g + q * d, h + q * (c + d)
        if r == 1:
            a, b, c, d, e, f, g, h = -e, -f, -g, -h, a, b, c, d
        elif r == -1:
            a, b, c, d, e, f, g, h = e, f, g, h, -a, -b, -c, -d
    return Mat2(GoldenInt(a, b), GoldenInt(e, f), GoldenInt(c, d), GoldenInt(g, h))


def eval_word(word: str) -> Mat2:
    """Left-to-right product over the alphabet S, s (=S^-1), T, t (=T^-1),
    one column step per letter."""
    try:
        steps = [_STEPS[letter] for letter in word]
    except KeyError as err:
        raise ValueError(f"bad word letter {err.args[0]!r}") from None
    return _column_product(steps)


def translation(q: int) -> Mat2:
    """[[1, q*L], [0, 1]] = T**q without the repeated multiplication."""
    return Mat2(ONE, GoldenInt(0, q), ZERO, ONE)


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of the pseudo-Euclidean reduction of a fraction a/b.

    `completion`, read from the quotients, is a det-1 group element with
    completion * (unit.sign, 0)^T = (a*L^e, b*L^e)^T.
    """

    e: int
    unit: UnitDecomposition
    quotients: list[int]

    @property
    def completion(self) -> Mat2:
        # each step is (a, b)^T = T^q * S^-1 * (b, -r)^T
        return _column_product((q, -1) for q in self.quotients)


def reduce_fraction(a: GoldenInt, b: GoldenInt) -> ReductionResult:
    """Run the lambda-continued fraction (`pseudo_euclid` with sign -1)
    on (a, b) and keep its quotients.

    Requires gcd(a, b) to be a unit.  The reduced factor e is minus the
    L-exponent of the final remainder, so a*L^e / b*L^e is the reduced
    form of a/b.
    """
    if not a and not b:
        raise ValueError("reduce_fraction(0, 0) is undefined")
    a, quotients = pseudo_euclid(a, b, -1)
    if a.norm() != 1:
        raise NotCoprimeError(f"gcd is {a}, not a unit")
    unit = unit_log(a)
    return ReductionResult(-unit.exponent, unit, quotients)


def is_member(m: Mat2) -> bool:
    """Membership in the Hecke group: det 1, the first column reduced, and
    its quotients, replayed on the second column, ending in LZ.

    The reduction of the first column (a, c) with e = 0 spells the group
    element X, the product of T^q S^-1 over its quotients, with
    X^-1 (a, c)^T = (g, 0)^T, g = +-1.  Each step maps a column (x, z) to
    (z, qLz - x), so the replay on the second column gives X^-1 m =
    [[g, y], [0, g]] (det 1 forces the corner), y the final x.
    (<=) if y = nL, then m = X * g * T^(gn) is in the group, since
    -I = S^2 is.  (=>) if m is in the group, so is X^-1 m, which fixes
    infinity; the stabilizer of infinity in the group is +-<T> (Hecke
    1936), so y is in LZ.  A det-1 matrix has coprime columns, so the
    reduction cannot raise.
    """
    if m.det() != ONE:
        return False
    rr = reduce_fraction(m.a11, m.a21)
    if rr.e != 0:
        return False
    x0, x1, z0, z1 = m.a12.a, m.a12.b, m.a22.a, m.a22.b  # x = x0 + x1 L, z = z0 + z1 L
    for q in rr.quotients:
        x0, x1, z0, z1 = z0, z1, q * z1 - x0, q * (z0 + z1) - x1
    return x0 == 0


def complete_column(a: GoldenInt, c: GoldenInt) -> Mat2:
    """A group element with first column (a, c)^T, for reduced coprime (a, c)."""
    rr = reduce_fraction(a, c)
    if rr.e != 0:
        raise NotReducedError(f"({a}, {c}) has reduced factor {rr.e} != 0")
    x = rr.completion
    x = x if rr.unit.sign == 1 else -x
    if x.a11 != a or x.a21 != c:
        raise RuntimeError(f"completion {x} of ({a}, {c}) has another first column")
    return x


def parabolic_conjugate(a: GoldenInt, c: GoldenInt, m: int) -> Mat2:
    """X * T^m * X^-1 for X completing the column (a, c).

    Equals [[1 - a*c*m*L, a^2*m*L], [-c^2*m*L, 1 + a*c*m*L]]; every
    off-identity entry is divisible by m.
    """
    x = complete_column(a, c)
    out = x * translation(m) * x.inverse()
    ml = GoldenInt(0, m)
    expected = Mat2(
        ONE - a * c * ml, a * a * ml, -(c * c) * ml, ONE + a * c * ml
    )
    if out != expected:
        raise RuntimeError(f"parabolic conjugate {out} of ({a}, {c}, {m}) is not {expected}")
    return out


def parse_matrix(text: str) -> Mat2:
    """Parse the literal `[[a,b],[c,d]]` with element-grammar entries."""
    s = squeeze_whitespace(text)
    if not (s.startswith("[[") and s.endswith("]]")):
        raise ValueError(f"bad matrix literal: {text!r}")
    rows = s[2:-2].split("],[")
    if len(rows) != 2:
        raise ValueError(f"bad matrix literal: {text!r}")
    entries = []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad matrix row: {row!r}")
        entries.extend(parse_element(p) for p in parts)
    return Mat2(*entries)
