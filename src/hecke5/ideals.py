"""Ideals of Z[L] as canonical Hermite-normal-form sublattices of Z^2.

An ideal is stored as the row lattice spanned by (d1, k) and (0, d2) in
coordinates (coefficient of 1, coefficient of L), with d1, d2 > 0 and
0 <= k < d2.  The triple is canonical, so ideals are hashable and compare
structurally.

An ideal A is also its own residue ring Z[L]/A: a residue is the pair
(x, y), 0 <= x < d1 and 0 <= y < d2, standing for x + yL, that
`IdealHNF.reduce_pair` gives.  There is no other form of a residue.
The ring's arithmetic on residues and on 2x2 matrices of them is
`IdealHNF.residue_ops`, four functions (`mul`, `dot`, `matmul`, `adj`)
built on first read and kept by the ideal, as its factorization is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .golden import GoldenInt, IterationCapError, gcd_pseudo

Pair = tuple[int, int]  # one residue (x, y), x + yL
# a 2x2 matrix of residues: the reduced pairs of its entries, row-major
Key = tuple[int, int, int, int, int, int, int, int]


@dataclass(frozen=True)
class IdealHNF:
    d1: int
    k: int
    d2: int

    def __post_init__(self) -> None:
        d1, k, d2 = self.d1, self.k, self.d2
        if d1 <= 0 or d2 <= 0 or not 0 <= k < d2:
            raise ValueError(f"not a valid HNF triple: {(d1, k, d2)}")
        # an ideal is closed under multiplication by L, (x, y) -> (y, x + y);
        # checking the two basis rows (d1, k) and (0, d2) suffices
        if not (self.contains(k, d1 + k) and self.contains(d2, d2)):
            raise ValueError(f"HNF triple {(d1, k, d2)} is a lattice but not an ideal")

    @property
    def norm(self) -> int:
        return self.d1 * self.d2

    def reduce_pair(self, a: int, b: int) -> tuple[int, int]:
        """The residue (x, y) of a + bL: subtract the row (d1, k) q times to
        bring a into [0, d1), then reduce mod d2."""
        q = a // self.d1
        return a - q * self.d1, (b - q * self.k) % self.d2

    @cached_property
    def residue_ops(self) -> tuple:
        """`_residue_ops` of this ideal, built on first read."""
        return _residue_ops(self)

    def contains(self, a: int, b: int) -> bool:
        """True iff a + bL lies in the ideal."""
        return self.reduce_pair(a, b) == (0, 0)

    @cached_property
    def factors(self) -> tuple[PrimeFactor, ...]:
        """The P^e || self as `factor_ideal` lists them, factored on first read."""
        return tuple(factor_ideal(self))

    def __str__(self) -> str:
        return f"[{self.d1},{self.k},{self.d2}]"


def _residue_ops(m: IdealHNF) -> tuple:
    """The one arithmetic of O/m, built once per level as
    `IdealHNF.residue_ops`, on residues (x, y) = x + yL with L^2 = L + 1,
    four functions: `mul(x, y)`, the product xy; `dot(x, y, z, w)`,
    xy + zw, an entry of a matrix product; and on matrices as flat
    8-tuples of their entries' pairs, row-major (`Key`), `matmul(x, y)`,
    the product xy, and `adj(x)`, the adjugate [[d, -b], [-c, a]] of
    x = [[a, b], [c, d]], its inverse when det x = 1.  The operands are
    any integers; the results are reduced as `reduce_pair` reduces: `adj`,
    run only in sifts and inverses, calls it, and the other three, run on
    every edge of a walk, inline it in the product."""
    d1, k, d2 = m.d1, m.k, m.d2
    red = m.reduce_pair

    def mul(x: Pair, y: Pair) -> Pair:
        x0, x1 = x
        y0, y1 = y
        s = x0 * y0 + x1 * y1
        q = s // d1
        return s - q * d1, (x0 * y1 + x1 * y0 + x1 * y1 - q * k) % d2

    def dot(x: Pair, y: Pair, z: Pair, w: Pair) -> Pair:
        x0, x1 = x
        y0, y1 = y
        z0, z1 = z
        w0, w1 = w
        s = x0 * y0 + x1 * y1 + z0 * w0 + z1 * w1
        q = s // d1
        return s - q * d1, (x0 * y1 + x1 * y0 + x1 * y1 + z0 * w1 + z1 * w0 + z1 * w1 - q * k) % d2

    def matmul(x: Key, y: Key) -> Key:
        # [[p, q], [r, s]] [[t, u], [v, w]], each entry a dot of pairs with
        # (x0 + x1 L)(y0 + y1 L) = x0 y0 + x1 y1 + (x0 y1 + x1 (y0 + y1)) L
        p0, p1, q0, q1, r0, r1, s0, s1 = x
        t0, t1, u0, u1, v0, v1, w0, w1 = y
        ts, us, vs, ws = t0 + t1, u0 + u1, v0 + v1, w0 + w1
        a = p0 * t0 + p1 * t1 + q0 * v0 + q1 * v1
        b = p0 * u0 + p1 * u1 + q0 * w0 + q1 * w1
        c = r0 * t0 + r1 * t1 + s0 * v0 + s1 * v1
        d = r0 * u0 + r1 * u1 + s0 * w0 + s1 * w1
        qa, qb, qc, qd = a // d1, b // d1, c // d1, d // d1
        return (
            a - qa * d1,
            (p0 * t1 + p1 * ts + q0 * v1 + q1 * vs - qa * k) % d2,
            b - qb * d1,
            (p0 * u1 + p1 * us + q0 * w1 + q1 * ws - qb * k) % d2,
            c - qc * d1,
            (r0 * t1 + r1 * ts + s0 * v1 + s1 * vs - qc * k) % d2,
            d - qd * d1,
            (r0 * u1 + r1 * us + s0 * w1 + s1 * ws - qd * k) % d2,
        )

    def adj(x: Key) -> Key:
        p0, p1, q0, q1, r0, r1, s0, s1 = x
        return (*red(s0, s1), *red(-q0, -q1), *red(-r0, -r1), *red(p0, p1))

    return mul, dot, matmul, adj


def lattice_hnf(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """HNF (d1, k, d2) of a full-rank row lattice in Z^2, spanned by
    (d1, k) and (0, d2), d1, d2 > 0 and 0 <= k < d2, of determinant
    d1 * d2; it need not be an ideal.  One Euclid pass (Cohen, "A Course
    in Computational Algebraic Number Theory", 1993, 2.4.3) folds each row
    (x, y) into a basis (a, b), (0, c): Euclid's steps on a and x, each
    unimodular, so the span is kept, until x = 0; then c = gcd(c, y)."""
    a = b = c = 0
    for x, y in rows:
        while x:
            q = a // x
            a, b, x, y = x, y, a - q * x, b - q * y
        c = math.gcd(c, y)
    if a == 0 or c == 0:
        raise ValueError("lattice is not of full rank")
    if a < 0:
        a, b = -a, -b
    return a, b % c, c


def _built(triple: tuple[int, int, int]) -> IdealHNF:
    """The ideal of an HNF triple that the program built: one that is not
    an ideal is a fault of the program, not of its input, so it raises
    RuntimeError, not the ValueError of a malformed level."""
    try:
        return IdealHNF(*triple)
    except ValueError as exc:
        raise RuntimeError(f"internal error: {exc}") from exc


def ideal_from_generator(g: GoldenInt | int) -> IdealHNF:
    """HNF of the principal ideal (g), spanned over Z by g and L*g."""
    if isinstance(g, int):
        g = GoldenInt(g, 0)
    if not g:
        raise ValueError("zero element does not generate a lattice of full rank")
    ideal = _built(lattice_hnf([(g.a, g.b), (g.b, g.a + g.b)]))
    if ideal.norm != g.norm():
        raise RuntimeError(f"ideal {ideal} of ({g}) has norm {ideal.norm}, not {g.norm()}")
    return ideal


def ideal_mul(x: IdealHNF, y: IdealHNF) -> IdealHNF:
    """The product, spanned by the four products of the basis rows (a, b)
    and (c, d), each a + bL times c + dL = ac + bd + (ad + bc + bd)L."""
    rows = [
        (a * c + b * d, a * d + b * c + b * d)
        for a, b in ((x.d1, x.k), (0, x.d2))
        for c, d in ((y.d1, y.k), (0, y.d2))
    ]
    out = _built(lattice_hnf(rows))
    if out.norm != x.norm * y.norm:
        raise RuntimeError(f"{x} * {y} = {out} has norm {out.norm}, not {x.norm * y.norm}")
    return out


def ideals_up_to(norm: int) -> list[IdealHNF]:
    """Every ideal of norm 2 to `norm`, ordered by (norm, d1, k).

    Z[L] is norm-Euclidean (Hardy & Wright, "An Introduction to the
    Theory of Numbers", ch. 14), so every ideal is (h), h = a + bL, and
    the list is the ideals of the h with 2 <= |N(h)| <= norm in a box.
    The box: a unit L^j multiplies |h/h'| by L^2j, so some associate has
    |h/h'| in [1/L, L), and then |h|^2, |h'|^2 <= L N(h).  As a = (h/L +
    h'L)/sqrt5 and b = (h - h')/sqrt5, with L + 1/L = sqrt5, both |a| and
    |b| are at most sqrt(L N(h)) <= sqrt(13/8 norm), as 13/8 > L.  And
    -h generates (h), so b >= 0.
    """
    r = math.isqrt(13 * norm // 8)
    found = {
        ideal_from_generator(h)
        for h in (GoldenInt(a, b) for a in range(-r, r + 1) for b in range(r + 1))
        if 2 <= h.norm() <= norm
    }
    return sorted(found, key=lambda x: (x.norm, x.d1, x.k))


def ideal_divides(x: IdealHNF, y: IdealHNF) -> bool:
    """True iff y is contained in x as a lattice (i.e. x | y): both basis
    rows of y lie in x."""
    return x.contains(y.d1, y.k) and x.contains(0, y.d2)


@dataclass(frozen=True)
class PrimeFactor:
    """P above p = `rational_prime`.  `exponent` is that of P in (p) from
    `split_rational_prime`, in the level from `factor_ideal`, and `power`
    is P^exponent.  The `generator` of P is found on first read: only
    `factor` prints it, and for a split prime it costs a pseudo-Euclidean
    gcd, so the index path never asks for it."""

    prime: IdealHNF
    exponent: int
    residue_degree: int
    ramified: bool
    rational_prime: int
    power: IdealHNF

    @cached_property
    def generator(self) -> GoldenInt:
        """2 + L above 5, p for an inert p, and gcd(p, L - t) for a split
        prime (1, k, p), whose root is t = 1 - k mod p."""
        p = self.rational_prime
        if self.ramified:
            return TAU
        if self.residue_degree == 2:
            return GoldenInt(p, 0)
        t = (1 - self.prime.k) % p
        g, _ = gcd_pseudo(GoldenInt(p, 0), GoldenInt(-t, 1))
        if ideal_from_generator(g) != self.prime:
            raise RuntimeError(f"gcd({p}, L - {t}) = {g} does not generate {self.prime}")
        return g


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """A screen by the twelve primes up to 37, then Miller-Rabin to the
    same bases (`_MR_BASES`): deterministic only below about 3.18 * 10^23
    (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
    Math. Comp. 86 (2017)), probable-prime above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# 399165290221 * 798330580441, the least composite that `_is_prime` calls prime
_PSI12 = 318665857834031151167461
# the largest trial divisor: about 5 * 10^6 divisions, under a second
_DIVISOR_BUDGET = 10**7


def _factor_int(n: int) -> dict[int, int]:
    """Trial division.  Past d = 1000 it stops once the cofactor n is
    prime by `_is_prime`, tested each time n changes, but only below
    _PSI12, where that test is exact; a larger cofactor is divided on.
    Past d = _DIVISOR_BUDGET a cofactor still unresolved (two prime
    factors above the budget, or a prime at or above _PSI12) raises
    IterationCapError."""
    out: dict[int, int] = {}
    d, tested = 2, 1
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        if d > 1000:
            if n != tested:
                if n < _PSI12 and _is_prime(n):
                    break
                tested = n
            if d > _DIVISOR_BUDGET:
                raise IterationCapError(f"trial division passed d = {_DIVISOR_BUDGET} with a cofactor unfactored")
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


TAU = GoldenInt(2, 1)  # the ramified prime above 5


def split_rational_prime(p: int) -> tuple[PrimeFactor, ...]:
    """Factor the ideal (p) for a rational prime p.

    p = 5 ramifies as (2+L)^2; p = +-1 mod 5 splits into two degree-1
    primes (p, L - t), one for each root t of t^2 = t + 1 mod p;
    everything else (p = +-2 mod 5) is inert.  (p, L - t) holds 1 + kL
    exactly when 1 + kt = 0 mod p, and k = 1 - t solves that (1 + t - t^2
    = 0), so its HNF is (1, 1 - t mod p, p), read off t with no gcd.  The
    scan over t stops at the first root: the two roots sum to 1, so the
    other is 1 - t, whose prime is (1, t, p).  The primes come in the
    order of their k; `PrimeFactor.generator` finds a generator only when
    it is read.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not a rational prime")
    if p == 5:
        return (PrimeFactor(ideal_from_generator(TAU), 2, 1, True, p, ideal_from_generator(p)),)
    if p % 5 in (1, 4):
        t = next((t for t in range(p) if (t * t - t - 1) % p == 0), None)
        if t is None:
            raise RuntimeError(f"t^2 = t + 1 has no root mod {p}")
        primes = sorted({_built((1, (1 - t) % p, p)), _built((1, t, p))}, key=lambda x: x.k)
        if len(primes) != 2:
            raise RuntimeError(f"{p} split into {[str(x) for x in primes]}, not two primes")
        return tuple(PrimeFactor(prime, 1, 1, False, p, prime) for prime in primes)
    prime = ideal_from_generator(p)
    return (PrimeFactor(prime, 1, 2, False, p, prime),)


def factor_ideal(ideal: IdealHNF) -> list[PrimeFactor]:
    """Complete prime factorization; the product reconstructs the ideal."""
    out = []
    check = IdealHNF(1, 0, 1)
    for p in sorted(_factor_int(ideal.d2)):  # d1 | d2: the norm's primes
        for pf in split_rational_prime(p):
            # power is P^(e+1), built only when its norm divides N(A),
            # as it must if it holds A; once e > 0, exact is P^e
            e, power = 0, pf.prime
            while ideal_divides(power, ideal):
                e, exact = e + 1, power
                if ideal.norm % (power.norm * pf.prime.norm):
                    break
                power = ideal_mul(power, pf.prime)
            if e:
                out.append(PrimeFactor(pf.prime, e, pf.residue_degree, pf.ramified, p, exact))
                check = ideal_mul(check, exact)
    if check != ideal:
        raise RuntimeError(f"factorization of {ideal} reconstructs {check}")
    return out
