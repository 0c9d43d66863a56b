"""Ideals of Z[L] as canonical Hermite-normal-form sublattices of Z^2.

An ideal is stored as the row lattice spanned by (d1, k) and (0, d2) in
coordinates (coefficient of 1, coefficient of L), with d1, d2 > 0 and
0 <= k < d2.  The triple is canonical, so ideals are hashable and compare
structurally.

An ideal A is also its own residue ring Z[L]/A: a residue is the pair
(x, y), 0 <= x < d1 and 0 <= y < d2, standing for x + yL, that
`IdealHNF.reduce_pair` gives.  There is no other form of a residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .golden import GoldenInt, gcd_pseudo


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
        if not (self.contains(GoldenInt(k, d1 + k)) and self.contains(GoldenInt(d2, d2))):
            raise ValueError(f"HNF triple {(d1, k, d2)} is a lattice but not an ideal")

    @property
    def norm(self) -> int:
        return self.d1 * self.d2

    def basis(self) -> tuple[GoldenInt, GoldenInt]:
        return GoldenInt(self.d1, self.k), GoldenInt(0, self.d2)

    def reduce_pair(self, a: int, b: int) -> tuple[int, int]:
        """The residue (x, y) of a + bL: subtract the row (d1, k) q times to
        bring a into [0, d1), then reduce mod d2.  `quotient` inlines this."""
        q = a // self.d1
        return a - q * self.d1, (b - q * self.k) % self.d2

    def contains(self, x: GoldenInt) -> bool:
        return self.reduce_pair(x.a, x.b) == (0, 0)

    def is_unit_ideal(self) -> bool:
        return self.norm == 1

    def __str__(self) -> str:
        return f"[{self.d1},{self.k},{self.d2}]"


def lattice_hnf(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """HNF (d1, k, d2) of a full-rank row lattice in Z^2.

    The lattice is spanned by (d1, k) and (0, d2), with d1, d2 > 0 and
    0 <= k < d2, and has determinant d1 * d2.  It need not be an ideal.
    """
    r1 = (0, 0)
    for row in rows:
        if row == (0, 0):
            continue
        g, u, v = _xgcd(r1[0], row[0])
        if g == 0:
            # both first coordinates vanish; fold into the y pool later
            continue
        r1 = (g, u * r1[1] + v * row[1])
    d1 = r1[0]
    if d1 == 0:
        raise ValueError("lattice is not of full rank")
    ys = [row[1] - (row[0] // d1) * r1[1] for row in rows]
    d2 = 0
    for y in ys:
        d2 = math.gcd(d2, y)
    if d2 == 0:
        raise ValueError("lattice is not of full rank")
    return d1, r1[1] % d2, d2


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def ideal_from_generator(g: GoldenInt | int) -> IdealHNF:
    """HNF of the principal ideal (g), spanned over Z by g and L*g."""
    if isinstance(g, int):
        g = GoldenInt(g, 0)
    if not g:
        raise ValueError("zero element does not generate a lattice of full rank")
    ideal = IdealHNF(*lattice_hnf([(g.a, g.b), (g.b, g.a + g.b)]))
    if ideal.norm != g.norm():
        raise RuntimeError(f"ideal {ideal} of ({g}) has norm {ideal.norm}, not {g.norm()}")
    return ideal


def ideal_mul(x: IdealHNF, y: IdealHNF) -> IdealHNF:
    rows = []
    for e in x.basis():
        for f in y.basis():
            p = e * f
            rows.append((p.a, p.b))
    out = IdealHNF(*lattice_hnf(rows))
    if out.norm != x.norm * y.norm:
        raise RuntimeError(f"{x} * {y} = {out} has norm {out.norm}, not {x.norm * y.norm}")
    return out


def ideal_pow(x: IdealHNF, n: int) -> IdealHNF:
    out = IdealHNF(1, 0, 1)
    for _ in range(n):
        out = ideal_mul(out, x)
    return out


def ideals_up_to(norm: int) -> list[IdealHNF]:
    """Every ideal of norm 2 to `norm`, ordered by (norm, d1, k).

    An ideal's HNF is d1 times that of a primitive ideal (1, j, m): L *
    (0, d2) = (d2, d2) lies in the lattice only when d1 | d2 and d1 | k.
    And (1, j, m) is an ideal exactly when L * (1 + jL) = j + (1 + j)L
    lies in it, that is, when j^2 - j - 1 = 0 mod m.  So the scan is over
    d1, m and j < m, and `IdealHNF` checks each triple it keeps.
    """
    out = []
    for d1 in range(1, math.isqrt(norm) + 1):
        for m in range(1, norm // (d1 * d1) + 1):
            out.extend(
                IdealHNF(d1, j * d1, d1 * m) for j in range(m) if (j * j - j - 1) % m == 0
            )
    return sorted((x for x in out if x.norm >= 2), key=lambda x: (x.norm, x.d1, x.k))


def ideal_divides(x: IdealHNF, y: IdealHNF) -> bool:
    """True iff y is contained in x as a lattice (i.e. x | y)."""
    return all(x.contains(e) for e in y.basis())


@dataclass(frozen=True)
class PrimeFactor:
    prime: IdealHNF
    generator: GoldenInt
    exponent: int
    residue_degree: int
    ramified: bool

    @property
    def rational_prime(self) -> int:
        root = math.isqrt(self.prime.norm)
        return root if root * root == self.prime.norm else self.prime.norm


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the twelve prime bases up to 37: deterministic only
    below about 3.18 * 10^23 (Sorenson & Webster, "Strong pseudoprimes to
    twelve prime bases", Math. Comp. 86 (2017)), probable-prime above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _factor_int(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


TAU = GoldenInt(2, 1)  # the ramified prime above 5


@lru_cache(maxsize=None)
def split_rational_prime(p: int) -> tuple[PrimeFactor, ...]:
    """Factor the ideal (p) for a rational prime p.

    p = 5 ramifies as (2+L)^2; p = +-1 mod 5 splits into two degree-1
    primes found as gcd(p, L - t) for the roots t of t^2 = t + 1 mod p;
    everything else (p = +-2 mod 5) is inert.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not a rational prime")
    if p == 5:
        return (PrimeFactor(ideal_from_generator(TAU), TAU, 2, 1, True),)
    if p % 5 in (1, 4):
        factors = []
        for t in range(p):
            if (t * t - t - 1) % p == 0:
                g, _ = gcd_pseudo(GoldenInt(p, 0), GoldenInt(-t, 1))
                prime = ideal_from_generator(g)
                if prime.norm != p:
                    raise RuntimeError(f"gcd({p}, L - {t}) = {g} has norm {prime.norm}, not {p}")
                factors.append(PrimeFactor(prime, g, 1, 1, False))
        if len(factors) != 2 or factors[0].prime == factors[1].prime:
            raise RuntimeError(f"{p} split into {[str(f.prime) for f in factors]}, not two primes")
        factors.sort(key=lambda f: (f.prime.d1, f.prime.k, f.prime.d2))
        return tuple(factors)
    gp = GoldenInt(p, 0)
    return (PrimeFactor(ideal_from_generator(gp), gp, 1, 2, False),)


def factor_ideal(ideal: IdealHNF) -> list[PrimeFactor]:
    """Complete prime factorization; the product reconstructs the ideal."""
    if ideal.is_unit_ideal():
        return []
    out = []
    check = IdealHNF(1, 0, 1)
    for p in sorted(_factor_int(ideal.d2)):  # d1 | d2: the norm's primes
        for pf in split_rational_prime(p):
            e = 0
            power = pf.prime  # P^(e+1); once e > 0, exact is P^e
            while ideal_divides(power, ideal):
                e += 1
                exact, power = power, ideal_mul(power, pf.prime)
            if e:
                out.append(PrimeFactor(pf.prime, pf.generator, e, pf.residue_degree, pf.ramified))
                check = ideal_mul(check, exact)
    if check != ideal:
        raise RuntimeError(f"factorization of {ideal} reconstructs {check}")
    return out
