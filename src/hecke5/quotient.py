"""Finite image of the Hecke group in SL(2, Z[L]/A).

Two engines, one per kind of question:

- Counting.  The order of the image (the index [H : H(A)]) comes from
  orbit-stabilizer: `orbit_stabilizer` walks the orbit of the column e1
  and spans the stabilizer of e1 by Schreier generators, storing one
  column per orbit point and no group elements.  `index_h`, `index_g`
  and `is_surjective` use it.
- Elements and words.  `build_quotient` is a breadth-first closure from
  the identity under right-multiplication by the images of S and T (a
  finite group, so semigroup closure suffices; coset words therefore use
  positive letters only).  Elements are keyed by the 8 reduced integer
  coordinates of the four entries, making the enumeration deterministic
  and hashable.  Coset words, the subgroup machinery and the verifiers
  use it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import (
    IdealHNF,
    ResElt,
    ResidueRing,
    factor_ideal,
    ideal_divides,
    lattice_hnf,
)
from .matrices import Mat2, S, T

Key = tuple[int, int, int, int, int, int, int, int]

DEFAULT_CAP = 5_000_000


class CapExceededError(RuntimeError):
    def __init__(self, cap: int, partial: int, what: str = "quotient"):
        super().__init__(f"{what} exceeded cap {cap} (partial count {partial})")
        self.cap = cap
        self.partial = partial


def _key_mul(u: Key, v: Key, d1: int, k: int, d2: int) -> Key:
    """Product of two residue matrices in flat-key form."""
    ua, ub, uc, ud, ue, uf, ug, uh = u
    va, vb, vc, vd, ve, vf, vg, vh = v
    # entry 11 = u11*v11 + u12*v21
    x = ua * va + ub * vb + uc * ve + ud * vf
    y = ua * vb + ub * va + ub * vb + uc * vf + ud * ve + ud * vf
    q = x // d1
    e11 = (x - q * d1, (y - q * k) % d2)
    x = ua * vc + ub * vd + uc * vg + ud * vh
    y = ua * vd + ub * vc + ub * vd + uc * vh + ud * vg + ud * vh
    q = x // d1
    e12 = (x - q * d1, (y - q * k) % d2)
    x = ue * va + uf * vb + ug * ve + uh * vf
    y = ue * vb + uf * va + uf * vb + ug * vf + uh * ve + uh * vf
    q = x // d1
    e21 = (x - q * d1, (y - q * k) % d2)
    x = ue * vc + uf * vd + ug * vg + uh * vh
    y = ue * vd + uf * vc + uf * vd + ug * vh + uh * vg + uh * vh
    q = x // d1
    e22 = (x - q * d1, (y - q * k) % d2)
    return (*e11, *e12, *e21, *e22)


def _mat_key(ring: ResidueRing, m: Mat2) -> Key:
    out: list[int] = []
    for e in m.entries():
        out.extend(ring.reduce_pair(e.a, e.b))
    return tuple(out)  # type: ignore[return-value]


@dataclass(frozen=True)
class ResMat:
    """A matrix over a residue ring, in canonical reduced coordinates."""

    ring: ResidueRing
    key: Key

    @classmethod
    def from_mat2(cls, ring: ResidueRing, m: Mat2) -> ResMat:
        return cls(ring, _mat_key(ring, m))

    def __mul__(self, other: ResMat) -> ResMat:
        m = self.ring.modulus
        return ResMat(self.ring, _key_mul(self.key, other.key, m.d1, m.k, m.d2))

    def __pow__(self, n: int) -> ResMat:
        if n < 0:
            return self.inverse() ** (-n)
        out = ResMat.identity(self.ring)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> ResMat:
        # adjugate; valid since everything enumerated here has det 1
        assert self.det() == self.ring.one(), "inverse of a non-det-1 matrix"
        red = self.ring.reduce_pair
        a, b, c, d, e, f, g, h = self.key
        key = (g, h, *red(-c, -d), *red(-e, -f), a, b)
        return ResMat(self.ring, key)

    def entry(self, i: int, j: int) -> ResElt:
        x, y = self.key[4 * i + 2 * j], self.key[4 * i + 2 * j + 1]
        return ResElt(x, y, self.ring)

    def det(self) -> ResElt:
        return self.entry(0, 0) * self.entry(1, 1) - self.entry(0, 1) * self.entry(1, 0)

    @classmethod
    def identity(cls, ring: ResidueRing) -> ResMat:
        one = ring.one()
        zero = ring.zero()
        return cls(ring, (one.x, one.y, zero.x, zero.y, zero.x, zero.y, one.x, one.y))


@dataclass(frozen=True)
class QuotientGroup:
    """Fully enumerated image of the Hecke group modulo an ideal.

    elements is in deterministic BFS order; parent maps each non-identity
    element key to (predecessor key, generator letter), so parent chains
    spell a positive word evaluating to the element.
    """

    level: IdealHNF
    ring: ResidueRing
    elements: tuple[Key, ...]
    parent: dict[Key, tuple[Key, str]]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def element_set(self) -> frozenset[Key]:
        # cached lazily on the instance despite frozen dataclass
        cached = self.__dict__.get("_element_set")
        if cached is None:
            cached = frozenset(self.elements)
            object.__setattr__(self, "_element_set", cached)
        return cached

    def word_for(self, key: Key) -> str:
        letters = []
        while key in self.parent:
            key, letter = self.parent[key]
            letters.append(letter)
        return "".join(reversed(letters))

    def resmat(self, key: Key) -> ResMat:
        return ResMat(self.ring, key)


def build_quotient(level: IdealHNF, cap: int = DEFAULT_CAP) -> QuotientGroup:
    """BFS closure of {S, T} images modulo the given ideal."""
    if level.norm < 2:
        raise ValueError("level must be a proper ideal (norm >= 2)")
    ring = ResidueRing(level)
    d1, k, d2 = level.d1, level.k, level.d2
    gens = [("S", _mat_key(ring, S)), ("T", _mat_key(ring, T))]
    identity = ResMat.identity(ring).key
    parent: dict[Key, tuple[Key, str]] = {}
    seen = {identity}
    order: list[Key] = [identity]
    frontier = [identity]
    while frontier:
        next_frontier: list[Key] = []
        for u in frontier:
            for letter, g in gens:
                w = _key_mul(u, g, d1, k, d2)
                if w not in seen:
                    seen.add(w)
                    parent[w] = (u, letter)
                    order.append(w)
                    next_frontier.append(w)
                    if len(order) > cap:
                        raise CapExceededError(cap, len(order))
        frontier = next_frontier
    return QuotientGroup(level, ring, tuple(order), parent)


def orbit_stabilizer(level: IdealHNF, cap: int = DEFAULT_CAP) -> tuple[int, int]:
    """(|orbit of e1|, |stabilizer of e1|) for the image of the group mod
    the level acting on columns; their product is the image's order.

    Each orbit point v = (a, c) keeps only the second column (q, s) of a
    transversal element t_v with first column v.  A non-tree edge v -> w
    under g in {S, T} gives the Schreier generator t_w^-1 g t_v, which
    fixes e1 and so is [[1, b], [0, 1]].  These b together with the level
    span a lattice of Z^2 (not always an ideal: at (2) it is Z*2 + Z*L),
    and the stabilizer, a group of translations, has order
    N(level) / det of that lattice.  Raises CapExceededError once the
    orbit holds more than `cap` points.
    """
    if level.norm < 2:
        raise ValueError("level must be a proper ideal (norm >= 2)")
    d1, k, d2 = level.d1, level.k, level.d2

    def red(x: int, y: int) -> tuple[int, int]:
        q = x // d1
        return x - q * d1, (y - q * k) % d2

    # points and columns are flat (x, y, x', y') pairs of residues x + yL
    one = red(1, 0)
    e1 = (*one, 0, 0)
    column = {e1: (0, 0, *one)}
    queue = [e1]
    bs: set[tuple[int, int]] = set()
    for v in queue:
        ax, ay, cx, cy = v
        qx, qy, sx, sy = column[v]
        # S (a, c) = (c, -a); T (a, c) = (a + L c, c), with L (x + yL) = y + (x + y)L
        for w, col in (
            ((cx, cy, *red(-ax, -ay)), (sx, sy, *red(-qx, -qy))),
            ((*red(ax + cy, ay + cx + cy), cx, cy), (*red(qx + sy, qy + sx + sy), sx, sy)),
        ):
            known = column.get(w)
            if known is None:
                column[w] = col
                queue.append(w)
                if len(queue) > cap:
                    raise CapExceededError(cap, len(queue), "orbit")
            elif known != col:
                # b = s_w q' - q_w s' for (q_w, s_w) = known and (q', s') = col
                wqx, wqy, wsx, wsy = known
                px, py, rx, ry = col
                bs.add(red(
                    wsx * px + wsy * py - wqx * rx - wqy * ry,
                    wsx * py + wsy * px + wsy * py - wqx * ry - wqy * rx - wqy * ry,
                ))
    f1, _, f2 = lattice_hnf([(d1, k), (0, d2), *bs])
    return len(queue), level.norm // (f1 * f2)


def index_h(level: IdealHNF, cap: int = DEFAULT_CAP) -> int:
    """[H : H(level)], counted by orbit-stabilizer; `cap` bounds orbit points."""
    orbit, stabilizer = orbit_stabilizer(level, cap)
    return orbit * stabilizer


def sl2_order(level: IdealHNF) -> int:
    """|SL(2, Z[L]/A)|: the product over P^e || A of N(P)^(3e-2) (N(P)^2 - 1)."""
    if level.norm < 2:
        raise ValueError("level must be a proper ideal (norm >= 2)")
    total = 1
    for pf in factor_ideal(level):
        q = pf.prime.norm
        total *= q ** (3 * pf.exponent - 2) * (q * q - 1)
    return total


def is_surjective(level: IdealHNF, cap: int = DEFAULT_CAP) -> bool:
    """Whether reduction mod the level maps onto SL2 of the residue ring."""
    return index_h(level, cap) == sl2_order(level)


def minus_i_in_level(level: IdealHNF) -> bool:
    """-I = I mod A exactly when A divides (2), whose HNF is [2,0,2]."""
    return ideal_divides(level, IdealHNF(2, 0, 2))


def index_g(level: IdealHNF, cap: int = DEFAULT_CAP, *, index: int | None = None) -> int:
    """Index of the level in the inhomogeneous (mod +-I) group.  `index`
    is [H : H(level)] when the caller has already counted it."""
    n = index_h(level, cap) if index is None else index
    return n if minus_i_in_level(level) else n // 2


def coset_words(q: QuotientGroup) -> list[tuple[ResMat, str]]:
    """One positive word per element, via BFS parent chains."""
    return [(q.resmat(key), q.word_for(key)) for key in q.elements]


@dataclass(frozen=True)
class SubgroupHandle:
    group: QuotientGroup
    members: frozenset[Key]
    description: str

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        assert self.group.order % self.order == 0
        return self.group.order // self.order


def subgroup_from_predicate(q: QuotientGroup, which: str) -> SubgroupHandle:
    """The congruence-condition subgroups: `H0` (lower-left entry 0) or
    `H1` (additionally both diagonal entries 1)."""
    ring = q.ring
    zero = (ring.zero().x, ring.zero().y)
    one = (ring.one().x, ring.one().y)
    members = set()
    for key in q.elements:
        if (key[4], key[5]) != zero:
            continue
        if which == "H1" and ((key[0], key[1]) != one or (key[6], key[7]) != one):
            continue
        members.add(key)
    if which not in ("H0", "H1"):
        raise ValueError(f"unknown predicate {which!r}")
    return SubgroupHandle(q, frozenset(members), which)


def semigroup_closure(
    ring: ResidueRing, gen_keys: list[Key], cap: int | None = None
) -> list[Key]:
    """Deterministic BFS closure of the identity under right-multiplication.

    In a finite group semigroup closure equals subgroup closure, so no
    inverses are needed.
    """
    m = ring.modulus
    d1, k, d2 = m.d1, m.k, m.d2
    identity = ResMat.identity(ring).key
    seen = {identity}
    order = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gen_keys:
                w = _key_mul(u, g, d1, k, d2)
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    nxt.append(w)
                    if cap is not None and len(order) > cap:
                        raise CapExceededError(cap, len(order))
        frontier = nxt
    return order


def _closure(q: QuotientGroup, gens: list[Key]) -> frozenset[Key]:
    return frozenset(semigroup_closure(q.ring, gens))


def subgroup_generated(q: QuotientGroup, gens: list[ResMat]) -> SubgroupHandle:
    for g in gens:
        if g.key not in q.element_set:
            raise ValueError(f"generator {g.key} is not in the quotient")
    members = _closure(q, [g.key for g in gens])
    return SubgroupHandle(q, members, f"<{len(gens)} generators>")


def power_subgroup(q: QuotientGroup, k: int) -> SubgroupHandle:
    """Subgroup generated by all k-th powers (normal: the generating set
    is closed under conjugation)."""
    if k < 1:
        raise ValueError("power must be >= 1")
    powers = []
    seen_powers = set()
    for key in q.elements:
        p = (q.resmat(key) ** k).key
        if p not in seen_powers:
            seen_powers.add(p)
            powers.append(p)
    members = frozenset({q.elements[0]})
    gens: list[Key] = []
    for p in powers:
        if p not in members:
            gens.append(p)
            members = _closure(q, gens)
            if len(members) == q.order:
                break
    return SubgroupHandle(q, members, f"{k}-th powers")


def is_normal(sub: SubgroupHandle) -> bool:
    """Conjugation-stability under the two group generators suffices."""
    q = sub.group
    for gen in (ResMat.from_mat2(q.ring, S), ResMat.from_mat2(q.ring, T)):
        inv = gen.inverse()
        for key in sub.members:
            if (gen * q.resmat(key) * inv).key not in sub.members:
                return False
    return True
