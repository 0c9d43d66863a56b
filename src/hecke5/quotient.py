"""Finite image of the Hecke group in SL(2, Z[L]/A).

Two engines, one per kind of question:

- Counting.  The order of the image (the index [H : H(A)]) comes from
  orbit-stabilizer: `orbit_stabilizer` walks the orbit of the column e1
  and spans the stabilizer of e1 by Schreier generators, storing one
  column per orbit point and no group elements.  `index_h`, `index_g`
  and `is_surjective` use it.
- Elements and words.  `semigroup_closure` is the one breadth-first
  closure: from the identity under right-multiplication by the given
  generators (a finite group, so semigroup closure suffices and words
  use positive letters only).  It returns an insertion-ordered dict
  mapping each element to its BFS predecessor (the identity to None),
  which is at once the element set, the BFS order and the parent map.
  Elements are keyed by the 8 integers of the four entries' reduced
  pairs (the level is its own residue ring, see `IdealHNF.reduce_pair`),
  making the enumeration deterministic and hashable.
  `build_quotient` is that closure under the images of S and T; coset
  words, the subgroup machinery and the verifiers use it.
"""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import dataclass
from math import prod

from .formula import sl2_factor
from .golden import GoldenInt, format_element, power
from .ideals import IdealHNF, factor_ideal, ideal_divides, lattice_hnf
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
    # GoldenInt.__mul__'s product formula, inlined: this is the BFS hot loop
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


@dataclass(frozen=True)
class ResMat:
    """A matrix over the residue ring of a level, keyed by the reduced
    pairs of its entries in row-major order."""

    level: IdealHNF
    key: Key

    @classmethod
    def from_mat2(cls, level: IdealHNF, m: Mat2) -> ResMat:
        key = tuple(x for e in m.entries() for x in level.reduce_pair(e.a, e.b))
        return cls(level, key)  # type: ignore[arg-type]

    def __mul__(self, other: ResMat) -> ResMat:
        m = self.level
        return ResMat(m, _key_mul(self.key, other.key, m.d1, m.k, m.d2))

    def __pow__(self, n: int) -> ResMat:
        return power(self if n >= 0 else self.inverse(), abs(n), ResMat.identity(self.level))

    def inverse(self) -> ResMat:
        # the adjugate, which is the inverse only when det is 1
        det = self.det()
        if det != self.level.reduce_pair(1, 0):
            raise ValueError(
                f"det {format_element(GoldenInt(*det))} is not 1: the adjugate is no inverse"
            )
        red = self.level.reduce_pair
        a, b, c, d, e, f, g, h = self.key
        key = (g, h, *red(-c, -d), *red(-e, -f), a, b)
        return ResMat(self.level, key)

    def det(self) -> tuple[int, int]:
        """The reduced pair of the determinant."""
        a, b, c, d, e, f, g, h = self.key
        det = GoldenInt(a, b) * GoldenInt(g, h) - GoldenInt(c, d) * GoldenInt(e, f)
        return self.level.reduce_pair(det.a, det.b)

    @classmethod
    def identity(cls, level: IdealHNF) -> ResMat:
        # zero is (0, 0) in every residue ring
        one = level.reduce_pair(1, 0)
        return cls(level, (*one, 0, 0, 0, 0, *one))


@dataclass(frozen=True)
class QuotientGroup:
    """Fully enumerated image of the Hecke group modulo an ideal.

    elements is in deterministic BFS order; predecessor is the closure's
    dict from each element to its BFS predecessor (None at the identity),
    so predecessor chains spell a positive word evaluating to the element.
    """

    level: IdealHNF
    elements: tuple[Key, ...]
    predecessor: dict[Key, Key | None]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def element_set(self) -> KeysView[Key]:
        return self.predecessor.keys()

    def word_for(self, key: Key) -> str:
        # the letter taking a predecessor to its element: T keeps the first
        # column (coordinates 0, 1, 4, 5); S never does, since it moves the
        # second column there and a det-1 matrix has distinct columns
        letters = []
        while (pred := self.predecessor[key]) is not None:
            same = pred[0] == key[0] and pred[1] == key[1] and pred[4] == key[4] and pred[5] == key[5]
            letters.append("T" if same else "S")
            key = pred
        return "".join(reversed(letters))

    def resmat(self, key: Key) -> ResMat:
        return ResMat(self.level, key)


def build_quotient(level: IdealHNF, cap: int = DEFAULT_CAP) -> QuotientGroup:
    """BFS closure of {S, T} images modulo the given ideal."""
    if level.norm < 2:
        raise ValueError("level must be a proper ideal (norm >= 2)")
    gen_keys = [ResMat.from_mat2(level, S).key, ResMat.from_mat2(level, T).key]
    predecessor = semigroup_closure(level, gen_keys, cap)
    return QuotientGroup(level, tuple(predecessor), predecessor)


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
                # b = s_w q' - q_w s' for (q_w, s_w) = known and (q', s') = col,
                # with GoldenInt.__mul__'s product formula inlined for speed
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
    """|SL(2, Z[L]/A)|: the product of the SL2 factors of the P^e || A."""
    if level.norm < 2:
        raise ValueError("level must be a proper ideal (norm >= 2)")
    return prod(sl2_factor(pf.prime.norm, pf.exponent) for pf in factor_ideal(level))


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
    """One positive word per element, via BFS predecessor chains."""
    return [(q.resmat(key), q.word_for(key)) for key in q.elements]


@dataclass(frozen=True)
class SubgroupHandle:
    group: QuotientGroup
    members: frozenset[Key]

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        if self.group.order % self.order:
            raise ValueError(f"{self.order} does not divide the group order {self.group.order}")
        return self.group.order // self.order


def subgroup_from_predicate(q: QuotientGroup, which: str) -> SubgroupHandle:
    """The congruence-condition subgroups: `H0` (lower-left entry 0) or
    `H1` (additionally both diagonal entries 1)."""
    if which not in ("H0", "H1"):
        raise ValueError(f"unknown predicate {which!r}")
    one = q.level.reduce_pair(1, 0)
    members = set()
    for key in q.elements:
        if (key[4], key[5]) != (0, 0):
            continue
        if which == "H1" and ((key[0], key[1]) != one or (key[6], key[7]) != one):
            continue
        members.add(key)
    return SubgroupHandle(q, frozenset(members))


def semigroup_closure(
    level: IdealHNF, gen_keys: list[Key], cap: int | None = None
) -> dict[Key, Key | None]:
    """Deterministic BFS closure of the identity under right-multiplication.

    Returns an insertion-ordered dict from each element, in BFS order, to
    its predecessor (None at the identity); each element was first reached
    from its predecessor by the first generator, in `gen_keys` order, that
    reaches it.  In a finite group semigroup closure equals subgroup
    closure, so no inverses are needed.
    """
    d1, k, d2 = level.d1, level.k, level.d2
    identity = ResMat.identity(level).key
    predecessor: dict[Key, Key | None] = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gen_keys:
                w = _key_mul(u, g, d1, k, d2)
                if w not in predecessor:
                    predecessor[w] = u
                    nxt.append(w)
                    if cap is not None and len(predecessor) > cap:
                        raise CapExceededError(cap, len(predecessor))
        frontier = nxt
    return predecessor


def subgroup_generated(q: QuotientGroup, gens: list[ResMat]) -> SubgroupHandle:
    for g in gens:
        if g.key not in q.element_set:
            raise ValueError(f"generator {g.key} is not in the quotient")
    members = frozenset(semigroup_closure(q.level, [g.key for g in gens]))
    return SubgroupHandle(q, members)


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
    members = {q.elements[0]}
    gens: list[Key] = []
    for p in powers:
        if p not in members:
            gens.append(p)
            members = semigroup_closure(q.level, gens)
            if len(members) == q.order:
                break
    return SubgroupHandle(q, frozenset(members))


def is_normal(sub: SubgroupHandle) -> bool:
    """Conjugation-stability under the two group generators suffices."""
    q = sub.group
    for gen in (ResMat.from_mat2(q.level, S), ResMat.from_mat2(q.level, T)):
        inv = gen.inverse()
        for key in sub.members:
            if (gen * q.resmat(key) * inv).key not in sub.members:
                return False
    return True
