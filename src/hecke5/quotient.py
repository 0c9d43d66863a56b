"""Finite image of the Hecke group in SL(2, Z[L]/A).

Two engines, one per kind of question:

- Counting.  The order of the image (the index [H : H(A)]) comes from
  orbit-stabilizer: `orbit_stabilizer` walks the orbit of the column e1
  and spans the stabilizer of e1 by Schreier generators, storing one
  column per orbit point and no group elements.  `index_h` is its
  product, and `index_g` halves that unless -I = I mod A.
- Elements and words.  `semigroup_closure` is the one breadth-first
  closure: from the identity under right-multiplication by the given
  generators (a finite group, so semigroup closure suffices and words
  use positive letters only).  It returns an insertion-ordered dict
  mapping each element to its BFS predecessor (the identity to None),
  which is at once the element set, the BFS order and the parent map.
  `build_quotient` is that closure under the images of S and T, kept
  with its level as a `QuotientGroup`; the subgroups, the verifiers and
  `coset_words` (one BFS-order pass) use it, and `power_subgroup` powers
  elements in BFS order only until their span is the whole group.

An element has one form everywhere, its packed int (`_pack`): the
residue (x, y) of an entry (the level is its own residue ring, see
`IdealHNF.reduce_pair`) is the digit x*d2 + y in [0, N), N = N(A), and
the four entries are the base-N digits of one int, row-major.  It is
`ResMat.key`, the closure's keys and values, and a subgroup's members,
which makes the enumeration deterministic, hashable and small.  Only
this module reads the digits: `ResMat` decodes its operands for its
arithmetic, and `ResMat.residues` gives the eight residue integers to
a caller that prints them.  The closure multiplies by table lookups on
packed rows, tables filled on demand, one general row product per
generator for each row that occurs, so nothing is sized by N(A) and a
cap error at a level of norm 10^10 comes as fast as at (2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import add

from .formula import sl2_factor
from .golden import GoldenInt, format_element, power
from .ideals import IdealHNF, factor_ideal, ideal_divides, lattice_hnf
from .matrices import Mat2, S, T

# the reduced pairs of the four entries, row-major: an element decoded
Key = tuple[int, int, int, int, int, int, int, int]

DEFAULT_CAP = 5_000_000


class CapExceededError(RuntimeError):
    def __init__(self, cap: int, partial: int, what: str = "quotient"):
        super().__init__(f"{what} exceeded cap {cap} (partial count {partial})")
        self.cap = cap
        self.partial = partial


Row = tuple[int, int, int, int]


def _row_mul(r: Row, v: Key, d1: int, k: int, d2: int) -> Row:
    """A row of two residues times a residue matrix, both decoded."""
    # GoldenInt.__mul__'s product formula, inlined: ResMat products and the
    # closure's table misses all come here
    ra, rb, rc, rd = r
    va, vb, vc, vd, ve, vf, vg, vh = v
    # entry 1 = r1*v11 + r2*v21, entry 2 = r1*v12 + r2*v22
    x = ra * va + rb * vb + rc * ve + rd * vf
    y = ra * vb + rb * va + rb * vb + rc * vf + rd * ve + rd * vf
    q = x // d1
    x1, y1 = x - q * d1, (y - q * k) % d2
    x = ra * vc + rb * vd + rc * vg + rd * vh
    y = ra * vd + rb * vc + rb * vd + rc * vh + rd * vg + rd * vh
    q = x // d1
    return x1, y1, x - q * d1, (y - q * k) % d2


def _pack(level: IdealHNF, key: Key) -> int:
    """The packed form of an element: the residue (x, y) of each entry is
    the digit x*d2 + y in [0, N), N = N(level), and the four entries are
    the base-N digits of one int, row-major.  Distinct keys pack apart."""
    n, d2 = level.norm, level.d2
    packed = 0
    for i in range(0, 8, 2):
        packed = packed * n + key[i] * d2 + key[i + 1]
    return packed


def _unpack(level: IdealHNF, packed: int) -> Key:
    """The reduced pairs of a packed element's entries; inverts `_pack`."""
    n, d2 = level.norm, level.d2
    top, bottom = divmod(packed, n * n)
    a, b = divmod(top, n)
    c, d = divmod(bottom, n)
    return (*divmod(a, d2), *divmod(b, d2), *divmod(c, d2), *divmod(d, d2))


@dataclass(frozen=True)
class ResMat:
    """A matrix over the residue ring of a level, keyed by its packed int."""

    level: IdealHNF
    key: int

    @classmethod
    def from_mat2(cls, level: IdealHNF, m: Mat2) -> ResMat:
        key = tuple(x for e in m.entries() for x in level.reduce_pair(e.a, e.b))
        return cls(level, _pack(level, key))  # type: ignore[arg-type]

    def residues(self) -> Key:
        """The reduced pairs (x, y), x + yL, of the four entries, row-major."""
        return _unpack(self.level, self.key)

    def __mul__(self, other: ResMat) -> ResMat:
        m, u, v = self.level, self.residues(), other.residues()
        rows = _row_mul(u[:4], v, m.d1, m.k, m.d2) + _row_mul(u[4:], v, m.d1, m.k, m.d2)
        return ResMat(m, _pack(m, rows))

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
        a, b, c, d, e, f, g, h = self.residues()
        key = (g, h, *red(-c, -d), *red(-e, -f), a, b)
        return ResMat(self.level, _pack(self.level, key))

    def det(self) -> tuple[int, int]:
        """The reduced pair of the determinant."""
        a, b, c, d, e, f, g, h = self.residues()
        det = GoldenInt(a, b) * GoldenInt(g, h) - GoldenInt(c, d) * GoldenInt(e, f)
        return self.level.reduce_pair(det.a, det.b)

    @classmethod
    def identity(cls, level: IdealHNF) -> ResMat:
        # zero is (0, 0) in every residue ring
        one = level.reduce_pair(1, 0)
        return cls(level, _pack(level, (*one, 0, 0, 0, 0, *one)))


@dataclass(frozen=True)
class QuotientGroup:
    """Fully enumerated image of the Hecke group modulo an ideal.

    Two fields: the level, and predecessor, the closure's dict from each
    element in BFS order to its BFS predecessor (None at the identity),
    both packed ints (`ResMat.key`).  `elements` (a new tuple per call)
    and `order` are read from that dict, and `coset_words` spells its
    chains.
    """

    level: IdealHNF
    predecessor: dict[int, int | None]

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(self.predecessor)

    @property
    def order(self) -> int:
        return len(self.predecessor)


def build_quotient(level: IdealHNF, cap: int = DEFAULT_CAP) -> QuotientGroup:
    """BFS closure of {S, T} images modulo the given ideal."""
    if level.norm < 2:
        raise ValueError("level must be a proper ideal (norm >= 2)")
    gen_keys = [ResMat.from_mat2(level, S).key, ResMat.from_mat2(level, T).key]
    return QuotientGroup(level, semigroup_closure(level, gen_keys, cap))


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


def minus_i_in_level(level: IdealHNF) -> bool:
    """-I = I mod A exactly when A divides (2), whose HNF is [2,0,2]."""
    return ideal_divides(level, IdealHNF(2, 0, 2))


def index_g(level: IdealHNF, index: int) -> int:
    """The level's index in the group mod +-I, from `index` = [H : H(level)]."""
    return index if minus_i_in_level(level) else index // 2


def coset_words(q: QuotientGroup) -> dict[int, str]:
    """{element: positive word in S and T evaluating to it}, in BFS order:
    each word is its predecessor's word, built earlier, plus one letter."""
    n = q.level.norm
    n2 = n * n
    words: dict[int, str] = {}
    for key, pred in q.predecessor.items():
        if pred is None:
            words[key] = ""
            continue
        # the letter taking a predecessor to its element: T keeps the first
        # column, the high digit of each packed row; S never does, since it
        # moves the second column there and a det-1 matrix has distinct columns
        top, bottom = divmod(key, n2)
        pred_top, pred_bottom = divmod(pred, n2)
        same = top // n == pred_top // n and bottom // n == pred_bottom // n
        words[key] = words[pred] + ("T" if same else "S")
    return words


@dataclass(frozen=True)
class SubgroupHandle:
    group: QuotientGroup
    members: frozenset[int]

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
    n = q.level.norm
    n2 = n * n
    # the digit of 1, the identity's lowest; a packed bottom row below N
    # has lower-left digit 0
    one = ResMat.identity(q.level).key % n
    members = [key for key in q.predecessor if key % n2 < n]
    if which == "H1":
        members = [key for key in members if key % n2 == one and key // (n2 * n) == one]
    return SubgroupHandle(q, frozenset(members))


def semigroup_closure(
    level: IdealHNF, gen_keys: list[int], cap: int | None = None
) -> dict[int, int | None]:
    """Deterministic BFS closure of the identity under right-multiplication.

    Returns an insertion-ordered dict from each element, in BFS order, to
    its predecessor (None at the identity); each element was first reached
    from its predecessor by the first generator, in `gen_keys` order, that
    reaches it.  In a finite group semigroup closure equals subgroup
    closure, so no inverses are needed.  Generators, elements and
    predecessors are packed ints (`ResMat.key`).  Raises CapExceededError
    once more than `cap` elements are found.

    A packed element is top * N^2 + bottom for its two packed rows, and
    the rows of u*g are the rows of u times g, so one table from a packed
    row to its products with all the generators turns each expansion into
    two lookups and one `map`.  The table is kept twice, scaled by N^2
    for a top row (`high`) and as is for a bottom row (`low`).  It is
    filled on a miss, one general row product per generator for each
    distinct row met, so it holds at most two rows per element and never
    an entry per residue of the level.
    """
    d1, k, d2 = level.d1, level.k, level.d2
    n = level.norm
    n2 = n * n
    gens = [_unpack(level, g) for g in gen_keys]
    # packed row -> its products with the generators, times N^2 or as is
    high: dict[int, tuple[int, ...]] = {}
    low: dict[int, tuple[int, ...]] = {}

    def expand(row: int) -> None:
        # a packed row is an element whose top row is zero
        r = _unpack(level, row)[4:]
        products = []
        for g in gens:
            x1, y1, x2, y2 = _row_mul(r, g, d1, k, d2)
            products.append((x1 * d2 + y1) * n + x2 * d2 + y2)
        low[row] = tuple(products)
        high[row] = tuple(p * n2 for p in products)

    identity = ResMat.identity(level).key
    predecessor: dict[int, int | None] = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for u in frontier:
            top, bottom = divmod(u, n2)
            try:
                successors = map(add, high[top], low[bottom])
            except KeyError:
                for row in (top, bottom):
                    if row not in low:
                        expand(row)
                successors = map(add, high[top], low[bottom])
            for w in successors:
                if w not in predecessor:
                    predecessor[w] = u
                    nxt.append(w)
                    if cap is not None and len(predecessor) > cap:
                        raise CapExceededError(cap, len(predecessor))
        frontier = nxt
    return predecessor


def subgroup_generated(q: QuotientGroup, gens: list[ResMat]) -> SubgroupHandle:
    for g in gens:
        if g.key not in q.predecessor:
            raise ValueError(f"generator {g.residues()} is not in the quotient")
    members = frozenset(semigroup_closure(q.level, [g.key for g in gens]))
    return SubgroupHandle(q, members)


def power_subgroup(q: QuotientGroup, k: int) -> SubgroupHandle:
    """Subgroup generated by all k-th powers (normal: the generating set
    is closed under conjugation).  Elements are powered in BFS order; a
    power outside the span joins the generators and the span is closed
    again, and the walk stops once the span is the whole group."""
    if k < 1:
        raise ValueError("power must be >= 1")
    members = {ResMat.identity(q.level).key}
    gens: list[int] = []
    for key in q.predecessor:
        p = (ResMat(q.level, key) ** k).key
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
            if (gen * ResMat(q.level, key) * inv).key not in sub.members:
                return False
    return True
