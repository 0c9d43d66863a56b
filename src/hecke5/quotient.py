"""Finite image of the Hecke group in SL(2, Z[L]/A).

Two engines, one per kind of question:

- Counting.  The order of the image (the index [H : H(A)]) comes from
  `orbit_stabilizer`, a three-level stabilizer chain: the orbit of the
  line <e1> in P^1(O/A), then the units U' that the line's stabilizer
  puts on e1, then the translations K that fix e1.  Each of its orbits
  has about N(A) points, where the orbit of the column e1 itself has
  about N(A)^2, and it keeps one transversal matrix per line and one
  lift per unit.  `index_h` is the product of its two counts, and
  `index_g` halves that unless -I = I mod A.
- Elements and words.  `semigroup_closure` is the one breadth-first
  closure: from the identity under right-multiplication by the given
  generators (a finite group, so semigroup closure suffices and words
  use positive letters only).  It returns an insertion-ordered dict
  mapping each element to its BFS predecessor (the identity to None),
  which is at once the element set, the BFS order and the parent map.
  `build_quotient` is that closure under the images of S and T, kept
  with its level as a `QuotientGroup`, which the verifiers and
  `coset_words` (one BFS-order pass) read.  A subgroup is a closure
  too: `subgroup_generated` returns its generators' closure dict, and
  `power_subgroup` that of the powers it needed, powering elements in
  BFS order only until their span is the whole group.

An element has one form everywhere, its packed int (`_pack`): the
residue (x, y) of an entry (the level is its own residue ring, see
`IdealHNF.reduce_pair`) is the digit x*d2 + y in [0, N), N = N(A), and
the four entries are the base-N digits of one int, row-major.  It is
`ResMat.key` and every closure's keys and values, a subgroup's too,
which makes the enumeration deterministic, hashable and small.  Only
this module reads the digits: `ResMat` decodes its operands for its
arithmetic, and `ResMat.residues` gives the eight residue integers to
a caller that prints them.  (The chain does arithmetic on every
transversal matrix it keeps, so it keeps them decoded, as `Key`
tuples, and none leaves it.)  The closure multiplies by table lookups on
packed rows, tables filled on demand, one general row product per
generator for each row that occurs, so nothing is sized by N(A) and a
cap error at a level of norm 10^10 comes as fast as at (2).

Residues are multiplied in one place, `_residue_ops`; `ResMat`, the
closure's row tables and the chain all use it, and no `GoldenInt`.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from math import gcd, prod
from operator import add
from typing import Callable

from .formula import sl2_factor
from .golden import GoldenInt, format_element, power
from .ideals import IdealHNF, ideal_divides, lattice_hnf
from .matrices import Mat2, S, T

# the reduced pairs of the four entries, row-major: an element decoded
Key = tuple[int, int, int, int, int, int, int, int]

DEFAULT_CAP = 5_000_000


class CapExceededError(RuntimeError):
    """A count passed `cap`; raised at its first excess, so `partial`, the
    count so far, is cap + 1: "more than cap"."""

    def __init__(self, cap: int, what: str = "quotient"):
        self.cap, self.partial = cap, cap + 1
        super().__init__(f"{what} exceeded cap {cap} (partial count {self.partial})")


Pair = tuple[int, int]  # one residue (x, y), x + yL


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
        dot = _residue_ops(m)[2]
        # each entry is a row of u, at u[i : i + 4], dot a column of v
        entries = [
            dot(u[i : i + 2], v[j : j + 2], u[i + 2 : i + 4], v[j + 4 : j + 6])
            for i in (0, 4)
            for j in (0, 2)
        ]
        return ResMat(m, _pack(m, tuple(x for e in entries for x in e)))  # type: ignore[arg-type]

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
        red, _, dot = _residue_ops(self.level)
        a, b, c, d, e, f, g, h = self.residues()
        return dot((a, b), (g, h), red(-c, -d), (e, f))

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
    both packed ints (`ResMat.key`).  `order` is read from that dict, and
    `coset_words` spells its chains.
    """

    level: IdealHNF
    predecessor: dict[int, int | None]

    @property
    def order(self) -> int:
        return len(self.predecessor)


def build_quotient(level: IdealHNF, cap: int = DEFAULT_CAP) -> QuotientGroup:
    """BFS closure of {S, T} images modulo the given ideal."""
    if level.norm < 2:
        raise ValueError("level must be a proper ideal (norm >= 2)")
    gen_keys = [ResMat.from_mat2(level, S).key, ResMat.from_mat2(level, T).key]
    return QuotientGroup(level, semigroup_closure(level, gen_keys, cap))


def _residue_ops(m: IdealHNF):
    """The one arithmetic of O/m in this module, on residues (x, y) =
    x + yL with L^2 = L + 1 and `reduce_pair` inlined: `red(x, y)`, the
    residue of x + yL; `mul(x, y)`, the product xy; and `dot(x, y, z, w)`,
    xy + zw, an entry of a matrix product.  The operands are any integer
    pairs; the results are reduced."""
    d1, k, d2 = m.d1, m.k, m.d2

    def red(x: int, y: int) -> Pair:
        q = x // d1
        return x - q * d1, (y - q * k) % d2

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

    return red, mul, dot


def _line_form(power_ideal: IdealHNF) -> Callable[[Pair, Pair], int]:
    """The canonical form in P^1(O/P^e) of the line through a unimodular
    column (a, c), as one int below 2 N(P^e): (a/c, 1) when c is a unit,
    else (1, c/a).  P^e divides (N(P^e)) and y conj(y) = N(y), so x / y =
    x conj(y) N(y)^-1, N(y) inverted mod N(P^e) by the builtin `pow`.  A
    residue y reduced mod P^e is a unit exactly when gcd(N(y), N(P^e)) =
    1: at a split P it is zL, of norm -z^2; else P is its own conjugate.
    `power_ideal` is P^e, as `PrimeFactor.power` keeps it."""
    n, d2 = power_ideal.norm, power_ideal.d2
    red, mul, _ = _residue_ops(power_ideal)

    def ratio(x: Pair, y: Pair) -> int | None:
        # the digit x*d2 + y of x / y, or None when y is no unit
        y0, y1 = y
        norm = y0 * y0 + y0 * y1 - y1 * y1
        if gcd(norm, n) != 1:
            return None
        s = pow(norm, -1, n)
        x0, x1 = mul(x, ((y0 + y1) * s, -y1 * s))
        return x0 * d2 + x1

    def line_form(a: Pair, c: Pair) -> int:
        # the norm tells a unit only of a divisor reduced mod P^e; mul reduces x
        r = ratio(a, red(*c))
        return n + ratio(c, red(*a)) if r is None else r  # type: ignore[operator]

    return line_form


class _LineStabilizer:
    """G0, the stabilizer of the line <e1> mod a level, given by its
    generators [[u, b], [0, u^-1]] one at a time (`add`): U', the group
    of the u, with one lift [[u, b], [0, u^-1]] in G0 per u, kept as
    `lifts[u] = (b, u^-1)`, and K, the translations [[1, x], [0, 1]] of
    G0, kept as a lattice of Z^2 spanned with the level.

    A generator whose u lies outside U' so far joins `chosen`, and U' is
    extended by walking each new edge once; every other generator, and
    every edge that meets a point already reached (a collision), is
    sifted through the lift of its u to a translation.  Conjugation by
    [[u, b], [0, u^-1]] scales a translation by u^2, so `translations`
    closes K under multiplication by u^2 for each chosen u.
    """

    def __init__(self, level: IdealHNF, cap: int):
        self.level, self.cap = level, cap
        self.red, self.mul, self.dot = _residue_ops(level)
        one = self.red(1, 0)
        self.lifts: dict[Pair, tuple[Pair, Pair]] = {one: ((0, 0), one)}
        self.chosen: list[tuple[Pair, Pair, Pair]] = []
        self.lattice = (level.d1, level.k, level.d2)  # K's HNF triple

    def span(self, x: Pair) -> None:
        f1, fk, f2 = self.lattice
        q = x[0] // f1
        if x[0] - q * f1 or (x[1] - q * fk) % f2:
            self.lattice = lattice_hnf([(f1, fk), (0, f2), x])

    def sift(self, u: Pair, b: Pair) -> None:
        # lift(u)^-1 [[u, b], [0, u^-1]] = [[1, u^-1 (b - b_lift)], [0, 1]]
        lift_b, u_inv = self.lifts[u]
        self.span(self.mul(u_inv, self.red(b[0] - lift_b[0], b[1] - lift_b[1])))

    def add(self, u: Pair, b: Pair, u_inv: Pair, lines: int) -> None:
        """Add a generator; raise CapExceededError once `lines` times
        |U'| exceeds the cap."""
        lifts = self.lifts
        if u in lifts:
            self.sift(u, b)
            return
        mul, dot = self.mul, self.dot
        chosen = self.chosen
        chosen.append((u, b, u_inv))
        # the new generator on every old point, every generator on every
        # new point: each edge is walked once, from its point's final lift
        pending = [(p, chosen[-1:]) for p in lifts]
        for p, gens in pending:
            p_b, p_inv = lifts[p]
            for g_u, g_b, g_inv in gens:
                # lift(p) g = [[p g_u, p g_b + p_b g_inv], [0, p_inv g_inv]]
                q, q_b = mul(p, g_u), dot(p, g_b, p_b, g_inv)
                if q in lifts:
                    self.sift(q, q_b)
                    continue
                lifts[q] = (q_b, mul(p_inv, g_inv))
                pending.append((q, chosen))
                if lines * len(lifts) > self.cap:
                    raise CapExceededError(self.cap, "orbit")

    def translations(self) -> int:
        """|K|, once every generator is added."""
        squares = [self.mul(u, u) for u, _, _ in self.chosen]
        grown = True
        while grown:
            before = self.lattice
            for sq in squares:
                f1, fk, f2 = self.lattice
                self.span(self.mul((f1, fk), sq))
                self.span(self.mul((0, f2), sq))
            grown = self.lattice != before
        return self.level.norm // (self.lattice[0] * self.lattice[2])


def orbit_stabilizer(level: IdealHNF, cap: int = DEFAULT_CAP) -> tuple[int, int]:
    """(|orbit of e1|, |stabilizer of e1|) for the image G of the group
    mod the level acting on columns; their product is the image's order.

    Counted through a stabilizer chain with base the line <e1> in
    P^1(O/A), then e1 (Sims 1970; Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, 4.1 and 4.4), so every orbit it
    walks has about N(A) points, not N(A)^2:

    - Lines.  The orbit of <e1> under S and T, each line with one
      transversal matrix t whose first column lies on it.  A line is
      keyed by its local canonical forms over the P^e || A
      (`_line_form`).  A repeated line w = g v gives the Schreier
      generator t_w^-1 g t_v = [[u, b], [0, u^-1]] of G0, the
      stabilizer of <e1>.
    - U' and K (`_LineStabilizer`).  The u of G0 form a group of units
      U', the orbit of e1 under G0, and K, the stabilizer of e1, is the
      group of translations [[1, x], [0, 1]] in G0.  K is a lattice of
      Z^2 with the level (`lattice_hnf`), not always an ideal: at (2)
      it is Z*2 + Z*L.  |K| = N(A) / det.

    The orbit of e1 has lines * |U'| points, and `cap` bounds that count:
    CapExceededError(cap) is raised as soon as the lines so far times |U'|
    so far exceed it, checked whenever either grows.  The line keys rest
    on `level.factors`, as the formula does, and `factor_ideal` raises
    unless they multiply back to the level: a wrong factorization cannot
    make the two agree silently.
    """
    if level.norm < 2:
        raise ValueError("level must be a proper ideal (norm >= 2)")
    red, _, dot = _residue_ops(level)
    forms = [_line_form(pf.power) for pf in level.factors]
    radix = 2 * level.norm

    def line_key(a: Pair, c: Pair) -> int:
        key = 0
        for form in forms:
            key = key * radix + form(a, c)
        return key

    stabilizer = _LineStabilizer(level, cap)
    one = red(1, 0)
    identity: Key = (*one, 0, 0, 0, 0, *one)
    transversal = {line_key(one, (0, 0)): identity}  # line key -> t
    queue = [identity]
    for ax, ay, bx, by, cx, cy, dx, dy in queue:
        # S t = [[-c, -d], [a, b]]; T t = [[a + Lc, b + Ld], [c, d]],
        # with L (x + yL) = y + (x + y)L
        for m in (
            (*red(-cx, -cy), *red(-dx, -dy), ax, ay, bx, by),
            (*red(ax + cy, ay + cx + cy), *red(bx + dy, by + dx + dy), cx, cy, dx, dy),
        ):
            m11, m12, m21, m22 = m[0:2], m[2:4], m[4:6], m[6:8]
            key = line_key(m11, m21)
            tw = transversal.get(key)
            if tw is None:
                transversal[key] = m
                queue.append(m)
                if len(queue) * len(stabilizer.lifts) > cap:
                    raise CapExceededError(cap, "orbit")
                continue
            # t_w^-1 = [[d_w, -b_w], [-c_w, a_w]], and t_w^-1 m = [[u, b], [0, u^-1]]
            aw, nbw, ncw, dw = tw[0:2], red(-tw[2], -tw[3]), red(-tw[4], -tw[5]), tw[6:8]
            u, b, u_inv = dot(dw, m11, nbw, m21), dot(dw, m12, nbw, m22), dot(aw, m22, ncw, m12)
            stabilizer.add(u, b, u_inv, len(queue))
    return len(queue) * len(stabilizer.lifts), stabilizer.translations()


def index_h(level: IdealHNF, cap: int = DEFAULT_CAP) -> int:
    """[H : H(level)], counted by `orbit_stabilizer`; `cap` bounds orbit points."""
    orbit, stabilizer = orbit_stabilizer(level, cap)
    return orbit * stabilizer


def sl2_order(level: IdealHNF) -> int:
    """|SL(2, Z[L]/A)|: the product of the SL2 factors of the P^e || A."""
    if level.norm < 2:
        raise ValueError("level must be a proper ideal (norm >= 2)")
    return prod(sl2_factor(pf.prime.norm, pf.exponent) for pf in level.factors)


def index_g(level: IdealHNF, index: int) -> int:
    """The level's index in the group mod +-I, from `index` = [H : H(level)]:
    halved unless -I = I mod A, which holds exactly when A divides (2),
    whose HNF is [2,0,2]."""
    return index if ideal_divides(level, IdealHNF(2, 0, 2)) else index // 2


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


def semigroup_closure(
    level: IdealHNF, gen_keys: list[int], cap: int | None = None
) -> dict[int, int | None]:
    """Deterministic BFS closure of the identity under right-multiplication.

    Returns an insertion-ordered dict from each element, in BFS order, to
    its predecessor (None at the identity); each element was first reached
    from its predecessor by the first generator, in `gen_keys` order, that
    reaches it.  In a finite group semigroup closure equals subgroup
    closure, so no inverse is needed.  Generators, elements and
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
    dot = _residue_ops(level)[2]
    n, d2 = level.norm, level.d2
    n2 = n * n
    gens = [(g[0:2], g[2:4], g[4:6], g[6:8]) for g in (_unpack(level, g) for g in gen_keys)]
    # packed row -> its products with the generators, times N^2 or as is
    high: dict[int, tuple[int, ...]] = {}
    low: dict[int, tuple[int, ...]] = {}

    def expand(row: int) -> None:
        # a packed row is two base-N digits, each residue x*d2 + y
        first, second = divmod(row, n)
        r1, r2 = divmod(first, d2), divmod(second, d2)
        products = []
        for g11, g12, g21, g22 in gens:
            x1, y1 = dot(r1, g11, r2, g21)
            x2, y2 = dot(r1, g12, r2, g22)
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
                        raise CapExceededError(cap)
        frontier = nxt
    return predecessor


def subgroup_generated(q: QuotientGroup, gens: list[ResMat]) -> dict[int, int | None]:
    """The subgroup the generators span, as their `semigroup_closure`."""
    for g in gens:
        if g.key not in q.predecessor:
            raise ValueError(f"generator {g.residues()} is not in the quotient")
    return semigroup_closure(q.level, [g.key for g in gens])


def power_subgroup(q: QuotientGroup, k: int) -> dict[int, int | None]:
    """Subgroup generated by all k-th powers (normal: the generating set
    is closed under conjugation), as the closure of the powers it needed.
    Elements are powered in BFS order; a power outside the span joins the
    generators and the span is closed again, and the walk stops once the
    span is the whole group."""
    if k < 1:
        raise ValueError("power must be >= 1")
    members: dict[int, int | None] = {ResMat.identity(q.level).key: None}
    gens: list[int] = []
    for key in q.predecessor:
        p = (ResMat(q.level, key) ** k).key
        if p not in members:
            gens.append(p)
            members = semigroup_closure(q.level, gens)
            if len(members) == q.order:
                break
    return members


def is_normal(level: IdealHNF, members: Collection[int]) -> bool:
    """Whether the subgroup with these members (packed ints) is normal in
    the image: conjugation-stability under S and T suffices."""
    for gen in (ResMat.from_mat2(level, S), ResMat.from_mat2(level, T)):
        inv = gen.inverse()
        for key in members:
            if (gen * ResMat(level, key) * inv).key not in members:
                return False
    return True
