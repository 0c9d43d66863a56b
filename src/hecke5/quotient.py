"""Finite image of the Hecke group in SL(2, Z[L]/A).

Two engines, one per kind of question:

- Subgroups, every count and membership test (the index, and all of
  `verify`).  A subgroup given by generators is a `Chain`, a
  three-level stabilizer chain: the orbit of the line <e1> in
  P^1(O/A), then the units U' that the line's stabilizer puts on e1,
  then the translations K that fix e1.  Each of its orbits has about
  N(A) points, where the orbit of the column e1 itself has about
  N(A)^2; it never lists the group, yet answers its order (the cap
  bounds the orbit of e1, lines times |U'|), membership by a sift, and
  each element once when iterated.  By default the generators are the
  images of S and T (`_hecke_generators`), so the order is the index
  [H : H(A)] (`index_g` halves it unless -I = I mod A).
  A chain grows by generators (`Chain.extend`), walking only the edges
  it has not walked.  `subgroup_generated`, `power_subgroup` and
  `is_normal` work on chains.
- Elements and words, for `cosets` alone: `semigroup_closure`, the one
  breadth-first closure, from the identity under right-multiplication
  by the given generators (a finite group, so semigroup closure
  suffices and words use positive letters only).  It returns an
  insertion-ordered dict mapping each element to its BFS predecessor
  (the identity to None), at once the element set, the BFS order and
  the parent map.  `build_quotient` is that closure under the images
  of S and T, and `coset_words` streams its words in one BFS-order
  pass, keeping the words of one layer to spell the next.

An element has one form at every interface, its `Key` (`ideals.Key`):
the reduced pairs (x, y) of its four entries, row-major, a flat
8-tuple (the level is its own residue ring, see `IdealHNF.reduce_pair`).
It is `ResMat.key`, what a chain takes, sifts and yields, and what
`coset_words` yields and `cosets` prints.  The closure alone stores its
elements packed (`_pack`): the residue (x, y) of an entry is the digit
x*d2 + y in [0, N), N = N(A), and the four entries are the base-N
digits of one int, row-major, which keeps the listing of (11) small.
It takes `Key`s as generators, and `coset_words` decodes each element it
yields (`_unpack`).  The closure multiplies by table lookups on packed
rows, tables filled on demand, one general row product per generator
for each row that occurs, so nothing is sized by N(A) and a cap error
at a level of norm 10^10 comes as fast as at (2).

Residues are multiplied in one place, the level's `residue_ops`
(`IdealHNF.residue_ops`, built once per level object), whose fused
`matmul` and `adj` work on whole `Key`s; `ResMat`, the
closure's row tables and the chain all use it, and no `GoldenInt`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd, prod
from operator import add
from typing import Callable

from .formula import sl2_factor
from .golden import GoldenInt, format_element, power
from .ideals import IdealHNF, Key, Pair, ideal_divides, lattice_hnf
from .matrices import Mat2, S, T

DEFAULT_CAP = 5_000_000


class CapExceededError(RuntimeError):
    """A count passed `cap`; raised at its first excess, so `partial`, the
    count so far, is cap + 1: "more than cap"."""

    def __init__(self, cap: int, what: str = "quotient"):
        self.cap, self.partial = cap, cap + 1
        super().__init__(f"{what} exceeded cap {cap} (partial count {self.partial})")


def _pack(level: IdealHNF, key: Key) -> int:
    """The packed form of an element, as the closure stores it: the
    residue (x, y) of each entry is the digit x*d2 + y in [0, N),
    N = N(level), and the four entries are the base-N digits of one int,
    row-major.  Distinct keys pack apart."""
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


def _det(level: IdealHNF, key: Key) -> Pair:
    """The reduced pair of the determinant of a `Key`, ad - bc."""
    a, b, c, d, e, f, g, h = key
    return level.residue_ops[1]((a, b), (g, h), (-c, -d), (e, f))


@dataclass(frozen=True)
class ResMat:
    """A matrix over the residue ring of a level, keyed by its `Key`, the
    reduced pairs (x, y), x + yL, of its entries, row-major; its
    arithmetic is the level's `residue_ops`."""

    level: IdealHNF
    key: Key

    @classmethod
    def from_mat2(cls, level: IdealHNF, m: Mat2) -> ResMat:
        key = tuple(x for e in m.entries() for x in level.reduce_pair(e.a, e.b))
        return cls(level, key)  # type: ignore[arg-type]

    def __mul__(self, other: ResMat) -> ResMat:
        return ResMat(self.level, self.level.residue_ops[2](self.key, other.key))

    def __pow__(self, n: int) -> ResMat:
        return power(self if n >= 0 else self.inverse(), abs(n), ResMat.identity(self.level))

    def inverse(self) -> ResMat:
        # the adjugate, which is the inverse only when det is 1
        det = _det(self.level, self.key)
        if det != self.level.reduce_pair(1, 0):
            raise ValueError(
                f"det {format_element(GoldenInt(*det))} is not 1: the adjugate is no inverse"
            )
        return ResMat(self.level, self.level.residue_ops[3](self.key))

    @classmethod
    def identity(cls, level: IdealHNF) -> ResMat:
        # zero is (0, 0) in every residue ring
        one = level.reduce_pair(1, 0)
        return cls(level, (*one, 0, 0, 0, 0, *one))


def build_quotient(level: IdealHNF, cap: int = DEFAULT_CAP) -> dict[int, int | None]:
    """`semigroup_closure` of the images of S and T mod the level."""
    if level.norm < 2:
        raise ValueError("level must be a proper ideal (norm >= 2)")
    return semigroup_closure(level, _hecke_generators(level), cap)


def _hecke_generators(level: IdealHNF) -> list[Key]:
    """The images of S and T mod the level, in that order."""
    return [ResMat.from_mat2(level, S).key, ResMat.from_mat2(level, T).key]


def _line_form(power_ideal: IdealHNF) -> Callable[[Pair, Pair], int]:
    """The canonical form in P^1(O/P^e) of the line through a unimodular
    column (a, c), as one int below 2 N(P^e): the digit of a/c when c is
    a unit, else N(P^e) plus the digit of c/a.  P^e divides (N(P^e)) and
    y conj(y) = N(y), so x / y = x conj(y) N(y)^-1, N(y) inverted mod
    N(P^e) by the builtin `pow`.  A residue y reduced mod P^e is a unit
    exactly when N(y) is prime to N(P^e), which a `gcd` decides before
    any inverse is taken: at a split P a non-unit is zL, of norm -z^2;
    else P is its own conjugate.  The arithmetic is inlined, not called
    (`reduce_pair`, `mul`), as it runs on every edge of every chain walk:
    one reduction of the divisor and one of the product.  `power_ideal`
    is P^e, as `PrimeFactor.power` keeps it."""
    n, d1, k, d2 = power_ideal.norm, power_ideal.d1, power_ideal.k, power_ideal.d2

    def line_form(a: Pair, c: Pair) -> int:
        # the norm tells a unit only of a divisor reduced mod P^e
        x0, x1 = a
        q = c[0] // d1
        y0, y1 = c[0] - q * d1, (c[1] - q * k) % d2
        s = y0 * y0 + y0 * y1 - y1 * y1
        offset = 0
        if gcd(s, n) != 1:
            # c is no unit, so a is one: the form is N(P^e) + c/a
            x0, x1, offset = y0, y1, n
            q = a[0] // d1
            y0, y1 = a[0] - q * d1, (a[1] - q * k) % d2
            s = y0 * y0 + y0 * y1 - y1 * y1
        s = pow(s, -1, n)
        # x / y = x z for z = conj(y) N(y)^-1, reduced as `mul` reduces
        z0, z1 = (y0 + y1) * s, -y1 * s
        t = x0 * z0 + x1 * z1
        q = t // d1
        return offset + (t - q * d1) * d2 + (x0 * z1 + x1 * z0 + x1 * z1 - q * k) % d2

    return line_form


class _LineStabilizer:
    """G0, the stabilizer of the line <e1> mod a level, given by its
    generators [[u, b], [0, u^-1]] one at a time (`add`): U', the group
    of the u, with one lift [[u, b], [0, u^-1]] in G0 per u, kept as
    `lifts[u] = (b, u^-1)`, and K, the translations [[1, x], [0, 1]] of
    G0, kept as a lattice of Z^2 spanned with the level.

    A generator whose u lies outside U' so far joins `chosen`, and U' is
    extended by walking each new edge once; every other generator
    (`sift`), and every edge that meets a point already reached (a
    collision), is sifted through the lift of its u to a translation.  Conjugation by
    [[u, b], [0, u^-1]] scales a translation by u^2, so `translations`
    closes K under multiplication by u^2 for each chosen u.
    """

    def __init__(self, level: IdealHNF, cap: int):
        self.level, self.cap = level, cap
        self.mul, self.dot, *_ = level.residue_ops
        one = level.reduce_pair(1, 0)
        self.lifts: dict[Pair, tuple[Pair, Pair]] = {one: ((0, 0), one)}
        self.chosen: list[tuple[Pair, Pair, Pair]] = []
        self.lattice = (level.d1, level.k, level.d2)  # K's HNF triple

    def in_lattice(self, x: Pair) -> bool:
        f1, fk, f2 = self.lattice
        return x[0] % f1 == 0 and (x[1] - x[0] // f1 * fk) % f2 == 0

    def span(self, x: Pair) -> None:
        if not self.in_lattice(x):
            self.lattice = lattice_hnf([self.lattice[:2], (0, self.lattice[2]), x])

    def translation(self, u: Pair, b: Pair) -> Pair:
        # lift(u)^-1 [[u, b], [0, u^-1]] = [[1, u^-1 (b - b_lift)], [0, 1]];
        # mul takes the difference unreduced
        lift_b, u_inv = self.lifts[u]
        return self.mul(u_inv, (b[0] - lift_b[0], b[1] - lift_b[1]))

    def sift(self, u: Pair, b: Pair) -> None:
        # once K is every translation, no sift can change it
        if self.lattice != (1, 0, 1):
            self.span(self.translation(u, b))

    def add(self, u: Pair, b: Pair, u_inv: Pair, lines: int) -> None:
        """Add a generator whose u is new to U' (`sift` takes the others);
        raise CapExceededError once `lines` times |U'| exceeds the cap."""
        lifts, mul, dot = self.lifts, self.mul, self.dot
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


class Chain:
    """The group G that the generators `gen_keys` (`Key`s) span mod the
    level, acting on columns, as a stabilizer chain with base the line
    <e1> in P^1(O/A), then e1 (Sims 1970; Holt, Eick & O'Brien, Handbook
    of Computational Group Theory, 2005, 4.1 and 4.4).  `None` means the
    images of S and T, so G is the image of the Hecke group and its
    order is the index.  Every orbit walked has about N(A) points, not
    N(A)^2, whatever G is:

    - Lines.  The orbit of <e1> under the generators g, each line with
      one transversal matrix t whose first column lies on it: the line
      of g t_v is reached from the line v, with g t_v as its transversal
      if it is new.  A line is keyed by its local canonical forms over
      the P^e || A (`_line_form`).  A repeated line w = g v gives the
      Schreier generator t_w^-1 g t_v = [[u, b], [0, u^-1]] of G0, the
      stabilizer of <e1>: the upper-triangular elements of G.  The
      first row of adj(t_w) (g t_v) gives u and b, two `dot`s; u^-1,
      its lower right entry, is computed only when u is new to U'.
      The walk skips the edge back: if g^2 = +-I and g first reached w
      from v, then t_w = g t_v, so g t_w = +-t_v and the Schreier
      generator of the edge from w by g is +-I, the same for every such
      w; the first such edge per g is walked, the rest add nothing.
    - U' and K (`_LineStabilizer`).  The u of G0 form a group of units
      U', the orbit of e1 under G0, and K, the stabilizer of e1, is the
      group of translations [[1, x], [0, 1]] in G0, so |G0| = |U'| |K|.
      K is a lattice of Z^2 with the level (`lattice_hnf`), not always
      an ideal: for the Hecke group at (2) it is Z*2 + Z*L.
      |K| = N(A) / det.
    - The early stop.  G0 lies in the Borel group B of SL2(O/A), the
      [[u, b], [0, u^-1]] with u a unit, of order phi(A) N(A), where
      phi(A) = |(O/A)^x| = prod N(P)^(e-1) (N(P) - 1) over the P^e || A.
      Once |U'| = phi(A) and K's lattice is (1, 0, 1), every translation,
      |G0| = |U'| |K| = |B|, so G0 = B: a later Schreier generator lies
      in G0 already and changes neither U' nor K, and is not computed.
    - Extension.  `extend(gen_keys)` adds generators, and `__init__`
      extends the chain of no generator, the line <e1> alone, by its
      own: there is one walk, and it ends only when its queue does.
      Each new generator walks every line found so far, and every
      generator walks each line found during the extension, in the
      order found, so each (line, generator) edge is walked once, and
      from scratch this is the breadth-first walk.  U' and K only grow:
      a Schreier generator of G0 stays one as G grows.  The early stop
      holds: G0 lies in B whatever G is.
      `translations()` closes K's lattice under u^2 for the chosen u;
      closing again after more sifts gives the closure of all of them,
      the K of all the generators.

    `orbit` is lines * |U'|, `stabilizer` |K|, `order` |G| and
    `gen_keys` the generators, all of every generator added so far.
    `cap` bounds the orbit points, CapExceededError(cap, "orbit") as
    soon as lines times |U'| so far exceed it, so a group far larger
    than the cap can be counted; a chain whose extension raised it is
    part-walked and answers nothing.  A generator of determinant other
    than 1 is a ValueError, and leaves the chain as it was.  The line
    keys rest on `level.factors`, as the formula does, and
    `factor_ideal` raises unless they multiply back to the level: a
    wrong factorization cannot make the two agree silently.
    """

    def __init__(self, level: IdealHNF, cap: int = DEFAULT_CAP, gen_keys: list[Key] | None = None):
        if level.norm < 2:
            raise ValueError("level must be a proper ideal (norm >= 2)")
        self.level, self.cap = level, cap
        self.one = one = level.reduce_pair(1, 0)
        forms = [_line_form(pf.power) for pf in level.factors]
        radix = 2 * level.norm

        def line_key(a: Pair, c: Pair) -> int:
            key = 0
            for form in forms:
                key = key * radix + form(a, c)
            return key

        self.line_key = line_key
        self.units = _LineStabilizer(level, cap)
        # phi(A) = |(O/A)^x|: G0 is the Borel group once |U'| = phi(A)
        # and K is every translation (the early stop)
        self.phi = prod(pf.prime.norm ** (pf.exponent - 1) * (pf.prime.norm - 1) for pf in level.factors)
        self.borel = False
        self.gen_keys: list[Key] = []
        # each g with g^2 = +-I, by its place in gen_keys -> whether an edge
        # back along it has been walked (see the class docstring)
        self.walked_back: dict[int, bool] = {}
        identity, minus_one = (*one, 0, 0, 0, 0, *one), level.reduce_pair(-1, 0)
        self.plus_minus_one = (identity, (*minus_one, 0, 0, 0, 0, *minus_one))
        self.transversal = {line_key(one, (0, 0)): identity}  # line key -> t
        self.queue = [identity]
        self.via = [-1]  # the generator that first reached each line of the queue
        self.extend(_hecke_generators(level) if gen_keys is None else gen_keys)

    def extend(self, gen_keys: list[Key]) -> None:
        """Add the generators, walking only the edges not walked yet: the
        chain becomes that of all it has (see the class docstring)."""
        level = self.level
        _, dot, matmul, _ = level.residue_ops
        for g in gen_keys:
            if _det(level, g) != self.one:
                raise ValueError(f"generator {g} has a determinant other than 1")
        gens, walked_back = self.gen_keys, self.walked_back
        start = len(gens)
        for i, g in enumerate(gen_keys, start):
            if matmul(g, g) in self.plus_minus_one:
                walked_back[i] = False
        gens.extend(gen_keys)
        every = list(enumerate(gens))
        fresh = every[start:]
        stabilizer, transversal, queue, via = self.units, self.transversal, self.queue, self.via
        lifts, cap, line_key, phi, borel = stabilizer.lifts, self.cap, self.line_key, self.phi, self.borel
        get, sift = transversal.get, stabilizer.sift
        # the new generators on each line found so far, then every
        # generator on each line found now (see the class docstring)
        old = len(queue)
        for v, (t, came) in enumerate(zip(queue, via)):
            for i, g in fresh if v < old else every:
                if i == came and i in walked_back:
                    if walked_back[i]:
                        continue
                    walked_back[i] = True
                # g t, whose first column's line is the one g reaches from t's
                m = matmul(g, t)
                key = line_key(m[0:2], m[4:6])
                tw = get(key)
                if tw is None:
                    transversal[key] = m
                    queue.append(m)
                    via.append(i)
                    if len(queue) * len(lifts) > cap:
                        raise CapExceededError(cap, "orbit")
                    continue
                if borel:
                    continue
                # t_w^-1 g t = adj(t_w) m = [[u, b], [0, u^-1]], where
                # adj(t_w) = [[s, -q], [-r, p]] for t_w = [[p, q], [r, s]]
                p0, p1, q0, q1, r0, r1, s0, s1 = tw
                m0, m1, m2, m3, m4, m5, m6, m7 = m
                u = dot((s0, s1), (m0, m1), (-q0, -q1), (m4, m5))
                b = dot((s0, s1), (m2, m3), (-q0, -q1), (m6, m7))
                if u in lifts:
                    sift(u, b)
                else:
                    u_inv = dot((-r0, -r1), (m2, m3), (p0, p1), (m6, m7))
                    stabilizer.add(u, b, u_inv, len(queue))
                borel = len(lifts) == phi and stabilizer.lattice == (1, 0, 1)
        self.orbit = len(queue) * len(lifts)
        self.stabilizer = stabilizer.translations()
        self.order = self.orbit * self.stabilizer
        self.borel = borel

    def __contains__(self, g: Key) -> bool:
        """The sift of g: t, its line's transversal, then t^-1 g = [[u, b],
        [0, u^-1]] with u in U', then lift(u)^-1 t^-1 g in K."""
        level, units = self.level, self.units
        if _det(level, g) != self.one:
            return False
        t = self.transversal.get(self.line_key(g[0:2], g[4:6]))
        if t is None:
            return False
        _, _, matmul, adj = level.residue_ops
        x = matmul(adj(t), g)
        u = x[0:2]
        return u in units.lifts and units.in_lattice(units.translation(u, x[2:4]))

    def __iter__(self) -> Iterator[Key]:
        """Each element once, as t lift(u) [[1, x], [0, 1]], the
        lines varying fastest, then the units, then the translations."""
        level = self.level
        _, dot, matmul, _ = level.residue_ops
        f1, fk, f2 = self.units.lattice
        # K mod the level: x = i (f1, fk) + j (0, f2), i < d1 / f1, j < d2 / f2
        ij = [(i, j) for i in range(level.d1 // f1) for j in range(level.d2 // f2)]
        for x in (level.reduce_pair(i * f1, i * fk + j * f2) for i, j in ij):
            for u, (lift_b, u_inv) in self.units.lifts.items():
                # lift(u) [[1, x], [0, 1]] = [[u, u x + b_u], [0, u^-1]]
                h = (*u, *dot(u, x, lift_b, self.one), 0, 0, *u_inv)
                for t in self.transversal.values():
                    yield matmul(t, h)


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


def coset_words(level: IdealHNF, predecessor: dict[int, int | None]) -> Iterator[tuple[Key, str]]:
    """(element's `Key`, positive word in S and T evaluating to it) in the
    BFS order of `predecessor`, a closure of `build_quotient`: each word is
    its predecessor's word plus one letter.  A predecessor lies in the
    layer just before its element's, so only that layer's words are
    kept; an element whose predecessor is not among them starts a layer."""
    n = level.norm
    n3 = n**3
    previous: dict[int, str] = {}
    layer: dict[int, str] = {}
    for packed, pred in predecessor.items():
        if pred is None:
            word = ""
        else:
            if pred not in previous:
                previous, layer = layer, {}
            # the letter taking a predecessor to its element: T keeps the first
            # column, digits a and c of a N^3 + b N^2 + c N + d; S never does, since
            # it moves the second column there and a det-1 matrix has distinct columns
            same = packed // n3 == pred // n3 and packed // n % n == pred // n % n
            word = previous[pred] + ("T" if same else "S")
        layer[packed] = word
        yield _unpack(level, packed), word


def semigroup_closure(
    level: IdealHNF, gen_keys: list[Key], cap: int = DEFAULT_CAP
) -> dict[int, int | None]:
    """Deterministic BFS closure of the identity under right-multiplication.

    Returns an insertion-ordered dict from each element, in BFS order, to
    its predecessor (None at the identity); each element was first reached
    from its predecessor by the first generator, in `gen_keys` order, that
    reaches it.  In a finite group semigroup closure equals subgroup
    closure, so no inverse is needed.  The generators are `Key`s; the
    elements and predecessors are stored packed (`_pack`), the closure's
    own form, which `coset_words` decodes.  Raises CapExceededError once
    more than `cap` elements are found.

    A packed element is top * N^2 + bottom for its two packed rows, and
    the rows of u*g are the rows of u times g, so one table from a packed
    row to its products with all the generators turns each expansion into
    two lookups and one `map`.  The table is kept twice, scaled by N^2
    for a top row (`high`) and as is for a bottom row (`low`).  It is
    filled on a miss, one general row product per generator for each
    distinct row met, so it holds at most two rows per element and never
    an entry per residue of the level.
    """
    dot = level.residue_ops[1]
    n, d2 = level.norm, level.d2
    n2 = n * n
    gens = [(g[0:2], g[2:4], g[4:6], g[6:8]) for g in gen_keys]
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

    identity = _pack(level, ResMat.identity(level).key)
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
                    if len(predecessor) > cap:
                        raise CapExceededError(cap)
        frontier = nxt
    return predecessor


def subgroup_generated(group: Chain, gen_keys: list[Key]) -> Chain:
    """The chain of the generator `Key`s, each of which must sift into `group`."""
    for g in gen_keys:
        if g not in group:
            raise ValueError(f"generator {g} is not in the quotient")
    return Chain(group.level, gen_keys=gen_keys)


def power_subgroup(group: Chain, k: int) -> Chain:
    """Subgroup generated by all k-th powers (normal: the generating set
    is closed under conjugation), as the chain of the powers it needed:
    a power of an element of `group` that does not sift into the span
    extends it (`Chain.extend`, which walks only the new edges), until
    the span's order is the group's."""
    if k < 1:
        raise ValueError("power must be >= 1")
    span = Chain(group.level, gen_keys=[])
    for key in group:
        p = (ResMat(group.level, key) ** k).key
        if p not in span:
            span.extend([p])
            if span.order == group.order:
                break
    return span


def is_normal(sub: Chain) -> bool:
    """Whether the subgroup is normal in the image of the Hecke group:
    the S- and T-conjugates of its generators sift into it."""
    level = sub.level
    conjugators = [(g, g.inverse()) for g in (ResMat(level, k) for k in _hecke_generators(level))]
    return all((g * ResMat(level, k) * inv).key in sub for g, inv in conjugators for k in sub.gen_keys)
