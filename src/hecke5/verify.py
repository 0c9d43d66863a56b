"""Machine verification of the finite-group computations and matrix
identities the index results rest on.

Every verifier recomputes its claim from scratch with exact arithmetic
and reports per-check pass/fail with the computed and expected values; a
failing check carries a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .golden import GoldenInt, lambda_power
from .ideals import TAU, IdealHNF, Key, ideal_from_generator
from .matrices import (
    IDENTITY,
    Mat2,
    S,
    T,
    is_member,
    parabolic_conjugate,
    translation,
)
from .quotient import (
    DEFAULT_CAP,
    Chain,
    ResMat,
    is_normal,
    power_subgroup,
    subgroup_generated,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    computed: str
    expected: str


@dataclass
class VerificationReport:
    name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, computed, expected) -> None:
        self.checks.append(
            CheckResult(name, computed == expected, str(computed), str(expected))
        )

    def add_bool(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, ok, detail or str(ok), "True"))


# generator set of the principal congruence subgroup at level (2)
LEVEL2_GENERATORS = (
    Mat2.from_ints([[(1, 0), (0, 2)], [(0, 0), (1, 0)]]),
    Mat2.from_ints([[(1, 0), (0, 0)], [(0, 2), (1, 0)]]),
    Mat2.from_ints([[(1, 2), (2, 2)], [(0, 2), (1, 2)]]),
    Mat2.from_ints([[(1, 2), (0, 2)], [(2, 2), (1, 2)]]),
)

# sample matrices used throughout the identity regressions; the third
# has determinant -L (not a member as it stands), and DET1_VARIANT is
# its unit-corrected det-1 form, used wherever a member is required
SAMPLE_MATRICES = (
    Mat2.from_ints([[(1, 2), (2, 2)], [(0, 2), (1, 2)]]),
    Mat2.from_ints([[(0, 1), (2, 1)], [(0, 1), (1, 2)]]),
    Mat2.from_ints([[(0, -1), (0, 1)], [(0, -2), (1, 2)]]),
    Mat2.from_ints([[(2, 3), (-3, -2)], [(3, 4), (-2, -4)]]),
)
DET1_VARIANT = Mat2.from_ints([[(-1, 0), (0, 1)], [(0, -2), (1, 2)]])

J = Mat2.from_ints([[(0, 0), (1, 0)], [(1, 0), (0, 0)]])


def _mod_equal(level: IdealHNF, m: Mat2, target: Mat2) -> bool:
    return ResMat.from_mat2(level, m) == ResMat.from_mat2(level, target)


def _delta_matrices() -> tuple[Mat2, Mat2, Mat2]:
    """Three elements of the level-(L+2) subgroup whose images generate
    the kernel of the map from the level-5 quotient down to level (L+2)."""
    a = (T ** -2) * SAMPLE_MATRICES[3]
    b = S * a * S.inverse()
    c = J * a * J
    return a, b, c


def _commute(level: IdealHNF, keys) -> bool:
    """Whether the elements with these keys commute pairwise."""
    mats = [ResMat(level, key) for key in keys]
    return all(a * b == b * a for a, b in combinations(mats, 2))


def _powers_trivial(level: IdealHNF, keys, p: int) -> bool:
    """Whether each element with these keys has p-th power I."""
    identity = ResMat.identity(level)
    return all(ResMat(level, g) ** p == identity for g in keys)


def elementary_abelian(level: IdealHNF, gen_keys, p: int) -> bool:
    """Whether the elements with these keys generate an abelian group of
    exponent dividing p: they commute pairwise and each has p-th power I.
    No other element needs a look: in an abelian group (gh)^p = g^p h^p,
    and the generators are elements of the group themselves."""
    return _commute(level, gen_keys) and _powers_trivial(level, gen_keys, p)


def kernel_layer_generators(p: int, n: int) -> tuple[IdealHNF, list[Key]]:
    """The level (p^(n+1)) and the keys of the six unipotent matrices at
    depth p^n: x_i, y_i and z_i for i = 0, 1."""
    level = ideal_from_generator(p ** (n + 1))
    pn = p**n
    xs, ys, zs = [], [], []
    for i in (0, 1):
        li = lambda_power(i)
        xs.append(Mat2(GoldenInt(1, 0), pn * li, GoldenInt(0, 0), GoldenInt(1, 0)))
        ys.append(Mat2(GoldenInt(1, 0), GoldenInt(0, 0), -pn * li, GoldenInt(1, 0)))
        zs.append(
            Mat2(
                GoldenInt(1, 0) - pn * lambda_power(i + 1),
                pn * lambda_power(i + 2),
                -pn * li,
                GoldenInt(1, 0) + pn * lambda_power(i + 1),
            )
        )
    return level, [ResMat.from_mat2(level, g).key for g in xs + ys + zs]


def verify_kernel_layer(p: int, n: int, cap: int = DEFAULT_CAP) -> VerificationReport:
    """The six unipotent matrices at depth p^n generate, modulo p^(n+1),
    an elementary abelian group of order p^6 with the expected upper- and
    lower-triangular subgroup structure.

    M, the part spanned by the first four generators (p^4 elements), and
    N, the part spanned by the last two (p^2 elements), are stabilizer
    chains (`Chain`), which walk at most p^4 points and list no group;
    the parts meet in the elements of N, each yielded once by its chain,
    that sift into M's.  Then M's chain is extended by N's generators
    (`Chain.extend`) to the whole group, walking only the edges M's walk
    has not.  `cap` bounds the chains' orbit points: CapExceededError is
    raised once one passes it, which happens exactly when the whole
    group's orbit of e1 does, M's and N's lying inside it."""
    report = VerificationReport(f"kernel-layer(p={p},n={n})")
    level, gen_keys = kernel_layer_generators(p, n)
    m_chain = Chain(level, cap, gen_keys[:4])
    n_chain = Chain(level, cap, gen_keys[4:])
    m_order = m_chain.order
    intersection = sum(key in m_chain for key in n_chain)
    m_chain.extend(gen_keys[4:])
    report.add("order", m_chain.order, p**6)
    # elementary abelian, with the pairwise commutation computed once
    commute = _commute(level, gen_keys)
    report.add_bool("generators-commute", commute)
    report.add_bool(
        "every-element-has-order-dividing-p", commute and _powers_trivial(level, gen_keys, p)
    )
    report.add("unipotent-part-order", m_order, p**4)
    report.add("diagonal-part-order", n_chain.order, p**2)
    report.add("parts-intersection", intersection, 1)
    return report


# conjugation actions of S, T and J on (r, s, t)-coordinates of the
# elementary abelian kernel at level 5, as row matrices over F_5
ACTION_MATRICES = {
    "S": ((0, 4, 0), (4, 0, 0), (0, 0, 4)),
    "T": ((1, 1, 2), (0, 1, 0), (0, 1, 1)),
    "J": ((0, 1, 0), (1, 0, 0), (0, 0, 4)),
}

# the T-action with the sign of the s-exponent in the first row flipped
# (i.e. r -> r s^-1 t^2 instead of r -> r s t^2); it differs from the
# conjugation action but leads to the same invariant-subspace count
T_ACTION_VARIANT = ((1, 4, 2), (0, 1, 0), (0, 1, 1))


def _coords_mod5(level: IdealHNF, g: Mat2) -> tuple[int, int, int]:
    """(i, j, k) with g = r^i s^j t^k inside the elementary abelian level
    quotient; entries of (g - I)/(L+2) are integers mod 5."""
    multiples = [level.reduce_pair(TAU.a * d, TAU.b * d) for d in range(5)]
    w = []
    for e, ident in zip(g.entries(), IDENTITY.entries()):
        diff = e - ident
        residue = level.reduce_pair(diff.a, diff.b)
        if residue not in multiples:
            raise ValueError(f"entry {e} is not I + (L+2)*integer mod 5")
        w.append(multiples.index(residue))
    w11, w12, w21, w22 = w
    # r, s, t have offset matrices 3*[[0,0],[1,0]], 3*[[0,1],[0,0]],
    # 3*[[-1,0],[0,1]]; invert with 3^-1 = 2 mod 5
    i, j, k = (2 * w21) % 5, (2 * w12) % 5, (2 * w22) % 5
    if w11 % 5 != (-3 * k) % 5:
        raise ValueError("inconsistent coordinates: not in <r, s, t>")
    return i, j, k


def _image(vec, mat) -> tuple[int, int, int]:
    """The row vector times the 3x3 row matrix, over F_5."""
    x, y, z = vec
    (a, b, c), (d, e, f), (g, h, i) = mat
    return (x * a + y * d + z * g) % 5, (x * b + y * e + z * h) % 5, (x * c + y * f + z * i) % 5


# the 31 lines of F_5^3, each by its vector with first nonzero coordinate 1
LINES = tuple(v for v in product(range(5), repeat=3) if next((x for x in v if x), 0) == 1)


def _invariant_sizes(actions) -> list[int]:
    """The sorted sizes of the subspaces of F_5^3 that every action maps
    into itself.  Besides 0 and F_5^3, each subspace is a line <v> or a
    plane v^perp = {w : w . v = 0}, one of each for each v in LINES.  <v>
    is invariant when each m sends v into <v>.  As (w m) . v = w . (v m^T),
    v^perp is invariant when each m^T does: then w . v = 0 gives
    (w m) . v = 0, and else some w in v^perp has w . (v m^T) != 0, the dot
    form being non-degenerate."""
    transposes = [tuple(zip(*m)) for m in actions]
    sizes = [1, 125]
    for v in LINES:
        line = {tuple(c * x % 5 for x in v) for c in range(5)}
        for size, maps in ((5, actions), (25, transposes)):
            if all(_image(v, m) in line for m in maps):
                sizes.append(size)
    return sorted(sizes)


def verify_conjugation_action() -> VerificationReport:
    """Cross-validate the (r, s, t) conjugation actions two ways, then
    show only the trivial and full subspaces are invariant.

    Each of the 64 subspaces of F_5^3 is 0, F_5^3, or a line or plane
    that one of the 31 vectors of `LINES` spans or is orthogonal to, so
    invariance is tested on those vectors alone (`_invariant_sizes`),
    under the derived actions and under the variant."""
    report = VerificationReport("conjugation-action")
    level = ideal_from_generator(5)
    a, b, c = _delta_matrices()
    r = (a * c) * (a * b)
    s = (a * c) * (a * b).inverse()
    t = b * c
    expected_offsets = {
        "r": Mat2(GoldenInt(1, 0), GoldenInt(0, 0), TAU * 3, GoldenInt(1, 0)),
        "s": Mat2(GoldenInt(1, 0), TAU * 3, GoldenInt(0, 0), GoldenInt(1, 0)),
        "t": Mat2(GoldenInt(1, 0) - TAU * 3, GoldenInt(0, 0), GoldenInt(0, 0), GoldenInt(1, 0) + TAU * 3),
    }
    for name, m in zip("rst", (r, s, t)):
        report.add_bool(
            f"{name}-offset-mod-5", _mod_equal(level, m, expected_offsets[name])
        )
    conjugators = {"S": S, "T": T, "J": J}
    derived = {}
    for gname, g in conjugators.items():
        rows = []
        for m in (r, s, t):
            conj = g * m * g.inverse()
            rows.append(_coords_mod5(level, conj))
        derived[gname] = tuple(rows)
        report.add(f"action-of-{gname}", derived[gname], ACTION_MATRICES[gname])
    report.add_bool(
        "T-action-differs-from-s-inverse-variant",
        derived["T"] != T_ACTION_VARIANT,
        detail="the variant negates the s-exponent; conjugation does not",
    )

    report.add("subspace-count", 2 + 2 * len(LINES), 64)
    invariant = _invariant_sizes(derived.values())
    report.add("invariant-subspaces", len(invariant), 2)
    report.add_bool("invariant-are-trivial-and-full", set(invariant) == {1, 125})
    variant = _invariant_sizes([derived["S"], T_ACTION_VARIANT, derived["J"]])
    report.add("invariant-subspaces-under-variant", len(variant), 2)
    return report


def verify_level5_structure(cap: int = DEFAULT_CAP) -> VerificationReport:
    """Sizes and structure of the level-5 quotient and its fifth-power
    subgroup, the finite facts behind the non-congruence argument, read
    from stabilizer chains (`Chain`): no group is listed, and `cap`
    bounds the quotient's orbit of e1, 600 points."""
    report = VerificationReport("level5-structure")
    level = ideal_from_generator(5)
    group = Chain(level, cap)
    report.add("quotient-order", group.order, 15000)
    delta = [ResMat.from_mat2(level, m).key for m in _delta_matrices()]
    inside = all(d in group for d in delta)
    report.add_bool("delta-in-quotient", inside)
    if not inside:
        # the checks below are of the subgroup that delta generates in it
        return report
    sub = subgroup_generated(group, delta)
    report.add("delta-subgroup-order", sub.order, 125)
    report.add_bool("delta-subgroup-normal", is_normal(sub))
    report.add_bool("delta-subgroup-elementary-abelian", elementary_abelian(level, delta, 5))
    # an index is exact: a subgroup order that does not divide the group
    # order fails the check with its fraction as the witness
    report.add("quotient-by-delta", Fraction(group.order, sub.order), 120)
    fifth = power_subgroup(group, 5)
    report.add("fifth-power-subgroup-index", Fraction(group.order, fifth.order), 1)
    in_fifth = all(ResMat.from_mat2(level, m).key in fifth for m in (S, T**5))
    report.add_bool("S-and-T5-in-fifth-powers", in_fifth)
    return report


def verify_identities(cap: int = DEFAULT_CAP) -> VerificationReport:
    """Regression suite over the individual matrix identities."""
    report = VerificationReport("identities")
    level2 = ideal_from_generator(2)
    level4 = ideal_from_generator(4)
    level5 = ideal_from_generator(5)
    level8 = ideal_from_generator(8)
    level9 = ideal_from_generator(9)
    level25 = ideal_from_generator(25)
    level_tau = ideal_from_generator(TAU)

    # the four level-(2) generators are members congruent to I mod (2)
    for i, m in enumerate(LEVEL2_GENERATORS):
        report.add_bool(f"level2-generator-{i}-member", is_member(m))
        report.add_bool(
            f"level2-generator-{i}-trivial-mod-2", _mod_equal(level2, m, IDENTITY)
        )

    # their image mod (4) is elementary abelian of order 16, each image
    # sifted into the quotient's chain, whose orbit of e1 has 80 points:
    # a cap below that stops the run here
    q4 = Chain(level4, cap)
    imgs = [ResMat.from_mat2(level4, m).key for m in LEVEL2_GENERATORS]
    outside = [g for g in imgs if g not in q4]
    order = f"generator {outside[0]} not in the quotient" if outside else subgroup_generated(q4, imgs).order
    report.add("level2-generators-mod4-order", order, 16)
    report.add_bool("level2-generators-mod4-exponent-2", elementary_abelian(level4, imgs, 2))

    # sample matrices: three are members; the third has det -L and its
    # unit-corrected det-1 variant is a member
    for i in (0, 1, 3):
        report.add_bool(f"sample-{i}-member", is_member(SAMPLE_MATRICES[i]))
    report.add("sample-2-det-is-minus-L", str(SAMPLE_MATRICES[2].det()), str(GoldenInt(0, -1)))
    report.add_bool("sample-2-det1-variant-member", is_member(DET1_VARIANT))

    # T recovered from coprime powers of itself
    for aa, bb in ((2, 3), (2, 5), (3, 5)):
        report.add_bool(
            f"translations-{aa}-{bb}-members",
            is_member(translation(aa)) and is_member(translation(bb)),
        )
        # m*aa + n*bb = 1, m the inverse of aa mod bb
        m = pow(aa, -1, bb)
        n = (1 - m * aa) // bb
        report.add(
            f"T-from-translations-{aa}-{bb}",
            str(translation(aa) ** m * translation(bb) ** n),
            str(T),
        )

    # the level-5 parabolic conjugate is a translation mod 25
    p5 = parabolic_conjugate(2 * lambda_power(2), 5 * lambda_power(3), 5)
    target5 = Mat2(GoldenInt(1, 0), GoldenInt(10, 0), GoldenInt(0, 0), GoldenInt(1, 0))
    report.add_bool("level5-parabolic-mod-25", _mod_equal(level25, p5, target5))
    lhs = 20 * lambda_power(5)
    report.add_bool(
        "20L^5-equals-60-mod-25", level25.reduce_pair(lhs.a, lhs.b) == level25.reduce_pair(60, 0)
    )

    # the basic level-(L+2) element, T^-2 times the fourth sample and the
    # first delta generator: explicit entries, membership and triviality
    # mod (L+2)
    a, b, c = _delta_matrices()
    stated_tau = Mat2.from_ints([[(-6, -11), (5, 10)], [(3, 4), (-2, -4)]])
    report.add("tau-level-element-matrix", str(a), str(stated_tau))
    report.add_bool("tau-level-element-member", is_member(a))
    report.add_bool("tau-level-element-trivial-mod-tau", _mod_equal(level_tau, a, IDENTITY))

    # congruences of the three delta generators mod 5
    delta_targets = {
        "a": Mat2(GoldenInt(1, 0) + TAU * 4, GoldenInt(0, 0), TAU * 4, GoldenInt(1, 0) + TAU),
        "b": Mat2(GoldenInt(1, 0) + TAU, TAU, GoldenInt(0, 0), GoldenInt(1, 0) + TAU * 4),
        "c": Mat2(GoldenInt(1, 0) + TAU, TAU * 4, GoldenInt(0, 0), GoldenInt(1, 0) + TAU * 4),
    }
    for name, m in zip("abc", (a, b, c)):
        report.add_bool(f"delta-{name}-mod5", _mod_equal(level5, m, delta_targets[name]))
        report.add_bool(f"delta-{name}-member", is_member(m))

    # a triple product that is a translation mod 8 and trivial mod 4
    lower = Mat2(GoldenInt(1, 0), GoldenInt(0, 0), GoldenInt(0, -4), GoldenInt(1, 0))
    p8 = lower * translation(-4) * LEVEL2_GENERATORS[2] ** 2
    target8 = Mat2(GoldenInt(1, 0), GoldenInt(4, 0), GoldenInt(0, 0), GoldenInt(1, 0))
    report.add_bool("triple-product-mod8", _mod_equal(level8, p8, target8))
    report.add_bool("triple-product-trivial-mod4", _mod_equal(level4, p8, IDENTITY))

    # quotient of two samples: explicit entries, det 1, membership, and
    # its inverse cube a translation mod 9
    a9 = SAMPLE_MATRICES[1] * DET1_VARIANT.inverse()
    stated9 = Mat2.from_ints([[(4, 9), (-3, -2)], [(6, 9), (-2, -3)]])
    report.add("sample-quotient-matrix", str(a9), str(stated9))
    report.add("sample-quotient-det", str(a9.det()), str(GoldenInt(1, 0)))
    report.add_bool("sample-quotient-member", is_member(a9))
    e3 = a9 ** -3
    target_e3 = Mat2(GoldenInt(1, 0), GoldenInt(3, 0), GoldenInt(0, 0), GoldenInt(1, 0))
    report.add_bool("sample-quotient-inverse-cube-mod9", _mod_equal(level9, e3, target_e3))

    # adjusted level-p parabolic is a translation mod p^2
    for p in (7, 11):
        level_p2 = ideal_from_generator(p * p)
        mp = translation(-20 * p) * parabolic_conjugate(
            2 * lambda_power(2), p * lambda_power(3), p
        )
        target = Mat2(GoldenInt(1, 0), GoldenInt(12 * p, 0), GoldenInt(0, 0), GoldenInt(1, 0))
        report.add_bool(f"adjusted-parabolic-p{p}-mod-p^2", _mod_equal(level_p2, mp, target))

    # parabolic conjugates at level m are members trivial mod (m)
    for p in (3, 5, 7):
        x = parabolic_conjugate(2 * lambda_power(2), p * lambda_power(3), p)
        level_p = ideal_from_generator(p)
        report.add_bool(f"parabolic-p{p}-member", is_member(x))
        report.add_bool(f"parabolic-p{p}-trivial-mod-p", _mod_equal(level_p, x, IDENTITY))
    return report


# `hecke5 verify <target>`: each target's reports from a cap, in the order
# `verify all` runs them
VERIFIERS = {
    "kernel-layers": lambda cap: [
        verify_kernel_layer(p, n, cap) for p, n in ((2, 1), (2, 2), (3, 1), (5, 1), (7, 1))
    ],
    "conjugation-action": lambda cap: [verify_conjugation_action()],
    "level5": lambda cap: [verify_level5_structure(cap)],
    "identities": lambda cap: [verify_identities(cap)],
}
