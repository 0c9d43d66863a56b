import hashlib
import math
import random
from functools import cache, reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hecke5.formula import index_formula
from hecke5.golden import GoldenInt
from hecke5 import ideals as ideals_mod
from hecke5.ideals import (
    IdealHNF,
    _residue_ops,
    ideal_from_generator,
    ideal_mul,
    ideals_up_to,
    lattice_hnf,
    split_rational_prime,
)
from hecke5 import quotient as quotient_mod
from hecke5.matrices import IDENTITY, Mat2, S, T, eval_word
from hecke5.quotient import (
    DEFAULT_CAP,
    CapExceededError,
    Chain,
    Key,
    ResMat,
    _LineStabilizer,
    _det,
    _line_form,
    _pack,
    _unpack,
    build_quotient,
    coset_words,
    index_g,
    is_normal,
    power_subgroup,
    semigroup_closure,
    sl2_order,
    subgroup_generated,
)

from hecke5.verify import _delta_matrices, kernel_layer_generators

from conftest import random_word, run_python_O
from test_acceptance import BASE_LEVELS

TAU = GoldenInt(2, 1)


def decoded(level: IdealHNF, closure) -> list[Key]:
    """The `Key`s of a closure's packed elements, in its order."""
    return [_unpack(level, key) for key in closure]


def chain_counts(
    level: IdealHNF, cap: int = DEFAULT_CAP, gen_keys: list[Key] | None = None
) -> tuple[int, int]:
    """(|orbit of e1|, |stabilizer of e1|) as the level's `Chain` counts
    them; their product is its order."""
    chain = Chain(level, cap, gen_keys)
    assert chain.order == chain.orbit * chain.stabilizer
    return chain.orbit, chain.stabilizer


@pytest.fixture
def line_form_calls(monkeypatch):
    """The (a, c) of every call of a line form built after the fixture, in
    order: one per line key at a level with one prime power."""
    calls = []
    line_form = quotient_mod._line_form

    def counted_form(power_ideal):
        form = line_form(power_ideal)

        def counted(a, c):
            calls.append((a, c))
            return form(a, c)

        return counted

    monkeypatch.setattr(quotient_mod, "_line_form", counted_form)
    return calls


@pytest.fixture
def schreier_calls(monkeypatch):
    """The (u, b) of every sift and `add` into a line stabilizer after the
    fixture, the chain's or `reference_walk`'s: one per Schreier
    generator computed, and one per sift of a collision inside `add`."""
    calls = []
    for cls, name in ((_LineStabilizer, "sift"), (_LineStabilizer, "add"), (_ReferenceStabilizer, "sift")):

        def counted(self, u, b, *rest, method=getattr(cls, name)):
            calls.append((u, b))
            return method(self, u, b, *rest)

        monkeypatch.setattr(cls, name, counted)
    return calls


class TestBuildQuotient:
    @pytest.mark.parametrize(
        "gen,order",
        [
            (2, 10),
            (3, 120),
            (TAU, 120),
            (4, 320),
            (5, 15000),
            (GoldenInt(3, 1), 1320),
        ],
    )
    def test_orders(self, quotient_cache, gen, order):
        assert len(quotient_cache(gen)) == order

    def test_elements_unique_and_start_at_identity(self, quotient_cache):
        q = quotient_cache(3)
        assert len(set(q)) == len(q)
        level = ideal_from_generator(3)
        assert _unpack(level, next(iter(q))) == ResMat.identity(level).key

    def test_deterministic(self, quotient_cache):
        q1 = quotient_cache(3)
        q2 = build_quotient(ideal_from_generator(3))
        assert list(q1) == list(q2)

    def test_bfs_order_pinned(self, quotient_cache):
        q, level = quotient_cache(5), ideal_from_generator(5)
        # the digest of the elements as 8-tuples of residues, in BFS order
        elements = tuple(decoded(level, q))
        assert (
            hashlib.sha256(repr(elements).encode()).hexdigest()
            == "2c5f1c5395ca59f22be72fd0b1fdaf56d4d1ab93d56174009467d31c593da1e5"
        )

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            build_quotient(IdealHNF(1, 0, 1))

    def test_cap_error_carries_partial(self):
        with pytest.raises(CapExceededError) as exc:
            build_quotient(ideal_from_generator(5), cap=100)
        assert exc.value.cap == 100
        assert exc.value.partial == 101

    def test_closure_under_product(self, quotient_cache):
        q, level = quotient_cache(TAU), ideal_from_generator(TAU)
        rng = random.Random(1)
        keys = decoded(level, q)
        members = set(keys)
        for _ in range(100):
            u = ResMat(level, rng.choice(keys))
            v = ResMat(level, rng.choice(keys))
            assert (u * v).key in members
            assert u.inverse().key in members

    def test_all_elements_have_det_one(self, quotient_cache):
        q, level = quotient_cache(4), ideal_from_generator(4)
        one = level.reduce_pair(1, 0)
        assert all(_det(level, k) == one for k in decoded(level, q))


class TestResMatInverse:
    def test_inverse(self, quotient_cache):
        q, level = quotient_cache(TAU), ideal_from_generator(TAU)
        ident = ResMat.identity(level)
        for key in decoded(level, q)[:50]:
            m = ResMat(level, key)
            assert m * m.inverse() == ident == m.inverse() * m

    def test_det_not_one_rejected_under_python_O(self):
        # SAMPLE_MATRICES[2] has det -L, which is not 1 mod 5
        proc = run_python_O(
            "-c",
            "from hecke5.ideals import ideal_from_generator\n"
            "from hecke5.quotient import ResMat\n"
            "from hecke5.verify import SAMPLE_MATRICES\n"
            "m = ResMat.from_mat2(ideal_from_generator(5), SAMPLE_MATRICES[2])\n"
            "try:\n"
            "    m.inverse()\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n",
        )
        assert proc.returncode == 0, proc
        # -L is 0+4L mod 5, printed as an element literal
        assert proc.stdout == "ValueError: det 0+4L is not 1: the adjugate is no inverse\n"


class TestResMatPower:
    def test_matches_repeated_product(self, quotient_cache):
        q, level = quotient_cache(TAU), ideal_from_generator(TAU)
        ident = ResMat.identity(level)
        for key in decoded(level, q)[:: len(q) // 12]:
            m = ResMat(level, key)
            for n in range(-7, 8):
                product = ident
                for _ in range(abs(n)):
                    product = product * (m if n > 0 else m.inverse())
                assert m**n == product, (key, n)

    def test_a_power_builds_the_level_arithmetic_once(self, monkeypatch):
        # a chain, the inverse's determinant and adjugate, every product of
        # the square-and-multiply and a closure's row tables all read the
        # one `residue_ops` that the level object keeps
        expected = ResMat.from_mat2(ideal_from_generator(7), S * T).inverse() ** 12
        calls = []
        residue_ops = ideals_mod._residue_ops

        def counted(level):
            calls.append(level)
            return residue_ops(level)

        monkeypatch.setattr(ideals_mod, "_residue_ops", counted)
        level = ideal_from_generator(7)
        m = ResMat.from_mat2(level, S * T)
        assert Chain(level).order == 117600
        assert m**-12 == expected
        assert len(semigroup_closure(level, [m.key])) == 5  # ST has order 5 mod (7)
        # the chain's line forms read that of each P^e || level, another object
        powers = [pf.power for pf in level.factors]
        assert sum(c is level for c in calls) == 1
        assert all(c is level or any(c is power for power in powers) for c in calls)


def golden_entries(m: ResMat) -> list[GoldenInt]:
    r = m.key
    return [GoldenInt(r[i], r[i + 1]) for i in range(0, 8, 2)]


class TestResMatArithmetic:
    """The product and determinant against `GoldenInt` arithmetic reduced
    entrywise, on elements of the group and on arbitrary matrices."""

    @pytest.mark.parametrize("gen", [4, 9, GoldenInt(3, 1)], ids=str)
    @given(data=st.data())
    def test_product_and_det_match_golden_arithmetic(self, quotient_cache, gen, data):
        q, level = quotient_cache(gen), ideal_from_generator(gen)
        matrix = st.one_of(st.sampled_from(list(q)), st.integers(0, level.norm**4 - 1))
        x, y = (ResMat(level, _unpack(level, data.draw(matrix))) for _ in range(2))
        (a, b, c, d), (e, f, g, h) = golden_entries(x), golden_entries(y)
        product = [a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h]
        expected = tuple(r for p in product for r in level.reduce_pair(p.a, p.b))
        assert (x * y).key == expected
        det = a * d - b * c
        assert _det(level, x.key) == level.reduce_pair(det.a, det.b)


def column_walk(level: IdealHNF) -> tuple[int, int]:
    """(|orbit of e1|, |stabilizer of e1|) as the count was made before
    the stabilizer chain: walk the orbit of the column e1,
    about N(A)^2 points, keeping one transversal second column per point,
    and span the translations of its Schreier generators; the reference
    for the chain."""
    d1, k, d2 = level.d1, level.k, level.d2

    def red(x: int, y: int) -> tuple[int, int]:
        q = x // d1
        return x - q * d1, (y - q * k) % d2

    one = red(1, 0)
    e1 = (*one, 0, 0)
    column = {e1: (0, 0, *one)}
    queue = [e1]
    bs = set()
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


class TestResidueOps:
    """`mul` and `dot` on any integer pairs equal `reduce_pair` of
    the same expression computed in `GoldenInt`."""

    @given(
        level=st.sampled_from(ideals_up_to(200)),
        pairs=st.lists(st.tuples(st.integers(), st.integers()), min_size=4, max_size=4),
    )
    def test_match_golden_arithmetic(self, level, pairs):
        mul, dot, _, _ = _residue_ops(level)
        x, y, z, w = pairs
        gx, gy, gz, gw = (GoldenInt(*p) for p in pairs)

        def reduced(g):
            return level.reduce_pair(g.a, g.b)

        assert mul(x, y) == reduced(gx * gy)
        assert dot(x, y, z, w) == reduced(gx * gy + gz * gw)

    @given(
        level=st.sampled_from(ideals_up_to(200)),
        pairs=st.lists(st.tuples(st.integers(), st.integers()), min_size=8, max_size=8),
    )
    def test_fused_product_and_adjugate_match_mat2_arithmetic(self, level, pairs):
        # matrices as flat 8-tuples of any integers, against `Mat2` on the
        # same entries reduced by `reduce_pair`
        _, _, matmul, adj = _residue_ops(level)
        x, y = (tuple(v for p in half for v in p) for half in (pairs[:4], pairs[4:]))
        mx, my = (Mat2(*(GoldenInt(*p) for p in half)) for half in (pairs[:4], pairs[4:]))

        def reduced(m):
            return tuple(v for e in m.entries() for v in level.reduce_pair(e.a, e.b))

        assert matmul(x, y) == reduced(mx * my)
        assert adj(x) == reduced(Mat2(mx.a22, -mx.a12, -mx.a21, mx.a11))
        # x adj(x) = det(x) I, with the operands reduced or not
        det = level.reduce_pair(mx.det().a, mx.det().b)
        assert matmul(x, adj(x)) == matmul(reduced(mx), adj(x)) == (*det, 0, 0, 0, 0, *det)


# Every prime power P^e of norm <= 64: the inert (2)^e and (3), (7), the
# ramified (2+L)^e and both primes above each split p <= 61
LINE_FORM_CASES = [
    *((IdealHNF(2, 0, 2), e) for e in (1, 2, 3)),
    (IdealHNF(3, 0, 3), 1),
    (IdealHNF(7, 0, 7), 1),
    *((ideal_from_generator(GoldenInt(2, 1)), e) for e in (1, 2)),
    *((pf.prime, 1) for p in (11, 19, 29, 31, 41, 59, 61) for pf in split_rational_prime(p)),
]


class TestLineForm:
    @pytest.mark.parametrize(
        "prime,e", LINE_FORM_CASES, ids=[f"{prime}^{e}" for prime, e in LINE_FORM_CASES]
    )
    def test_one_value_per_line(self, prime, e):
        # on the unimodular columns (a, c), each value of the form is taken
        # on exactly one line {(ua, uc) : u a unit}, and there are
        # N(P^e) (1 + 1/N(P)) lines; the units are the residues outside P
        power_ideal = reduce(ideal_mul, [prime] * e)
        n, d1, k = power_ideal.norm, power_ideal.d1, power_ideal.k
        residues = [(x, y) for x in range(d1) for y in range(power_ideal.d2)]
        units = {r for r in residues if not prime.contains(*r)}

        def mul(u, x):
            p = GoldenInt(*u) * GoldenInt(*x)
            return power_ideal.reduce_pair(p.a, p.b)

        form = _line_form(power_ideal)
        lines: dict[int, set] = {}
        for a in residues:
            for c in residues:
                if a in units or c in units:
                    # the chain passes residues mod the level, not mod P^e:
                    # shift a and c by (d1, k), the first basis row of P^e
                    value = form((a[0] + d1, a[1] + k), (c[0] + d1, c[1] + k))
                    lines.setdefault(value, set()).add((a, c))
        assert all(0 <= value < 2 * n for value in lines)
        for columns in lines.values():
            a, c = min(columns)
            assert columns == {(mul(u, a), mul(u, c)) for u in units}
        assert len(lines) == n + n // prime.norm


class TestLineStabilizer:
    """The chain's lower levels on random generators [[u, b], [0, u^-1]]:
    |U'| |K| is the order of the group they generate, by the closure, and
    U' is the set of its upper-left entries.  The images of S and T at
    the levels of norm <= 1000 get the right count without the
    collisions of the U' walk or the u^2 closure of K; these do not."""

    @pytest.mark.parametrize(
        "level",
        [IdealHNF(*hnf) for hnf in ((4, 0, 4), (7, 0, 7), (1, 3, 5), (2, 6, 10), (9, 0, 9))],
    )
    def test_units_times_translations_is_the_group_order(self, level):
        residues = [(x, y) for x in range(level.d1) for y in range(level.d2)]
        one = level.reduce_pair(1, 0)

        def mul(x, y):
            p = GoldenInt(*x) * GoldenInt(*y)
            return level.reduce_pair(p.a, p.b)

        inverse = {u: v for u in residues for v in residues if mul(u, v) == one}
        rng = random.Random(str(level))
        for _ in range(30):
            # a diagonal generator (b = 0) adds no translation of its own:
            # with one, K can come from commutators alone
            gens = [
                (u, rng.choice([(0, 0), rng.choice(residues)]), inverse[u])
                for u in rng.sample(sorted(inverse), rng.randint(1, 3))
            ]
            stabilizer = _LineStabilizer(level, DEFAULT_CAP)
            for u, b, u_inv in gens:
                stabilizer.add(u, b, u_inv, 1)
            keys = [(*u, *b, 0, 0, *u_inv) for u, b, u_inv in gens]
            group = semigroup_closure(level, keys)
            assert len(stabilizer.lifts) * stabilizer.translations() == len(group), gens
            assert set(stabilizer.lifts) == {_unpack(level, key)[:2] for key in group}, gens

    def test_translations_are_closed_under_squares(self):
        # diag(L, L^-1), L^-1 = L - 1, and the translation by 1 mod (7):
        # K is spanned by the L^2j, all of Z[L]/(7) = F_49, not just F_7
        level = IdealHNF(7, 0, 7)
        stabilizer = _LineStabilizer(level, DEFAULT_CAP)
        stabilizer.add((1, 0), (1, 0), (1, 0), 1)
        stabilizer.add((0, 1), (0, 0), (6, 1), 1)
        assert stabilizer.translations() == 49

    def test_a_power_of_one_generator_is_a_translation(self):
        # [[-1, 1], [0, -1]] squares to the translation by -2: order 14 mod (7)
        level = IdealHNF(7, 0, 7)
        stabilizer = _LineStabilizer(level, DEFAULT_CAP)
        stabilizer.add((6, 0), (1, 0), (6, 0), 1)
        assert (len(stabilizer.lifts), stabilizer.translations()) == (2, 7)


@pytest.fixture(scope="session")
def chain_pairs():
    """`chain_counts` of each level at the default cap, computed once:
    the sweeps of `TestOrbitStabilizer` by norm overlap."""
    return cache(chain_counts)


class TestOrbitStabilizer:
    def test_matches_enumeration(self, quotient_cache, chain_pairs):
        # the acceptance gate builds all of these, so the cache is warm
        gens = [gen for gen, _ in BASE_LEVELS] + [6, 10, 14]
        for gen in gens:
            level = gen if isinstance(gen, IdealHNF) else ideal_from_generator(gen)
            orbit, stabilizer = chain_pairs(level)
            assert orbit * stabilizer == len(quotient_cache(gen)), level

    def test_matches_formula_up_to_norm_100(self, chain_pairs):
        levels = ideals_up_to(100)
        assert len(levels) == 43
        for level in levels:
            orbit, stabilizer = chain_pairs(level)
            assert orbit * stabilizer == index_formula(level).total, level

    # the chain's order is orbit * stabilizer, as `chain_counts` asserts
    @pytest.mark.extended
    def test_matches_formula_norms_101_to_200(self, chain_pairs):
        levels = [level for level in ideals_up_to(200) if level.norm > 100]
        assert len(levels) == 42
        for level in levels:
            assert math.prod(chain_pairs(level)) == index_formula(level).total, level

    def test_matches_formula_on_every_ideal_up_to_norm_400(self, chain_pairs):
        levels = ideals_up_to(400)
        assert len(levels) == 171
        for level in levels:
            assert math.prod(chain_pairs(level)) == index_formula(level).total, level

    @pytest.mark.extended
    def test_matches_formula_on_every_ideal_up_to_norm_1000(self, chain_pairs):
        levels = ideals_up_to(1000)
        assert len(levels) == 430
        for level in levels:
            assert math.prod(chain_pairs(level)) == index_formula(level).total, level

    def test_same_pair_as_the_column_walk_up_to_norm_100(self, chain_pairs):
        levels = ideals_up_to(100)
        assert len(levels) == 43
        for level in levels:
            assert chain_pairs(level) == column_walk(level), level

    @pytest.mark.extended
    def test_same_pair_as_the_column_walk_norms_101_to_200(self, chain_pairs):
        levels = [level for level in ideals_up_to(200) if level.norm > 100]
        assert len(levels) == 42
        for level in levels:
            assert chain_pairs(level) == column_walk(level), level

    @pytest.mark.extended
    @pytest.mark.parametrize("gen,order", [(13, 4826640), (19, 46785600)])
    def test_beyond_enumeration(self, gen, order):
        assert Chain(ideal_from_generator(gen)).order == order

    def test_orbit_and_stabilizer_at_two(self):
        # mod (2) the image has order 10: 5 of the 15 nonzero columns of F_4^2,
        # and the translations by Z*2 + Z*L mod (2), a lattice of index 2
        assert chain_counts(ideal_from_generator(2)) == (5, 2)
        assert chain_counts(ideal_from_generator(7)) == (2400, 49)

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            chain_counts(IdealHNF(1, 0, 1))

    def test_cap_counts_orbit_points(self):
        level = ideal_from_generator(7)
        assert chain_counts(level, cap=2400) == (2400, 49)
        with pytest.raises(CapExceededError) as exc:
            chain_counts(level, cap=2399)
        assert exc.value.cap == 2399
        assert exc.value.partial == 2400
        assert str(exc.value).startswith("orbit exceeded cap 2399")

    def test_cap_fires_before_the_walk_ends(self, line_form_calls):
        # at [1,8,11], lines * |U'| passes 40 when a line is added, not when
        # U' grows: the error comes before every line has been walked.  A
        # line walked is one call of the line form ([1,8,11] is prime)
        level = IdealHNF(1, 8, 11)
        chain_counts(level)
        full_walk = len(line_form_calls)
        line_form_calls.clear()
        with pytest.raises(CapExceededError) as exc:
            chain_counts(level, cap=40)
        assert str(exc.value) == "orbit exceeded cap 40 (partial count 41)"
        assert len(line_form_calls) < full_walk


class TestChainOnAnyGenerators:
    """`Chain` with `gen_keys` counts the group any generators span:
    orbit * stabilizer is the size of their closure."""

    @staticmethod
    def elementary_product(level, steps):
        # [[1, x], [0, 1]] (upper) or [[1, 0], [x, 1]] (lower), x the
        # residue with digit d, multiplied left to right
        one = level.reduce_pair(1, 0)
        product = ResMat.identity(level)
        for upper, d in steps:
            x = divmod(d % level.norm, level.d2)
            entries = (*one, *x, 0, 0, *one) if upper else (*one, 0, 0, *x, *one)
            product = product * ResMat(level, entries)
        return product.key

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(ideals_up_to(40)),
        st.lists(
            st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), min_size=1, max_size=4),
            min_size=1,
            max_size=3,
        ),
    )
    def test_matches_the_closure_on_elementary_products(self, level, generators):
        keys = [self.elementary_product(level, steps) for steps in generators]
        orbit, stabilizer = chain_counts(level, gen_keys=keys)
        assert orbit * stabilizer == len(semigroup_closure(level, keys))

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1)])
    def test_matches_the_closure_on_the_kernel_layers(self, p, n):
        level, keys = kernel_layer_generators(p, n)
        orbit, stabilizer = chain_counts(level, gen_keys=keys)
        assert orbit * stabilizer == len(semigroup_closure(level, keys)) == p**6

    def test_no_generators_span_the_identity(self):
        assert chain_counts(ideal_from_generator(7), gen_keys=[]) == (1, 1)

    def test_the_images_of_s_and_t_are_the_default(self):
        level = ideal_from_generator(7)
        keys = [ResMat.from_mat2(level, m).key for m in (S, T)]
        assert chain_counts(level, gen_keys=keys) == chain_counts(level)

    def test_a_generator_of_determinant_other_than_one_is_rejected(self):
        level = ideal_from_generator(7)
        doubled = (2, 0, 0, 0, 0, 0, 1, 0)
        with pytest.raises(ValueError, match="determinant"):
            chain_counts(level, gen_keys=[doubled])


class TestChainSift:
    """`in` on a chain is the sift; iterating it lists the group.  Both
    against the closure of the same generators."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(ideals_up_to(60)),
        st.lists(
            st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), min_size=1, max_size=4),
            min_size=1,
            max_size=2,
        ),
        st.integers(0, 2**32),
    )
    def test_sift_matches_closure_membership(self, level, generators, seed):
        rng = random.Random(seed)
        product = TestChainOnAnyGenerators.elementary_product
        keys = [product(level, steps) for steps in generators]
        chain = Chain(level, gen_keys=keys)
        closure = semigroup_closure(level, keys)
        n4 = level.norm**4
        members = decoded(level, rng.sample(sorted(closure), min(len(closure), 40)))
        # determinant 1, in the subgroup or not
        others = [
            product(level, [(rng.random() < 0.5, rng.randrange(10**6)) for _ in range(4)])
            for _ in range(40)
        ]
        # almost all of determinant other than 1
        anything = decoded(level, [rng.randrange(n4) for _ in range(40)])
        elements = set(decoded(level, closure))
        for key in members + others + anything:
            assert (key in chain) == (key in elements), key
        assert all(key in chain for key in members)
        # a member times diag(1, 2): its line, u and b pass through the
        # sift's lookups, and only the determinant 2 keeps it out
        one = level.reduce_pair(1, 0)
        scale = ResMat(level, (*one, 0, 0, 0, 0, *level.reduce_pair(2, 0)))
        assert not any((ResMat(level, key) * scale).key in chain for key in members)
        assert sorted(chain) == sorted(elements)

    @pytest.mark.parametrize("level", ideals_up_to(40), ids=str)
    def test_iteration_lists_each_element_once(self, quotient_cache, level):
        q = quotient_cache(level)
        elements = list(Chain(level))
        assert len(elements) == len(set(elements)) == len(q)
        assert set(elements) == set(decoded(level, q))


class TestWalkBack:
    """The walk skips the edge back along a generator g with g^2 = +-I
    from a line that g first reached, after the first: its Schreier
    generator is +-I each time."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([level for level in ideals_up_to(60) if sl2_order(level) <= 50_000]),
        st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=3),
        st.lists(
            st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), min_size=1, max_size=4),
            max_size=2,
        ),
        st.integers(0, 2),
    )
    # one larger level, once: [[1, 1], [0, 1]] and a conjugate of S span
    # SL2 at [1,34,59], of order 205,320
    @example(IdealHNF(1, 34, 59), [(False, 3)], [[(True, 1)]], 0)
    def test_a_conjugate_of_s_among_the_generators(self, level, conjugator, others, position):
        # h S h^-1 (S itself when h is the identity), squaring to -I, at
        # any place among up to two elementary products
        product = TestChainOnAnyGenerators.elementary_product
        h = ResMat(level, product(level, conjugator))
        involution = h * ResMat.from_mat2(level, S) * h.inverse()
        assert involution * involution == ResMat.from_mat2(level, -IDENTITY)
        keys = [product(level, steps) for steps in others]
        keys.insert(position % (len(keys) + 1), involution.key)
        chain = Chain(level, gen_keys=keys)
        closure = semigroup_closure(level, keys)
        assert chain.order == len(closure)
        assert sorted(chain) == sorted(decoded(level, closure))

    def test_the_hecke_walk_skips_edges_back_along_s(self, line_form_calls):
        # at [1,8,11] (prime, so one line form) each edge walked computes
        # one line key, and there are two edges per line: S and T
        level = IdealHNF(1, 8, 11)
        chain = Chain(level)
        assert chain.order == len(build_quotient(level))
        assert len(line_form_calls) < 2 * len(chain.transversal)


class _ReferenceStabilizer(_LineStabilizer):
    """`_LineStabilizer` whose sift spans K even once K is every
    translation."""

    def sift(self, u, b):
        self.span(self.translation(u, b))


def reference_walk(level, gen_keys=None, skip_back=False):
    """The chain's walk with no shortcut: every edge computes its line key,
    and every repeated line the whole product adj(t_w) (g t_v) and a sift
    or an `add`, also once G0 is the Borel group, and the sift spans K
    even once K is every translation.  `skip_back` keeps one shortcut,
    the walk-back skip along an involution (see `Chain`).  Returns
    (transversal, stabilizer)."""
    if gen_keys is None:
        gen_keys = [ResMat.from_mat2(level, m).key for m in (S, T)]
    _, _, matmul, adj = _residue_ops(level)
    red = level.reduce_pair
    one = red(1, 0)
    gens = list(gen_keys)
    forms = [quotient_mod._line_form(pf.power) for pf in level.factors]

    def line_key(a, c):
        key = 0
        for form in forms:
            key = key * 2 * level.norm + form(a, c)
        return key

    stabilizer = _ReferenceStabilizer(level, DEFAULT_CAP)
    identity = (*one, 0, 0, 0, 0, *one)
    minus = (*red(-1, 0), 0, 0, 0, 0, *red(-1, 0))
    walked_back = {i: False for i, g in enumerate(gens) if matmul(g, g) in (identity, minus)}
    transversal = {line_key(one, (0, 0)): identity}
    queue, via = [identity], [-1]
    for t, came in zip(queue, via):
        for i, g in enumerate(gens):
            if skip_back and i == came and i in walked_back:
                if walked_back[i]:
                    continue
                walked_back[i] = True
            m = matmul(g, t)
            key = line_key(m[0:2], m[4:6])
            if key not in transversal:
                transversal[key] = m
                queue.append(m)
                via.append(i)
                continue
            x = matmul(adj(transversal[key]), m)
            if x[0:2] in stabilizer.lifts:
                stabilizer.sift(x[0:2], x[2:4])
            else:
                stabilizer.add(x[0:2], x[2:4], x[6:8], len(queue))
    return transversal, stabilizer


class TestEarlyStop:
    """Once G0 is the whole Borel group the walk computes no Schreier
    generator, though it still walks every line and ends only when its
    queue does; K's sift returns at once when K is every translation.
    Neither changes the chain's state."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(ideals_up_to(60)),
        st.lists(
            st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), min_size=1, max_size=4),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
    )
    def test_same_state_as_the_walk_with_no_shortcut(self, level, generators, hecke):
        product = TestChainOnAnyGenerators.elementary_product
        keys = None if hecke else [product(level, steps) for steps in generators]
        chain = Chain(level, gen_keys=keys)
        transversal, stabilizer = reference_walk(level, keys)
        assert list(chain.transversal.items()) == list(transversal.items())
        assert list(chain.units.lifts.items()) == list(stabilizer.lifts.items())
        orbit = len(transversal) * len(stabilizer.lifts)
        assert (chain.orbit, chain.stabilizer) == (orbit, stabilizer.translations())
        assert chain.units.lattice == stabilizer.lattice

    def test_a_full_stabilizer_ends_the_sifts_not_the_walk(self, line_form_calls, schreier_calls):
        # the image at [1,7,41] is all of SL2(F_41), and G0 is the Borel
        # group before the queue is done: the chain walks as many edges as
        # the walk with only the walk-back skip, but computes fewer
        # Schreier generators than it, which computes one on every
        # repeated line (both count the sifts inside `add` alike)
        level = IdealHNF(1, 7, 41)
        chain = Chain(level)
        walked, computed = len(line_form_calls), len(schreier_calls)
        line_form_calls.clear()
        schreier_calls.clear()
        reference_walk(level, skip_back=True)
        assert chain.order == sl2_order(level)
        assert (len(chain.transversal), chain.units.lattice) == (42, (1, 0, 1))
        assert walked == len(line_form_calls) == 71
        assert computed < len(schreier_calls)

    @pytest.mark.parametrize("level", [level for level in ideals_up_to(60) if len(level.factors) == 1], ids=str)
    def test_every_line_walks_every_generator_but_the_edges_back(self, level, line_form_calls):
        # at a prime power a line form call is one edge: the key of the
        # line <e1>, then each generator on each line, less the edges back
        # along an involution after the first (`TestWalkBack`); on the
        # Hecke generators and on three drawn sets, two with a conjugate
        # of S among them
        rng = random.Random(level.norm)

        def draw(length):
            steps = [(rng.random() < 0.5, rng.randrange(10**6)) for _ in range(length)]
            return TestChainOnAnyGenerators.elementary_product(level, steps)

        s = ResMat.from_mat2(level, S)
        drawn = []
        for involution in (False, True, True):
            keys = [draw(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            if involution:
                h = ResMat(level, draw(1))
                keys.insert(rng.randint(0, len(keys)), (h * s * h.inverse()).key)
            drawn.append(keys)
        plus_minus_one = {ResMat.identity(level).key, (s * s).key}
        for keys in (None, *drawn):
            line_form_calls.clear()
            chain = Chain(level, gen_keys=keys)
            squares = [(ResMat(level, g) ** 2).key for g in chain.gen_keys]
            back = sum(max(0, chain.via.count(i) - 1) for i, sq in enumerate(squares) if sq in plus_minus_one)
            assert len(line_form_calls) == 1 + len(chain.gen_keys) * len(chain.transversal) - back

    def test_a_full_lattice_sifts_nothing(self):
        # with K every translation, the sift reads no lift: an unknown u passes
        level = IdealHNF(7, 0, 7)
        stabilizer = _LineStabilizer(level, DEFAULT_CAP)
        stabilizer.lattice = (1, 0, 1)
        stabilizer.sift((3, 0), (1, 0))
        assert stabilizer.lattice == (1, 0, 1)


class TestExtend:
    """`Chain.extend` walks only the edges of the new generators and of
    the lines they find: the chain it leaves is the group's, as a chain
    built from scratch on all the generators counts and sifts it."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(ideals_up_to(60)),
        st.lists(
            st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 4),
        st.integers(0, 2**32),
    )
    def test_an_extended_chain_is_the_chain_from_scratch(self, level, generators, split, seed):
        rng = random.Random(seed)
        product = TestChainOnAnyGenerators.elementary_product
        keys = [product(level, steps) for steps in generators]
        first, rest = keys[: split % (len(keys) + 1)], keys[split % (len(keys) + 1) :]
        whole = Chain(level, gen_keys=keys)
        extended = Chain(level, gen_keys=first)
        extended.extend(rest)
        assert extended.gen_keys == keys
        assert (extended.order, extended.orbit, extended.stabilizer) == (
            whole.order,
            whole.orbit,
            whole.stabilizer,
        )
        assert extended.units.lattice == whole.units.lattice
        elements = sorted(whole)
        assert sorted(extended) == elements
        members = rng.sample(elements, min(len(elements), 20))
        others = [
            product(level, [(rng.random() < 0.5, rng.randrange(10**6)) for _ in range(4)])
            for _ in range(20)
        ]
        for key in members + others:
            assert (key in extended) == (key in whole), key

    def test_an_extension_after_the_early_stop_walks_each_line_once(self, line_form_calls, schreier_calls):
        # at [1,7,41] the chain is all of SL2(F_41) and G0 the Borel
        # group: a member added as a generator walks each of the 42 lines
        # once and computes no Schreier generator
        level = IdealHNF(1, 7, 41)
        chain = Chain(level)
        member = (ResMat.from_mat2(level, S) * ResMat.from_mat2(level, T)).key
        line_form_calls.clear()
        schreier_calls.clear()
        chain.extend([member])
        assert len(line_form_calls) == len(chain.transversal) == 42
        assert schreier_calls == []
        assert chain.order == sl2_order(level)
        assert chain.gen_keys[-1] == member

    def test_the_cap_fires_inside_an_extension(self):
        # at p = 7 the part M's orbit of e1 has 49 points, the whole
        # kernel layer's 2401: a cap of 100 passes M and stops the extension
        level, keys = kernel_layer_generators(7, 1)
        chain = Chain(level, 100, keys[:4])
        assert chain.orbit == 49
        with pytest.raises(CapExceededError) as exc:
            chain.extend(keys[4:])
        assert str(exc.value) == "orbit exceeded cap 100 (partial count 101)"

    def test_a_generator_of_determinant_other_than_one_changes_nothing(self):
        level = ideal_from_generator(7)
        chain = Chain(level)
        order, gen_keys = chain.order, list(chain.gen_keys)
        doubled = (2, 0, 0, 0, 0, 0, 1, 0)
        with pytest.raises(ValueError, match="determinant"):
            chain.extend([ResMat.from_mat2(level, S).key, doubled])
        assert (chain.order, chain.gen_keys) == (order, gen_keys)


class TestIndexHelpers:
    def test_index_multiplicative_for_coprime_levels(self, quotient_cache):
        two, three = ideal_from_generator(2), ideal_from_generator(3)
        six = ideal_mul(two, three)
        assert Chain(six).order == len(quotient_cache(2)) * len(quotient_cache(3)) == 1200

    def test_index_g(self):
        two, four = ideal_from_generator(2), ideal_from_generator(4)
        assert index_g(two, Chain(two).order) == 10
        assert index_g(four, Chain(four).order) == 160

    def test_minus_i(self):
        # -I = I mod (2) only: the index is halved everywhere else
        assert index_g(ideal_from_generator(2), 10) == 10
        assert index_g(ideal_from_generator(4), 320) == 160
        assert index_g(ideal_from_generator(3), 120) == 60

    def test_sl2_order_small(self):
        # |SL(2, F_4)| = 60, |SL(2, F_5)| = 120, |SL(2, F_9)| = 720
        assert sl2_order(ideal_from_generator(2)) == 60
        assert sl2_order(IdealHNF(1, 3, 5)) == 120
        assert sl2_order(ideal_from_generator(3)) == 720

    def test_sl2_order_rejects_unit_ideal(self):
        with pytest.raises(ValueError):
            sl2_order(IdealHNF(1, 0, 1))

    def test_surjectivity(self):
        # reduction maps onto SL2 exactly when the counted index is |SL2|
        # of the residue ring; 3+L has norm 11
        for gen, onto in [(GoldenInt(3, 1), True), (2, False), (3, False)]:
            level = ideal_from_generator(gen)
            assert (Chain(level).order == sl2_order(level)) is onto, gen


class TestCosetWords:
    def test_words_evaluate_back(self, quotient_cache):
        level = ideal_from_generator(2)
        for key, word in coset_words(level, quotient_cache(2)):
            assert set(word) <= set("ST")
            assert ResMat.from_mat2(level, eval_word(word)).key == key

    def test_one_word_per_element(self, quotient_cache):
        q = quotient_cache(TAU)
        words = dict(coset_words(ideal_from_generator(TAU), q))
        assert len(words) == len(q)
        assert list(words) == decoded(ideal_from_generator(TAU), q)

    def test_non_member_has_no_word(self, quotient_cache):
        q, level = quotient_cache(2), ideal_from_generator(2)
        # an entry's residue past its range: no element has it
        key = ResMat.from_mat2(level, T).key
        stray = (*key[:7], key[7] + level.d2)
        with pytest.raises(KeyError):
            dict(coset_words(level, q))[stray]

    def test_random_elements_hit_listed_words(self, quotient_cache):
        level = ideal_from_generator(3)
        words = dict(coset_words(level, quotient_cache(3)))
        rng = random.Random(9)
        for _ in range(50):
            m = ResMat.from_mat2(level, eval_word(random_word(rng)))
            word = words[m.key]
            assert ResMat.from_mat2(level, eval_word(word)).key == m.key

    def test_same_words_as_the_predecessor_chain_walk(self, quotient_cache):
        # the reference: walk each element's predecessors back to the
        # identity, infer each letter (T keeps the first column), reverse
        q, level = quotient_cache(5), ideal_from_generator(5)
        words = dict(coset_words(level, q))

        def chain_word(key):
            letters = []
            while (pred := q[key]) is not None:
                u, w = _unpack(level, pred), _unpack(level, key)
                same = (u[0], u[1], u[4], u[5]) == (w[0], w[1], w[4], w[5])
                letters.append("T" if same else "S")
                key = pred
            return "".join(reversed(letters))

        assert len(q) == 15000
        assert words == {_unpack(level, key): chain_word(key) for key in q}
        for key, pred in q.items():
            if pred is not None:
                assert len(words[_unpack(level, key)]) == len(words[_unpack(level, pred)]) + 1


def subgroup_from_predicate(level: IdealHNF, q: dict[int, int | None], which: str) -> set[Key]:
    """The members of a congruence-condition subgroup, read off the entries
    of the elements of the level's quotient `q`: `H0` (lower-left entry
    0) or `H1` (additionally both diagonal entries 1); the reference for
    the chain."""
    one = level.reduce_pair(1, 0)
    members = {key for key in decoded(level, q) if key[4:6] == (0, 0)}
    if which == "H1":
        members = {key for key in members if key[0:2] == key[6:8] == one}
    return members


class TestSubgroups:
    def test_h0_h1_mod_eleven_prime(self, quotient_cache):
        q, level = quotient_cache(GoldenInt(3, 1)), ideal_from_generator(GoldenInt(3, 1))
        h0 = subgroup_from_predicate(level, q, "H0")
        h1 = subgroup_from_predicate(level, q, "H1")
        assert len(q) == 12 * len(h0)
        assert h1 <= h0
        # H0 as the chain of all its members
        chain = Chain(level, gen_keys=sorted(h0))
        assert chain.order == len(h0) and all(key in chain for key in h0)
        assert not is_normal(chain)

    @pytest.mark.parametrize("level", ideals_up_to(40), ids=str)
    def test_h1_is_the_stabilizer_of_e1(self, quotient_cache, level):
        # H1 = {[[1, b], [0, 1]]} fixes the column e1, so the predicate
        # counts the chain's stabilizer, and orbit times stabilizer is the
        # order of the closure
        q = quotient_cache(level)
        orbit, stabilizer = chain_counts(level)
        assert len(subgroup_from_predicate(level, q, "H1")) == stabilizer
        assert len(q) == orbit * stabilizer

    def test_subgroup_generated_whole_group(self, quotient_cache):
        q, level = quotient_cache(2), ideal_from_generator(2)
        s = ResMat.from_mat2(level, S).key
        t = ResMat.from_mat2(level, T).key
        sub = subgroup_generated(Chain(level), [s, t])
        assert sub.order == len(q) and all(key in sub for key in decoded(level, q))

    def test_subgroup_generated_rejects_outsiders(self, quotient_cache):
        level = ideal_from_generator(2)
        # diag(L, L^-1) of order 3, which the image mod (2), of order 10,
        # does not have, and diag(1, L) of determinant L
        for outsider in ((0, 1, 0, 0, 0, 0, 1, 1), (1, 0, 0, 0, 0, 0, 0, 1)):
            with pytest.raises(ValueError):
                subgroup_generated(Chain(level), [outsider])

    def test_order_divides_group_order(self, quotient_cache):
        q, level = quotient_cache(TAU), ideal_from_generator(TAU)
        keys = decoded(level, q)
        group = Chain(level)
        rng = random.Random(4)
        for _ in range(10):
            gens = [rng.choice(keys) for _ in range(2)]
            sub = subgroup_generated(group, gens)
            assert len(q) % sub.order == 0


class TestPowerSubgroup:
    def test_first_powers_give_whole_group(self, quotient_cache):
        q = quotient_cache(2)
        assert power_subgroup(Chain(ideal_from_generator(2)), 1).order == len(q)

    def test_fifth_powers_mod_two(self, quotient_cache):
        q = quotient_cache(2)
        assert power_subgroup(Chain(ideal_from_generator(2)), 5).order == len(q)

    def test_against_naive_closure_oracle(self, quotient_cache):
        q, level = quotient_cache(TAU), ideal_from_generator(TAU)
        for k in (2, 3, 5):
            fast = power_subgroup(Chain(level), k)
            # oracle: repeatedly multiply the set of k-th powers until stable
            gens = {(ResMat(level, key) ** k).key for key in decoded(level, q)}
            members = set(gens) | {ResMat.identity(level).key}
            changed = True
            while changed:
                changed = False
                for a in list(members):
                    for g in gens:
                        w = (ResMat(level, a) * ResMat(level, g)).key
                        if w not in members:
                            members.add(w)
                            changed = True
            assert fast.order == len(members) and all(key in fast for key in members)
            assert is_normal(fast)

    def test_bad_exponent(self, quotient_cache):
        with pytest.raises(ValueError):
            power_subgroup(Chain(ideal_from_generator(2)), 0)

    @pytest.mark.parametrize(
        "gen, k",
        [(4, 2), (5, 5), (GoldenInt(3, 1), 5), (TAU, 2), (TAU, 3), (TAU, 5)],
    )
    def test_same_members_as_a_table_of_every_power(self, quotient_cache, gen, k):
        q, level = quotient_cache(gen), ideal_from_generator(gen)
        # the reference: tabulate every element's k-th power in BFS order,
        # then grow the span from that table
        powers = dict.fromkeys((ResMat(level, key) ** k).key for key in decoded(level, q))
        members = {ResMat.identity(level).key}
        gens: list[Key] = []
        for p in powers:
            if p not in members:
                gens.append(p)
                members = set(decoded(level, semigroup_closure(level, gens)))
                if len(members) == len(q):
                    break
        span = power_subgroup(Chain(level), k)
        assert span.order == len(members) and all(key in span for key in members)

    @pytest.mark.parametrize("gen, k, index, calls", [(5, 5, 1, None), (4, 2, 2, 320)])
    def test_powers_stop_once_they_span_the_group(
        self, quotient_cache, monkeypatch, gen, k, index, calls
    ):
        q = quotient_cache(gen)
        count = 0
        pow_ = ResMat.__pow__

        def counted(self, n):
            nonlocal count
            count += 1
            return pow_(self, n)

        group = Chain(ideal_from_generator(gen))
        monkeypatch.setattr(ResMat, "__pow__", counted)
        assert len(q) == index * power_subgroup(group, k).order
        if calls is None:
            # at (5) the fifth powers of the first few elements in the
            # chain's order already span all 15,000
            assert count <= 20
        else:
            # index 2: the span never fills, so every element is powered
            assert count == calls == len(q)


def key_mul(u: Key, v: Key, d1: int, k: int, d2: int) -> Key:
    """The closure's product before packing: all four entries at once."""
    ua, ub, uc, ud, ue, uf, ug, uh = u
    va, vb, vc, vd, ve, vf, vg, vh = v
    entries = []
    for x, y in (
        (ua * va + ub * vb + uc * ve + ud * vf,
         ua * vb + ub * va + ub * vb + uc * vf + ud * ve + ud * vf),
        (ua * vc + ub * vd + uc * vg + ud * vh,
         ua * vd + ub * vc + ub * vd + uc * vh + ud * vg + ud * vh),
        (ue * va + uf * vb + ug * ve + uh * vf,
         ue * vb + uf * va + uf * vb + ug * vf + uh * ve + uh * vf),
        (ue * vc + uf * vd + ug * vg + uh * vh,
         ue * vd + uf * vc + uf * vd + ug * vh + uh * vg + uh * vh),
    ):
        q = x // d1
        entries += [x - q * d1, (y - q * k) % d2]
    return tuple(entries)


def key_mul_closure(level: IdealHNF, gen_keys: list[Key]) -> dict[Key, Key | None]:
    """The closure as it was before packing: a BFS on 8-tuples of residues,
    each product a general `key_mul`; the reference for the packed walk."""
    identity = ResMat.identity(level).key
    predecessor: dict[Key, Key | None] = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gen_keys:
                w = key_mul(u, g, level.d1, level.k, level.d2)
                if w not in predecessor:
                    predecessor[w] = u
                    nxt.append(w)
        frontier = nxt
    return predecessor


def st_case(level: IdealHNF) -> tuple[IdealHNF, list[Key]]:
    return level, [ResMat.from_mat2(level, m).key for m in (S, T)]


def delta_case() -> tuple[IdealHNF, list[Key]]:
    level = ideal_from_generator(5)
    return level, [ResMat.from_mat2(level, m).key for m in _delta_matrices()]


CLOSURE_CASES = {
    # S and T; [1,3,5] is (2+L), [1,4,11] is (3+L) and [2,6,10] is
    # (2)(2+L): rows (d1, k) with k != 0, whose reduction carries
    "S,T mod (2)": lambda: st_case(IdealHNF(2, 0, 2)),
    "S,T mod (5)": lambda: st_case(IdealHNF(5, 0, 5)),
    "S,T mod [1,3,5]": lambda: st_case(IdealHNF(1, 3, 5)),
    "S,T mod [1,4,11]": lambda: st_case(IdealHNF(1, 4, 11)),
    "S,T mod [2,6,10]": lambda: st_case(IdealHNF(2, 6, 10)),
    "kernel layer (2,1)": lambda: kernel_layer_generators(2, 1),
    "kernel layer (2,2)": lambda: kernel_layer_generators(2, 2),
    "kernel layer (3,1)": lambda: kernel_layer_generators(3, 1),
    "kernel layer (5,1)": lambda: kernel_layer_generators(5, 1),
    "delta generators mod (5)": delta_case,
}


class TestPackedClosure:
    @pytest.mark.parametrize(
        "level",
        # (2), (5), (9), the two primes above 11 ((3+L) is [1,4,11]) and
        # (2)(2+L), whose reduction carries
        [
            IdealHNF(2, 0, 2),
            IdealHNF(5, 0, 5),
            IdealHNF(9, 0, 9),
            IdealHNF(1, 4, 11),
            IdealHNF(1, 8, 11),
            IdealHNF(2, 6, 10),
        ],
        ids=str,
    )
    @given(data=st.data())
    def test_pack_and_decode_invert_each_other(self, level, data):
        residues = tuple(
            data.draw(st.integers(0, d - 1)) for _ in range(4) for d in (level.d1, level.d2)
        )
        packed = _pack(level, residues)
        assert 0 <= packed < level.norm**4
        assert _unpack(level, packed) == residues
        number = data.draw(st.integers(0, level.norm**4 - 1))
        assert _pack(level, _unpack(level, number)) == number

    @pytest.mark.parametrize("case", CLOSURE_CASES)
    def test_matches_key_mul_bfs(self, case):
        level, gen_keys = CLOSURE_CASES[case]()
        expected = key_mul_closure(level, gen_keys)
        got = [
            (_unpack(level, w), None if u is None else _unpack(level, u))
            for w, u in semigroup_closure(level, gen_keys).items()
        ]
        # dict equality ignores order, so compare the item sequences
        assert got == list(expected.items())

    @pytest.mark.parametrize("case", CLOSURE_CASES)
    def test_packed_result_packs_the_keys(self, case):
        level, gen_keys = CLOSURE_CASES[case]()
        expected = [
            (_pack(level, key), None if pred is None else _pack(level, pred))
            for key, pred in key_mul_closure(level, gen_keys).items()
        ]
        assert list(semigroup_closure(level, gen_keys).items()) == expected

    # the cap fires on the first element past it, whatever the generator order
    @pytest.mark.parametrize("reverse_gens", [False, True])
    def test_cap_at_a_level_of_norm_ten_to_the_ten(self, reverse_gens):
        level, gen_keys = st_case(ideal_from_generator(100003))
        if reverse_gens:
            gen_keys = gen_keys[::-1]
        with pytest.raises(CapExceededError) as exc:
            semigroup_closure(level, gen_keys, cap=10)
        assert (exc.value.cap, exc.value.partial) == (10, 11)
