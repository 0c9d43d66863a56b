import hashlib
import math
import random

import pytest

from hecke5.formula import index_formula
from hecke5.golden import GoldenInt
from hecke5.ideals import IdealHNF, ideal_from_generator, ideal_mul
from hecke5.matrices import IDENTITY, MINUS_IDENTITY, S, T, eval_word
from hecke5.quotient import (
    CapExceededError,
    QuotientGroup,
    ResMat,
    SubgroupHandle,
    build_quotient,
    coset_words,
    index_g,
    index_h,
    is_normal,
    is_surjective,
    minus_i_in_level,
    orbit_stabilizer,
    power_subgroup,
    sl2_order,
    subgroup_from_predicate,
    subgroup_generated,
)

from conftest import random_word, run_python_O
from test_acceptance import BASE_LEVELS

TAU = GoldenInt(2, 1)


def principal_levels(lo: int, hi: int) -> list[IdealHNF]:
    """Every level of norm in [lo, hi], once each (Z[L] is a PID, and a box
    of side about sqrt(hi) holds a generator of each)."""
    bound = math.isqrt(hi) + 2
    levels = {
        ideal_from_generator(g)
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
        if lo <= (g := GoldenInt(a, b)).norm() <= hi
    }
    return sorted(levels, key=lambda x: (x.norm, x.d1, x.k))


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
        assert quotient_cache(gen).order == order

    def test_elements_unique_and_start_at_identity(self, quotient_cache):
        q = quotient_cache(3)
        assert len(set(q.elements)) == q.order
        assert q.elements[0] == ResMat.identity(q.level).key

    def test_deterministic(self, quotient_cache):
        q1 = quotient_cache(3)
        q2 = build_quotient(ideal_from_generator(3))
        assert q1.elements == q2.elements

    def test_bfs_order_pinned(self, quotient_cache):
        elements = tuple(quotient_cache(5).elements)
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
        q = quotient_cache(TAU)
        rng = random.Random(1)
        keys = list(q.elements)
        for _ in range(100):
            u = q.resmat(rng.choice(keys))
            v = q.resmat(rng.choice(keys))
            assert (u * v).key in q.element_set
            assert u.inverse().key in q.element_set

    def test_all_elements_have_det_one(self, quotient_cache):
        q = quotient_cache(4)
        one = q.level.reduce_pair(1, 0)
        assert all(q.resmat(k).det() == one for k in q.elements)


class TestResMatInverse:
    def test_inverse(self, quotient_cache):
        q = quotient_cache(TAU)
        ident = ResMat.identity(q.level)
        for key in q.elements[:50]:
            m = q.resmat(key)
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
        q = quotient_cache(TAU)
        ident = ResMat.identity(q.level)
        for key in q.elements[:: len(q.elements) // 12]:
            m = q.resmat(key)
            for n in range(-7, 8):
                product = ident
                for _ in range(abs(n)):
                    product = product * (m if n > 0 else m.inverse())
                assert m**n == product, (key, n)


class TestOrbitStabilizer:
    def test_matches_enumeration(self, quotient_cache):
        # the acceptance gate builds all of these, so the cache is warm
        gens = [gen for gen, _ in BASE_LEVELS] + [6, 10, 14]
        for gen in gens:
            level = gen if isinstance(gen, IdealHNF) else ideal_from_generator(gen)
            orbit, stabilizer = orbit_stabilizer(level)
            assert orbit * stabilizer == quotient_cache(gen).order, level

    def test_matches_formula_up_to_norm_100(self):
        levels = principal_levels(2, 100)
        assert len(levels) == 43
        for level in levels:
            orbit, stabilizer = orbit_stabilizer(level)
            assert orbit * stabilizer == index_formula(level).total, level

    @pytest.mark.extended
    def test_matches_formula_norms_101_to_200(self):
        levels = principal_levels(101, 200)
        assert len(levels) == 42
        for level in levels:
            assert index_h(level) == index_formula(level).total, level

    @pytest.mark.extended
    @pytest.mark.parametrize("gen,order", [(13, 4826640), (19, 46785600)])
    def test_beyond_enumeration(self, gen, order):
        assert index_h(ideal_from_generator(gen)) == order

    def test_orbit_and_stabilizer_at_two(self):
        # mod (2) the image has order 10: 5 of the 15 nonzero columns of F_4^2,
        # and the translations by Z*2 + Z*L mod (2), a lattice of index 2
        assert orbit_stabilizer(ideal_from_generator(2)) == (5, 2)
        assert orbit_stabilizer(ideal_from_generator(7)) == (2400, 49)

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            orbit_stabilizer(IdealHNF(1, 0, 1))

    def test_cap_counts_orbit_points(self):
        level = ideal_from_generator(7)
        assert orbit_stabilizer(level, cap=2400) == (2400, 49)
        with pytest.raises(CapExceededError) as exc:
            orbit_stabilizer(level, cap=2399)
        assert exc.value.cap == 2399
        assert exc.value.partial == 2400
        assert str(exc.value).startswith("orbit exceeded cap 2399")


class TestIndexHelpers:
    def test_index_multiplicative_for_coprime_levels(self, quotient_cache):
        two, three = ideal_from_generator(2), ideal_from_generator(3)
        six = ideal_mul(two, three)
        assert index_h(six) == quotient_cache(2).order * quotient_cache(3).order == 1200

    def test_index_g(self):
        assert index_g(ideal_from_generator(2)) == 10
        assert index_g(ideal_from_generator(4)) == 160

    def test_minus_i(self):
        assert minus_i_in_level(ideal_from_generator(2))
        assert not minus_i_in_level(ideal_from_generator(4))
        assert not minus_i_in_level(ideal_from_generator(3))

    def test_sl2_order_small(self):
        # |SL(2, F_4)| = 60, |SL(2, F_5)| = 120, |SL(2, F_9)| = 720
        assert sl2_order(ideal_from_generator(2)) == 60
        assert sl2_order(IdealHNF(1, 3, 5)) == 120
        assert sl2_order(ideal_from_generator(3)) == 720

    def test_sl2_order_rejects_unit_ideal(self):
        with pytest.raises(ValueError):
            sl2_order(IdealHNF(1, 0, 1))

    def test_surjectivity(self):
        assert is_surjective(ideal_from_generator(GoldenInt(3, 1)))  # norm 11
        assert not is_surjective(ideal_from_generator(2))
        assert not is_surjective(ideal_from_generator(3))


class TestCosetWords:
    def test_words_evaluate_back(self, quotient_cache):
        q = quotient_cache(2)
        for mat, word in coset_words(q):
            assert set(word) <= set("ST")
            assert ResMat.from_mat2(q.level, eval_word(word)).key == mat.key

    def test_one_word_per_element(self, quotient_cache):
        q = quotient_cache(TAU)
        pairs = coset_words(q)
        assert len(pairs) == q.order
        assert len({m.key for m, _ in pairs}) == q.order

    def test_non_member_has_no_word(self, quotient_cache):
        q = quotient_cache(2)
        stray = tuple(x + 1 for x in ResMat.from_mat2(q.level, T).key)
        with pytest.raises(KeyError):
            q.word_for(stray)

    def test_random_elements_hit_listed_words(self, quotient_cache):
        q = quotient_cache(3)
        rng = random.Random(9)
        for _ in range(50):
            m = ResMat.from_mat2(q.level, eval_word(random_word(rng)))
            word = q.word_for(m.key)
            assert ResMat.from_mat2(q.level, eval_word(word)).key == m.key


class TestSubgroups:
    def test_h0_h1_mod_eleven_prime(self, quotient_cache):
        q = quotient_cache(GoldenInt(3, 1))
        h0 = subgroup_from_predicate(q, "H0")
        h1 = subgroup_from_predicate(q, "H1")
        assert h0.index == 12
        assert h1.members <= h0.members
        assert not is_normal(h0)

    def test_unknown_predicate(self, quotient_cache):
        with pytest.raises(ValueError):
            subgroup_from_predicate(quotient_cache(2), "H2")

    def test_index_of_a_non_divisor_rejected(self, quotient_cache):
        q = quotient_cache(2)
        handle = SubgroupHandle(q, frozenset(q.elements[:3]))
        with pytest.raises(ValueError):
            handle.index

    def test_subgroup_generated_whole_group(self, quotient_cache):
        q = quotient_cache(2)
        s = ResMat.from_mat2(q.level, S)
        t = ResMat.from_mat2(q.level, T)
        sub = subgroup_generated(q, [s, t])
        assert sub.order == q.order

    def test_subgroup_generated_rejects_outsiders(self, quotient_cache):
        q = quotient_cache(2)
        bad = ResMat.from_mat2(q.level, MINUS_IDENTITY * T)
        stray = ResMat(q.level, tuple(x + 1 for x in bad.key))
        with pytest.raises(ValueError):
            subgroup_generated(q, [stray])

    def test_order_divides_group_order(self, quotient_cache):
        q = quotient_cache(TAU)
        rng = random.Random(4)
        for _ in range(10):
            gens = [q.resmat(rng.choice(q.elements)) for _ in range(2)]
            sub = subgroup_generated(q, gens)
            assert q.order % sub.order == 0


class TestPowerSubgroup:
    def test_first_powers_give_whole_group(self, quotient_cache):
        q = quotient_cache(2)
        assert power_subgroup(q, 1).order == q.order

    def test_fifth_powers_mod_two(self, quotient_cache):
        q = quotient_cache(2)
        assert power_subgroup(q, 5).index == 1

    def test_against_naive_closure_oracle(self, quotient_cache):
        q = quotient_cache(TAU)
        for k in (2, 3, 5):
            fast = power_subgroup(q, k)
            # oracle: repeatedly multiply the set of k-th powers until stable
            gens = {(q.resmat(key) ** k).key for key in q.elements}
            members = set(gens) | {q.elements[0]}
            changed = True
            while changed:
                changed = False
                for a in list(members):
                    for g in gens:
                        w = (q.resmat(a) * q.resmat(g)).key
                        if w not in members:
                            members.add(w)
                            changed = True
            assert fast.members == frozenset(members)
            assert is_normal(fast)

    def test_bad_exponent(self, quotient_cache):
        with pytest.raises(ValueError):
            power_subgroup(quotient_cache(2), 0)
