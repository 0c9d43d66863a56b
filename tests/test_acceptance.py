"""Acceptance gate: every numbered criterion below must pass exactly.

Each test prints one PASS line on success; run with `-s` to see them.
The enumerated indices go through the BFS enumeration `build_quotient`;
criterion 4 counts with stabilizer chains (`Chain`).
The full mod-(11) enumeration is marked `extended` and can be
deselected with `-m "not extended"`.
"""

import math
import random

import pytest

from hecke5.formula import index_formula
from hecke5.golden import GoldenInt, LAMBDA, ONE, ZERO, divmod_pseudo, lambda_power
from hecke5.ideals import (
    IdealHNF,
    ideal_from_generator,
    ideal_mul,
)
from hecke5.matrices import (
    Mat2,
    NotCoprimeError,
    eval_word,
    is_member,
    reduce_fraction,
)
from hecke5.quotient import (
    Chain,
    ResMat,
    coset_words,
    index_g,
    sl2_order,
    subgroup_generated,
)
from hecke5.verify import (
    LEVEL2_GENERATORS,
    verify_conjugation_action,
    verify_identities,
    verify_kernel_layer,
    verify_level5_structure,
)

from conftest import random_golden, random_word, witness

TAU = GoldenInt(2, 1)
TAU_11 = GoldenInt(3, 1)

# (generator, expected index) for the base enumeration criterion
BASE_LEVELS = [
    (2, 10),
    (3, 120),
    (TAU, 120),
    (4, 320),
    (5, 15000),
    (8, 20480),
    (9, 87480),
    (7, 117600),
    (TAU_11, 1320),
]


def _ideal(gen):
    return gen if isinstance(gen, IdealHNF) else ideal_from_generator(gen)


class TestCriterion1Enumeration:
    @pytest.mark.parametrize("gen,expected", BASE_LEVELS)
    def test_base_levels(self, quotient_cache, gen, expected):
        assert len(quotient_cache(gen)) == expected

    def test_summary(self, quotient_cache):
        for gen, expected in BASE_LEVELS:
            assert len(quotient_cache(gen)) == expected
        print("PASS criterion 1: nine enumerated indices match the expected constants")

    @pytest.mark.extended
    def test_full_eleven(self, quotient_cache):
        assert len(quotient_cache(11)) == 1742400
        print("PASS criterion 1 (extended): index at level (11) is 1742400")


class TestCriterion2FormulaMatchesEnumeration:
    def test_base_and_composite_levels(self, quotient_cache):
        composites = [
            ideal_from_generator(6),
            ideal_from_generator(10),
            ideal_from_generator(14),
        ]
        # (10) = (2) * (2+L)^2, exercising multiplicativity across parts
        tau = ideal_from_generator(TAU)
        assert composites[1] == ideal_mul(ideal_from_generator(2), ideal_mul(tau, tau))
        levels = [_ideal(gen) for gen, _ in BASE_LEVELS] + composites
        for level in levels:
            assert index_formula(level).total == len(quotient_cache(level)), level
        print(
            "PASS criterion 2: closed formula equals enumeration on "
            f"{len(levels)} levels"
        )

    @pytest.mark.extended
    def test_full_eleven(self, quotient_cache):
        level = ideal_from_generator(11)
        assert index_formula(level).total == len(quotient_cache(level)) == 1742400
        print("PASS criterion 2 (extended): formula equals enumeration at (11)")


class TestCriterion3Surjectivity:
    def test_exactly_the_levels_coprime_to_six(self, quotient_cache):
        for gen, _ in BASE_LEVELS:
            level = _ideal(gen)
            expected = math.gcd(level.norm, 6) == 1
            order = len(quotient_cache(gen))
            assert (order == sl2_order(level)) == expected, level
            if not expected:
                assert order < sl2_order(level)
        six = ideal_from_generator(6)
        assert len(quotient_cache(six)) < sl2_order(six)
        print(
            "PASS criterion 3: reduction is onto SL2 exactly when the level "
            "norm is coprime to 6"
        )


class TestCriterion4InhomogeneousIndices:
    def test_level_two_and_four(self):
        two, four = ideal_from_generator(2), ideal_from_generator(4)
        g2, g4 = index_g(two, Chain(two).order), index_g(four, Chain(four).order)
        assert g2 == 10
        imgs = [ResMat.from_mat2(four, m).key for m in LEVEL2_GENERATORS]
        order_mod4 = subgroup_generated(Chain(four), imgs).order
        assert order_mod4 == 16
        # [G(2):G(4)] = [G:G(4)] / [G:G(2)] also gives 16
        assert g4 // g2 == 16
        print("PASS criterion 4: [G:G(2)] = 10 and [G(2):G(4)] = 16")


class TestCriterion5KernelLayers:
    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1)])
    def test_each_case(self, p, n):
        report = verify_kernel_layer(p, n)
        assert report.passed, witness(report)

    def test_summary(self):
        print(
            "PASS criterion 5: kernel layers are elementary abelian of order "
            "p^6 with the expected subgroup structure for all five (p, n)"
        )


class TestCriterion6ConjugationAction:
    def test_passes(self):
        report = verify_conjugation_action()
        assert report.passed, witness(report)
        by_name = {c.name: c for c in report.checks}
        assert by_name["invariant-subspaces"].computed == "2"
        assert by_name["subspace-count"].computed == "64"
        for g in "STJ":
            assert by_name[f"action-of-{g}"].passed
        print(
            "PASS criterion 6: both action derivations agree and exactly "
            "2 of 64 subspaces are invariant"
        )


class TestCriterion7Level5Structure:
    def test_passes(self):
        report = verify_level5_structure()
        assert report.passed, witness(report)
        by_name = {c.name: c for c in report.checks}
        assert by_name["quotient-order"].computed == "15000"
        assert by_name["delta-subgroup-order"].computed == "125"
        assert by_name["fifth-power-subgroup-index"].computed == "1"
        print(
            "PASS criterion 7: level-5 quotient of order 15000 with a normal "
            "elementary abelian kernel of order 125; fifth powers have index 1"
        )


class TestCriterion8Identities:
    def test_passes(self):
        report = verify_identities()
        assert report.passed, witness(report)
        print(f"PASS criterion 8: all {len(report.checks)} identity checks hold")


class TestCriterion9PropertySuites:
    def test_ten_thousand_divisions(self):
        rng = random.Random(20260824)
        for _ in range(10_000):
            a = random_golden(rng)
            b = random_golden(rng)
            if not b:
                continue
            q, r = divmod_pseudo(a, b)
            assert a == LAMBDA * b * q + r
            c = LAMBDA * b
            abs_c = c if c.sign() >= 0 else -c
            r2 = r + r
            assert (r2 + abs_c).sign() > 0 and (r2 - abs_c).sign() <= 0
            for bad in (q - 1, q + 1):
                rb = (a - LAMBDA * b * bad) * 2
                assert not (
                    (rb + abs_c).sign() > 0 and (rb - abs_c).sign() <= 0
                )
        print("PASS criterion 9a: 10^4 random divisions satisfy identity, "
              "interval and uniqueness")

    def test_thousand_words_are_members(self):
        rng = random.Random(20260825)
        for _ in range(1_000):
            m = eval_word(random_word(rng, max_len=40))
            assert is_member(m)
            assert reduce_fraction(m.a11, m.a21).e == 0 == reduce_fraction(m.a12, m.a22).e
        print("PASS criterion 9b: 10^3 random words give members with "
              "reduced columns")

    def test_thousand_tampered_matrices_rejected(self):
        rng = random.Random(20260826)
        unit_translation = Mat2(ONE, ONE, ZERO, ONE)
        rejected = 0
        while rejected < 900:
            m = eval_word(random_word(rng, max_len=30))
            entries = list(m.entries())
            i = rng.randrange(4)
            entries[i] = entries[i] + ONE
            tampered = Mat2(*entries)
            if tampered.det() == ONE and is_member(tampered):
                continue  # perturbation landed back in the group; skip
            assert not is_member(tampered)
            rejected += 1
        for _ in range(100):
            m = eval_word(random_word(rng, max_len=30))
            crafted = m * unit_translation
            assert crafted.det() == ONE
            assert not is_member(crafted)
            rejected += 1
        assert rejected >= 1_000
        print("PASS criterion 9c: 10^3 tampered matrices rejected "
              "(including det-1 impostors)")

    def test_thousand_unit_shifts(self):
        rng = random.Random(20260827)
        checked = 0
        while checked < 1_000:
            a = random_golden(rng, 10**4)
            b = random_golden(rng, 10**4)
            if not b:
                continue
            try:
                e0 = reduce_fraction(a, b).e
            except NotCoprimeError:
                continue
            n = rng.randint(-5, 5)
            u = lambda_power(n)
            assert reduce_fraction(a * u, b * u).e == e0 - n
            checked += 1
        print("PASS criterion 9d: e(aL^n / bL^n) = e(a/b) - n on 10^3 samples")


class TestCriterion10CosetWords:
    @pytest.mark.parametrize("gen", [2, 3, TAU, 4])
    def test_words_enumerate_cosets(self, quotient_cache, gen):
        level = _ideal(gen)
        words = dict(coset_words(level, quotient_cache(gen)))
        assert len(words) == index_formula(level).total
        # each word evaluates back to its own key; dict keys are distinct
        evaluated = [ResMat.from_mat2(level, eval_word(w)).key for w in words.values()]
        assert evaluated == list(words)

    def test_summary(self):
        print(
            "PASS criterion 10: coset word lists for (2), (3), (2+L), (4) are "
            "complete, correct and distinct"
        )
