import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke5.golden import GoldenInt, LAMBDA, ONE, ZERO, lambda_power
from hecke5.matrices import (
    IDENTITY,
    MINUS_IDENTITY,
    Mat2,
    NotCoprimeError,
    NotReducedError,
    S,
    T,
    complete_column,
    eval_word,
    is_member,
    is_reduced,
    parabolic_conjugate,
    parse_matrix,
    reduce_fraction,
    translation,
)

from hecke5.verify import J, SAMPLE_MATRICES

from conftest import random_golden, random_word

words = st.text(alphabet="SsTt", max_size=25)


class TestMat2:
    def test_det_of_generators(self):
        assert S.det() == ONE and T.det() == ONE

    def test_inverse(self):
        assert S * S.inverse() == IDENTITY
        assert T * T.inverse() == IDENTITY
        m = eval_word("STsT")
        assert m * m.inverse() == IDENTITY

    def test_inverse_rejects_other_dets(self):
        with pytest.raises(ValueError):
            Mat2(2 * ONE, ZERO, ZERO, ONE).inverse()

    def test_pow(self):
        assert T**3 == translation(3)
        assert T**-2 == translation(-2)
        assert S**0 == IDENTITY

    @pytest.mark.parametrize(
        "m", [SAMPLE_MATRICES[0], eval_word("ST"), J], ids=["sample-0", "ST", "J-det-minus-1"]
    )
    def test_pow_matches_repeated_product(self, m):
        for n in range(-12, 13):
            product = IDENTITY
            for _ in range(abs(n)):
                product = product * (m if n > 0 else m.inverse())
            assert m**n == product, n

    def test_from_ints(self):
        m = Mat2.from_ints([[(0, 1), (1, 0)], [(0, 0), (2, -1)]])
        assert m.a11 == LAMBDA and m.a22 == GoldenInt(2, -1)


class TestWordRelations:
    def test_s_has_order_four(self):
        assert eval_word("SS") == MINUS_IDENTITY
        assert eval_word("SSSS") == IDENTITY

    def test_st_is_elliptic_of_order_five(self):
        st_ = eval_word("ST")
        assert st_**5 == IDENTITY
        assert all(st_**k != IDENTITY for k in range(1, 5))

    def test_ts_inverse_has_order_ten(self):
        m = eval_word("Ts")
        assert m**5 == MINUS_IDENTITY
        assert m**10 == IDENTITY

    def test_minus_identity_is_central(self):
        for w in ("S", "T", "sT", "TTs"):
            m = eval_word(w)
            assert m * MINUS_IDENTITY == MINUS_IDENTITY * m

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            eval_word("SxT")

    @given(words)
    def test_word_inverse(self, w):
        rev = "".join({"S": "s", "s": "S", "T": "t", "t": "T"}[c] for c in reversed(w))
        assert eval_word(w) * eval_word(rev) == IDENTITY

    @given(words)
    def test_words_are_members(self, w):
        m = eval_word(w)
        assert m.det() == ONE
        assert is_member(m)


class TestReduceFraction:
    @pytest.mark.parametrize(
        "a,b,e",
        [
            (ONE, ONE, 1),
            (GoldenInt(2, 0), 3 * lambda_power(1), 2),
            (ONE, ZERO, 0),
            (LAMBDA, ZERO, -1),
        ],
    )
    def test_reduced_factor_examples(self, a, b, e):
        assert reduce_fraction(a, b).e == e

    def test_zero_zero(self):
        with pytest.raises(ValueError):
            reduce_fraction(ZERO, ZERO)

    def test_non_coprime(self):
        with pytest.raises(NotCoprimeError):
            reduce_fraction(GoldenInt(2, 0), GoldenInt(4, 0))

    def test_completion_recovers_scaled_column(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b = random_golden(rng, 50), random_golden(rng, 50)
            if not a and not b:
                continue
            try:
                rr = reduce_fraction(a, b)
            except NotCoprimeError:
                continue
            assert rr.completion.det() == ONE
            assert is_member(rr.completion)
            scale = lambda_power(rr.e)
            col = rr.completion * Mat2(
                rr.unit.sign * ONE, ZERO, ZERO, ONE
            )
            assert col.a11 == a * scale
            assert col.a21 == b * scale

    def test_shift_by_unit_power(self):
        rng = random.Random(11)
        for _ in range(50):
            a, b = random_golden(rng, 50), random_golden(rng, 50)
            if not b:
                continue
            try:
                e0 = reduce_fraction(a, b).e
            except NotCoprimeError:
                continue
            n = rng.randint(-3, 3)
            u = lambda_power(n)
            assert reduce_fraction(a * u, b * u).e == e0 - n


class TestMembership:
    def test_reduced_examples(self):
        assert is_reduced(2 * lambda_power(2), 3 * lambda_power(3))
        assert not is_reduced(ONE, ONE)
        assert is_reduced(ONE, ZERO)
        assert not is_reduced(LAMBDA, ZERO)

    def test_unit_translation_not_member(self):
        assert not is_member(Mat2(ONE, ONE, ZERO, ONE))

    def test_identity_and_generators(self):
        assert is_member(IDENTITY)
        assert is_member(S) and is_member(T)
        assert is_member(MINUS_IDENTITY)

    def test_det_minus_one_rejected(self):
        assert not is_member(Mat2(ZERO, ONE, ONE, ZERO))

    def test_scaled_member_rejected(self):
        m = eval_word("TST")
        scaled = Mat2(*(x * LAMBDA for x in m.entries()))
        assert not is_member(scaled)

    def test_random_words_bulk(self):
        rng = random.Random(20240818)
        for _ in range(200):
            assert is_member(eval_word(random_word(rng)))


class TestCompleteColumn:
    def test_first_column_and_membership(self):
        rng = random.Random(3)
        found = 0
        while found < 30:
            w = random_word(rng)
            m = eval_word(w)
            x = complete_column(m.a11, m.a21)
            assert x.a11 == m.a11 and x.a21 == m.a21
            assert is_member(x)
            found += 1

    def test_rejects_unreduced(self):
        with pytest.raises(NotReducedError):
            complete_column(ONE, ONE)

    def test_rejects_non_coprime(self):
        with pytest.raises(NotCoprimeError):
            complete_column(GoldenInt(2, 0), GoldenInt(4, 0))


class TestParabolicConjugate:
    @given(st.integers(-5, 5))
    @settings(max_examples=20)
    def test_identity_column(self, m):
        out = parabolic_conjugate(ONE, ZERO, m)
        assert out == translation(m)

    def test_closed_form_and_membership(self):
        rng = random.Random(5)
        for _ in range(20):
            mat = eval_word(random_word(rng))
            a, c = mat.a11, mat.a21
            m = rng.randint(-4, 4)
            out = parabolic_conjugate(a, c, m)
            ml = GoldenInt(0, m)
            assert out.a12 == a * a * ml
            assert out.a21 == -(c * c) * ml
            assert out.det() == ONE
            assert is_member(out)


class TestParseMatrix:
    def test_roundtrip(self):
        m = eval_word("TsT")
        assert parse_matrix(str(m)) == m

    def test_example(self):
        m = parse_matrix("[[1, -1L], [0, 1]]")
        assert m == Mat2(ONE, -LAMBDA, ZERO, ONE)

    @pytest.mark.parametrize("bad", ["", "[[1,2]]", "[[1,2],[3]]", "[1,2],[3,4]"])
    def test_errors(self, bad):
        with pytest.raises(ValueError):
            parse_matrix(bad)
