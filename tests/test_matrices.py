import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke5.golden import GoldenInt, IterationCapError, LAMBDA, ONE, ZERO, lambda_power
from hecke5.matrices import (
    IDENTITY,
    Mat2,
    NotCoprimeError,
    NotReducedError,
    S,
    T,
    complete_column,
    eval_word,
    is_member,
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
        assert eval_word("SS") == -IDENTITY
        assert eval_word("SSSS") == IDENTITY

    def test_st_is_elliptic_of_order_five(self):
        st_ = eval_word("ST")
        assert st_**5 == IDENTITY
        assert all(st_**k != IDENTITY for k in range(1, 5))

    def test_ts_inverse_has_order_ten(self):
        m = eval_word("Ts")
        assert m**5 == -IDENTITY
        assert m**10 == IDENTITY

    def test_minus_identity_is_central(self):
        for w in ("S", "T", "sT", "TTs"):
            m = eval_word(w)
            assert m * -IDENTITY == -IDENTITY * m

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            eval_word("SxT")

    @given(st.text(alphabet="SsTt", max_size=300))
    @settings(max_examples=200)
    def test_matches_generic_product(self, w):
        # the reference: the left fold of the generic Mat2 product
        letters = {"S": S, "s": S.inverse(), "T": T, "t": T.inverse()}
        product = IDENTITY
        for letter in w:
            product = product * letters[letter]
        assert eval_word(w) == product

    @given(words, st.characters().filter(lambda c: c not in "SsTt"), st.text())
    def test_bad_letter_named(self, left, bad, right):
        with pytest.raises(ValueError, match=f"^bad word letter {re.escape(repr(bad))}$"):
            eval_word(left + bad + right)

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
            # the smallest coprime pair where a tie splits these quotients
            # from gcd_pseudo's: see test_tie_splits_from_the_gcd
            (GoldenInt(-3, 3), GoldenInt(-2, -2), 4),
        ],
    )
    def test_reduced_factor_examples(self, a, b, e):
        assert reduce_fraction(a, b).e == e

    def test_tie_splits_from_the_gcd(self):
        # gcd_pseudo's quotients on this pair are [0, -2, 1, 1, -2, 1], not
        # these with alternating signs: the third step is a tie of
        # divmod_pseudo, which rounds -x/c and x/c to the same side
        rr = reduce_fraction(GoldenInt(-3, 3), GoldenInt(-2, -2))
        assert rr.quotients == [0, 2, 2, 1, 2, 1]
        assert (rr.unit.sign, rr.e) == (-1, 4)
        assert str(rr.completion) == "[[-3-6L,4+4L],[10+16L,-7-14L]]"

    def test_coordinate_budget(self):
        # L^300 against 1 reaches a 15,517-bit coordinate, inside the
        # 32,768-bit budget; L^1600 passes it
        assert reduce_fraction(lambda_power(300), ONE).e == 22351
        with pytest.raises(IterationCapError, match="32768-bit coordinate budget"):
            reduce_fraction(lambda_power(1600), ONE)

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

    def test_completion_matches_generic_product(self):
        # the reference: T^q * S^-1 per quotient as generic Mat2 products
        rng = random.Random(13)
        for _ in range(100):
            rr = reduce_fraction(*eval_word(random_word(rng, 80)).entries()[::2])
            product = IDENTITY
            for q in rr.quotients:
                product = product * translation(q) * S.inverse()
            assert rr.completion == product

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
        # reduced: the column already occurs in a group element
        assert reduce_fraction(2 * lambda_power(2), 3 * lambda_power(3)).e == 0
        assert reduce_fraction(ONE, ONE).e != 0
        assert reduce_fraction(ONE, ZERO).e == 0
        assert reduce_fraction(LAMBDA, ZERO).e != 0

    def test_unit_translation_not_member(self):
        assert not is_member(Mat2(ONE, ONE, ZERO, ONE))

    def test_identity_and_generators(self):
        assert is_member(IDENTITY)
        assert is_member(S) and is_member(T)
        assert is_member(-IDENTITY)

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

    def test_membership_workload_mix(self):
        # the benchmark's membership ops: words of 4-40 blocks T^+-q S^+-1
        # (q <= 6), every second one moved out of the group by
        # diag(L^k, L^-k), 1 <= |k| <= 64
        rng = random.Random(20261018)
        for j in range(300):
            word = "".join(
                rng.choice("Tt") * rng.randint(1, 6) + rng.choice("Ss")
                for _ in range(rng.randint(4, 40))
            )
            k = 0 if j % 2 == 0 else rng.choice((-1, 1)) * rng.randint(1, 64)
            m = Mat2(lambda_power(k), ZERO, ZERO, lambda_power(-k)) * eval_word(word)
            assert is_member(m) is (k == 0), (word, k)

    def test_second_column_criterion(self):
        # X [[g, y], [0, g]] for a member X and g = +-1 is a member exactly
        # when y is in LZ (the stabilizer of infinity is +-<T>), exactly
        # when its second column is reduced.  Its first column, g times
        # X's, is reduced either way, so the y outside LZ are the
        # non-members that only the second column rejects.
        rng = random.Random(20261019)
        outside = 0
        for _ in range(400):
            x = eval_word(random_word(rng))
            g = rng.choice((ONE, -ONE))
            y = GoldenInt(rng.randint(-3, 3), rng.randint(-3, 3))
            m = x * Mat2(g, y, ZERO, g)
            assert reduce_fraction(m.a11, m.a21).e == 0
            second_reduced = reduce_fraction(m.a12, m.a22).e == 0
            assert is_member(m) is (y.a == 0) is second_reduced, (m, y)
            outside += y.a != 0
        assert outside > 300


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

    @pytest.mark.parametrize(
        "bad", ["", "[[1,2]]", "[[1,2],[3]]", "[1,2],[3,4]", "[[1,2 0L],[0,1]]"]
    )
    def test_errors(self, bad):
        with pytest.raises(ValueError):
            parse_matrix(bad)
