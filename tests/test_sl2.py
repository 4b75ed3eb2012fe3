import random
import re
from fractions import Fraction

import pytest

from quiddity import eta, sl2
from quiddity.errors import InvalidSequenceError, NotUnimodularError
from quiddity.sl2 import I, S, T, U, Mat2, SUWord

V = Mat2(1, 1, 0, 1)  # upper translation, V = -S*T


def check_conjugation_lemma(x: Mat2, a: int, b: int) -> bool:
    """Whether X*U^a*S == U^b*S*X (true only when a == b)."""
    return x @ U ** a @ S == U ** b @ S @ x


def check_cancellation_identity(a: int, b: int) -> bool:
    """(U^(a+1)*S)(U*S)(U^(b+1)*S) == (U^a*S)(U^b*S), an identity in SL2(Z)."""
    return sl2.word_product((a + 1, 1, b + 1)) == sl2.word_product((a, b))


def test_generator_sanity():
    assert S ** 4 == I and S ** 2 == -I
    assert T ** 3 == I
    assert S @ T @ T == U  # U = S*T^2
    assert U.inverse() @ S == T  # and conversely T = U^-1*S


def test_u_powers():
    for a in range(-5, 6):
        assert sl2.u_pow(a) == Mat2(1, 0, a, 1)
        assert U ** a == sl2.u_pow(a)


def test_mat_mul_examples():
    assert U @ S == Mat2(0, 1, -1, 1)
    assert S @ T @ T == Mat2(1, 0, 1, 1)
    assert (U @ S) ** 3 == -I


def test_determinant_enforced():
    with pytest.raises(NotUnimodularError):
        Mat2(1, 0, 0, 2)
    with pytest.raises(NotUnimodularError):
        Mat2(2, 0, 0, 2)


@pytest.mark.parametrize("entries", [
    (0.5, 0, 0, 2),
    (Fraction(1, 2), 0, 0, 2),
    (1.0, 0, 0, 1),
    (1, 0, 0, 1.0),
    (True, False, False, True),
    (1, 0, 0, True),
    (Fraction(1), 0, 0, 1),
])
def test_entries_must_be_ints(entries):
    # determinant 1 each time, so only the entry check refuses them
    a, b, c, d = entries
    with pytest.raises(InvalidSequenceError, match=re.escape(repr([[a, b], [c, d]]))):
        Mat2(*entries)


def test_equality_hash_and_repr():
    assert (Mat2(1, 0, 0, 1) == (1, 0, 0, 1)) is False  # a tuple is not a Mat2
    assert len({S @ S, -I, Mat2(-1, 0, 0, -1)}) == 1  # equal matrices hash equal
    assert repr(T) == "Mat2(a=0, b=1, c=-1, d=-1)"


@pytest.mark.parametrize("k", [True, False, 2.5, 2.0, None, "2"])
def test_power_refuses_a_non_int_exponent(k):
    with pytest.raises(InvalidSequenceError, match=rf"^exponent must be an int, got {re.escape(repr(k))}$"):
        U ** k


@pytest.mark.parametrize("k", [-7, -2, -1, 0, 1, 2, 5, 64])
def test_power_equals_repeated_products(k):
    m = U @ S @ sl2.u_pow(3)
    step = m if k >= 0 else m.inverse()
    want = I
    for _ in range(abs(k)):
        want = want @ step
    assert m ** k == want


def test_word_matrix_of_float_entries_is_refused():
    with pytest.raises(InvalidSequenceError, match="matrix entries must be ints"):
        eta.word_matrix((1.0, 1, 1))


@pytest.mark.parametrize(
    "m,order",
    [
        (U @ S, 6),
        (U @ S @ sl2.u_pow(2) @ S, 4),
        (U.inverse() @ S, 3),
        (I, 1),
        (-I, 2),
        (sl2.u_pow(2) @ S, None),
        (U, None),
        (sl2.u_pow(-3), None),
    ],
)
def test_element_order(m, order):
    assert sl2.element_order(m) == order


def test_u_inverse_s_is_susu():
    assert U.inverse() @ S == S @ U @ S @ U


def test_eval_word_examples():
    assert sl2.eval_word(SUWord(factors=(1, 1, 1))) == -I
    assert sl2.eval_word(SUWord(factors=(1, 1, 1), trailing_s=False)) == S
    assert sl2.eval_word(SUWord(factors=(2, 2, 2))) == Mat2(-2, 3, -3, 4)
    assert sl2.eval_word(SUWord(factors=(), trailing_s=False)) == I
    assert sl2.eval_word(SUWord(factors=(), prefix_s=True, trailing_s=False)) == S


@pytest.mark.parametrize("word, text", [
    (SUWord((1, 2), prefix_s=True), "S*U*S*U^2*S"),
    (SUWord(()), "S"),
    (SUWord((), trailing_s=False), "I"),
    (SUWord((3,), trailing_s=False), "U^3"),
])
def test_word_text(word, text):
    assert str(word) == text


def test_eval_word_det_is_one():
    rng = random.Random(11)
    for _ in range(100):
        factors = tuple(rng.randrange(-4, 5) or 1 for _ in range(rng.randrange(1, 8)))
        w = SUWord(factors=factors, prefix_s=rng.random() < 0.5, trailing_s=rng.random() < 0.5)
        m = sl2.eval_word(w)
        assert m.a * m.d - m.b * m.c == 1


def test_rotated_word_stays_central():
    # if U^{a1}S...U^{an}S is +-I then so is every rotation of the factors
    rng = random.Random(23)
    seeds = [(1, 1, 1), (2, 1, 2, 1), (1, 2, 2, 1, 3), (3, 1, 2, 3, 1, 2)]
    for factors in seeds:
        base = sl2.eval_word(SUWord(factors=factors))
        assert base in (I, -I)
        for k in range(1, len(factors)):
            rotated = factors[k:] + factors[:k]
            assert sl2.eval_word(SUWord(factors=rotated)) in (I, -I)
    for _ in range(50):  # and random non-central words stay non-central under rotation
        factors = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(3, 7)))
        values = {sl2.eval_word(SUWord(factors=factors[k:] + factors[:k])) in (I, -I)
                  for k in range(len(factors))}
        assert len(values) == 1


def test_eval_tokens():
    assert sl2.eval_tokens("U*S*U*S*U*S") == -I
    assert sl2.eval_tokens("U^2*S*U*S") == sl2.u_pow(2) @ S @ U @ S
    assert sl2.eval_tokens("S") == S
    assert sl2.eval_tokens("U^-1*S") == T
    with pytest.raises(ValueError):
        sl2.eval_tokens("Q*S")


class TestNormalForm:
    def test_identity(self):
        form = sl2.ts_normal_form(I)
        assert form.sign == 1 and form.b0 == 0 and form.exponents == () and form.b1 == 0
        assert str(form) == "I"

    def test_u(self):
        form = sl2.ts_normal_form(U)
        assert form.to_matrix() == U
        assert (form.sign, form.b0, form.exponents, form.b1) == (1, 0, (2,), 0)
        assert str(form) == "S*T^2"

    def test_t_squared_needs_leading_exponent_two(self):
        # the sign can absorb S^2 but not T^2, so b0 must reach 2
        form = sl2.ts_normal_form(T @ T)
        assert form.to_matrix() == T @ T
        assert form.b0 == 2

    def test_exponent_range(self):
        rng = random.Random(5)
        for _ in range(200):
            m = I
            for _ in range(rng.randrange(0, 25)):
                m = m @ rng.choice([S, T, U, U.inverse(), V])
            form = sl2.ts_normal_form(m)
            assert form.to_matrix() == m
            assert all(e in (1, 2) for e in form.exponents)
            assert form.b0 in (0, 1, 2) and form.b1 in (0, 1)

    def test_round_trip_twenty_random_factors(self):
        rng = random.Random(99)
        for _ in range(100):
            m = I
            for _ in range(20):
                m = m @ rng.choice([S, T, U, U.inverse()])
            assert sl2.ts_normal_form(m).to_matrix() == m

    def test_nonempty_form_is_never_central(self):
        # the alternating S/T form only reduces to +-I when it is empty
        rng = random.Random(31)
        for _ in range(200):
            m = I
            for _ in range(rng.randrange(1, 30)):
                m = m @ rng.choice([S, T, U, U.inverse()])
            form = sl2.ts_normal_form(m)
            if m in (I, -I):
                assert form.b0 == 0 and form.exponents == () and form.b1 == 0
            else:
                assert form.b0 or form.exponents or form.b1


class TestConjugationLemma:
    def test_identity_conjugator(self):
        assert check_conjugation_lemma(I, 3, 3)
        assert not check_conjugation_lemma(I, 2, 3)

    def test_random_unequal_exponents_never_conjugate(self):
        rng = random.Random(42)
        for _ in range(1000):
            x = I
            for _ in range(rng.randrange(0, 12)):
                x = x @ rng.choice([S, T, U, U.inverse()])
            a = rng.randrange(-6, 7)
            b = rng.randrange(-6, 7)
            if a == b:
                b += 1
            assert not check_conjugation_lemma(x, a, b)


def test_cancellation_identity_small():
    assert check_cancellation_identity(0, 0)
    assert check_cancellation_identity(3, -2)


def test_cancellation_identity_sweep():
    assert all(
        check_cancellation_identity(a, b)
        for a in range(-10, 11)
        for b in range(-10, 11)
    )


def _letters(m):
    """Letters of the normal form of m: one per S and per power of T."""
    form = sl2.ts_normal_form(m)
    return (form.b0 > 0) + 2 * len(form.exponents) + form.b1


def test_normal_form_letter_limit():
    limit = sl2.NORMAL_FORM_LETTER_CAP
    at_limit = sl2.eval_tokens(f"U^{limit // 2}")
    assert _letters(at_limit) == limit
    assert sl2.ts_normal_form(at_limit).to_matrix() == at_limit
    over = sl2.eval_tokens(f"U^-{limit // 2}*S*U")
    with pytest.raises(InvalidSequenceError, match=f"needs {limit + 1} S/T letters, "
                                                   f"over the limit of {limit}$"):
        sl2.ts_normal_form(over)
    under = sl2.eval_tokens(f"U^-{limit // 2 - 1}*S*U")
    assert _letters(under) == limit - 1
    assert sl2.ts_normal_form(under).to_matrix() == under
    with pytest.raises(InvalidSequenceError, match="needs 2000000000 S/T letters"):
        sl2.ts_normal_form(sl2.eval_tokens("U^1000000000"))


def test_words_of_query_size_stay_far_below_the_letter_limit():
    # the words of quiddity sequences of up to 48 entries, some exponents negated
    rng = random.Random(11)
    worst = 0
    for _ in range(300):
        q = (1, 1, 1)
        for _ in range(rng.randrange(0, 46)):
            q = eta.expand(q, rng.randrange(len(q)))
        exps = [x if rng.random() < 0.8 else -x for x in q[: rng.randrange(2, len(q) + 1)]]
        word = "*".join(f"U^{x}*S" for x in exps)
        worst = max(worst, _letters(sl2.eval_tokens(word)))
    assert worst * 100 < sl2.NORMAL_FORM_LETTER_CAP
