"""Property tests of the integer SL2 kernel against the validated Mat2 path."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiddity import eta, frieze, sl2
from quiddity.errors import NotUnimodularError
from quiddity.sl2 import I, S, Mat2
from strategies import quiddities, same_sum_sequences

exponent_lists = st.lists(st.integers(-50, 50), max_size=60)
tokens = st.one_of(st.just("S"), st.just("U"), st.integers(-9, 9).map(lambda k: f"U^{k}"))


def fold(exponents, start=I):
    """start * U^x0*S * U^x1*S * ... by Mat2 products."""
    m = start
    for x in exponents:
        m = m @ sl2.u_pow(x) @ S
    return m


@st.composite
def matrices(draw):
    return fold(draw(st.lists(st.integers(-6, 6), max_size=12)))


@given(exponent_lists, matrices())
def test_word_product_equals_mat2_fold(exponents, start):
    assert sl2.word_product(exponents) == fold(exponents).entries()
    assert sl2.word_product(exponents, start.entries()) == fold(exponents, start).entries()


@given(matrices(), matrices())
def test_mul_equals_mat2_product(m, n):
    assert sl2.mul(m.entries(), n.entries()) == (m @ n).entries()


@given(st.one_of(quiddities(max_n=28), same_sum_sequences(max_n=20),
                 st.lists(st.integers(1, 8), min_size=3, max_size=16)))
def test_is_eta_agrees_with_contraction(seq):
    assert eta.is_eta(seq) == eta.is_eta_by_contraction(seq)


@given(quiddities(max_n=28))
def test_grown_sequences_are_quiddities(seq):
    assert eta.is_eta(seq)
    assert eta.word_matrix(seq) == -I


@given(st.lists(tokens, min_size=1, max_size=40))
def test_eval_tokens_equals_mat2_fold(toks):
    expected = I
    for tok in toks:
        expected = expected @ (S if tok == "S" else sl2.u_pow(int(tok[2:] or 1)))
    assert sl2.eval_tokens("*".join(toks)) == expected


@given(exponent_lists, st.booleans(), st.booleans())
def test_eval_word_equals_mat2_fold(exponents, prefix_s, trailing_s):
    word = sl2.SUWord(factors=tuple(exponents), prefix_s=prefix_s, trailing_s=trailing_s)
    expected = S if prefix_s else I
    for i, x in enumerate(exponents):
        expected = expected @ sl2.u_pow(x)
        if i + 1 < len(exponents) or trailing_s:
            expected = expected @ S
    if not exponents and trailing_s:
        expected = expected @ S
    assert sl2.eval_word(word) == expected


@given(matrices())
def test_element_order_equals_power_search(m):
    p, order = m, None
    for k in range(1, 13):
        if p == I:
            order = k
            break
        p = p @ m
    assert sl2.element_order(m) == order


# long L and U runs; the form of U^x*S has at most 2|x| + 1 letters, so
# four such factors stay under NORMAL_FORM_LETTER_CAP
@given(st.one_of(matrices(), st.lists(st.integers(-10**4, 10**4), max_size=4).map(fold)))
def test_normal_form_round_trip(m):
    # by uniqueness of the alternating form, this shape and the round trip determine it
    form = sl2.ts_normal_form(m)
    assert form.to_matrix() == m
    assert form.sign in (1, -1) and form.b0 in (0, 1, 2) and form.b1 in (0, 1)
    assert set(form.exponents) <= {1, 2}


@settings(max_examples=30)
@given(quiddities(max_n=28))
def test_matrix_frieze_cells_are_mat2(seq):
    window = frieze.generate_matrix_frieze(seq)
    n = len(seq)
    assert all(type(cell) is Mat2 for row in window.cells for cell in row)
    for j in range(n):
        assert window.cell(n, j) == S  # the full word is -I, so row n is -I * S^-1
        assert window.cell(2, j) == sl2.u_pow(seq[(j + 1) % n]) @ S @ sl2.u_pow(seq[j])


def test_matrix_frieze_rows_match_the_seeded_frieze():
    rng = random.Random(5)
    seq = (1, 1, 1)
    for _ in range(9):
        seq = eta.expand(seq, rng.randrange(len(seq)))
    rows = frieze.generate_matrix_frieze_rows(-S, [sl2.u_pow(a) for a in seq], len(seq))
    assert [list(r) for r in rows] == [list(r) for r in frieze.generate_matrix_frieze(seq).cells]
    assert all(type(cell) is Mat2 for row in rows for cell in row)


def test_mat2_still_validates():
    with pytest.raises(NotUnimodularError):
        Mat2(1, 1, 1, 1)
