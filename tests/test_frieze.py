import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiddity import eta, frieze, sl2
from quiddity.errors import NotQuiddityError

# Shared machines stall for long stretches; a deadline would time the machine.
relaxed = settings(deadline=None)

PATTERN_I = (4, 2, 1, 3, 2, 2, 1)


def test_triangle_rows():
    w = frieze.generate_frieze((1, 1, 1))
    assert w.rows == ((0, 0, 0), (1, 1, 1), (1, 1, 1), (0, 0, 0))
    assert frieze.has_ones_row(w) == 2


def test_pentagon_rows():
    w = frieze.generate_frieze((1, 2, 2, 1, 3))
    assert w.rows[3] == (1, 3, 1, 2, 2)
    assert w.rows[4] == (1, 1, 1, 1, 1)
    assert frieze.has_ones_row(w) == 4


def test_square_ones_row():
    assert frieze.has_ones_row(frieze.generate_frieze((2, 1, 2, 1))) == 3


def test_pattern_i_interior_rows():
    w = frieze.generate_frieze(PATTERN_I)
    # the hand-drawn layout shows row 3 starting one column to the left
    assert tuple(w.value(3, j) for j in range(-1, 6)) == (3, 7, 1, 2, 5, 3, 1)
    assert tuple(w.value(4, j) for j in range(-1, 6)) == (5, 3, 1, 3, 7, 1, 2)
    assert tuple(w.value(5, j) for j in range(-2, 5)) == (3, 2, 2, 1, 4, 2, 1)
    assert frieze.has_ones_row(w) == 6


def test_render_pattern_i():
    w = frieze.generate_frieze(PATTERN_I)
    assert frieze.render_frieze(w) == "\n".join(
        [
            "1  1  1  1  1  1  1",
            "  4  2  1  3  2  2  1",
            "3  7  1  2  5  3  1",
            "  5  3  1  3  7  1  2",
            "3  2  2  1  4  2  1",
            "  1  1  1  1  1  1  1",
        ]
    )


def test_short_period_imposter_is_rejected():
    # (1,2) repeated to length 6 behaves like the valid length-4 sequence
    # at first (ones at row 3, zeros at 4), but the frieze cannot reach
    # row n: the diamond rule runs into 0/0 at row 6
    assert not eta.is_eta((1, 2, 1, 2, 1, 2))
    with pytest.raises(NotQuiddityError) as err:
        frieze.generate_frieze((1, 2, 1, 2, 1, 2))
    assert err.value.row == 6


def test_quiddity_row_of_ones_does_not_count_for_long_sequences():
    w = frieze.generate_frieze((1, 1, 1, 1))
    assert w.rows[2] == (1, 1, 1, 1)
    assert frieze.has_ones_row(w) is None


def test_division_failure_carries_cell():
    with pytest.raises(NotQuiddityError) as err:
        frieze.generate_frieze((1, 1, 1, 1, 1))
    assert (str(err.value), err.value.row, err.value.col) == ("zero divisor at cell (5,0)", 5, 0)


def test_formal_row_above_zero_row():
    # solving the diamond rule upwards from rows 0 and 1 gives constant -1
    zero, one = 0, 1
    assert (zero * zero - 1) // one == -1


@pytest.mark.parametrize("seq", [(), (5,), (2, 1)])
def test_continuant_base_cases(seq):
    expected = {(): 1, (5,): 5, (2, 1): 1}[seq]
    assert frieze.continuant(seq) == expected


def test_continuant_matches_tridiagonal_determinant():
    # brute-force determinant by cofactor expansion as the independent oracle
    def det(mat):
        n = len(mat)
        if n == 0:
            return 1
        if n == 1:
            return mat[0][0]
        total = 0
        for col in range(n):
            minor = [row[:col] + row[col + 1:] for row in mat[1:]]
            total += (-1) ** col * mat[0][col] * det(minor)
        return total

    rng = random.Random(3)
    for _ in range(30):
        entries = [rng.randrange(1, 6) for _ in range(rng.randrange(0, 6))]
        k = len(entries)
        mat = [
            [entries[r] if r == c else 1 if abs(r - c) == 1 else 0 for c in range(k)]
            for r in range(k)
        ]
        assert frieze.continuant(entries) == det(mat)


def test_continuant_equals_frieze_cells(quiddities_by_n):
    for n in range(3, 10):
        for q in quiddities_by_n[n]:
            w = frieze.generate_frieze(q)
            for i in range(1, n + 1):
                for j in range(n):
                    window = [q[(j + t) % n] for t in range(i - 1)]
                    assert frieze.continuant(window) == w.rows[i][j], (q, i, j)


def test_glide_rows(quiddities_by_n):
    for n in range(3, 13):
        for q in quiddities_by_n[n]:
            w = frieze.generate_frieze(q)
            assert w.rows[n - 1] == (1,) * n
            assert w.rows[n] == (0,) * n


def test_diamond_rule_holds_at_every_cell(quiddities_by_n):
    for n in range(3, 10):
        for q in quiddities_by_n[n]:
            w = frieze.generate_frieze(q)
            for i in range(2, n + 1):
                for j in range(n):
                    jn = (j + 1) % n
                    lhs = w.rows[i][j] * w.rows[i - 2][jn]
                    assert lhs == w.rows[i - 1][jn] * w.rows[i - 1][j] - 1, (q, i, j)


class TestMatrixFrieze:
    def test_triangle_cells(self):
        mw = frieze.generate_matrix_frieze((1, 1, 1))
        assert mw.cell(0, 0) == -sl2.S
        assert mw.cell(1, 0) == sl2.U
        assert mw.cell(2, 0) == sl2.U @ sl2.S @ sl2.U

    def test_square_final_row_is_s(self):
        mw = frieze.generate_matrix_frieze((2, 1, 2, 1))
        assert all(mw.cell(4, j) == sl2.S for j in range(4))

    def test_lower_left_recovers_integer_frieze(self):
        q = (1, 2, 2, 1, 3)
        w = frieze.generate_frieze(q)
        mw = frieze.generate_matrix_frieze(q)
        for i in range(1, len(q) + 1):
            for j in range(len(q)):
                assert mw.cell(i - 1, j).c == w.rows[i][j]

    def test_determinants(self):
        mw = frieze.generate_matrix_frieze((4, 2, 1, 3, 2, 2, 1))
        for row in mw.cells:
            for m in row:
                assert m.a * m.d - m.b * m.c == 1

    def test_general_rows_match_direct_product(self):
        rng = random.Random(17)
        gens = [sl2.S, sl2.T, sl2.U, sl2.U.inverse()]
        for _ in range(10):
            x_inv = sl2.I
            for _ in range(rng.randrange(0, 6)):
                x_inv = x_inv @ rng.choice(gens)
            x = x_inv.inverse()
            n = rng.randrange(2, 5)
            row1 = []
            for _ in range(n):
                m = sl2.I
                for _ in range(rng.randrange(0, 6)):
                    m = m @ rng.choice(gens)
                row1.append(m)
            rows = frieze.generate_matrix_frieze_rows(x_inv, row1, depth=5)
            for i in range(2, 6):
                for j in range(n):
                    direct = row1[(i + j - 1) % n]
                    for t in range(i + j - 2, j - 1, -1):
                        direct = direct @ x @ row1[t % n]
                    assert rows[i][j] == direct, (i, j)


def word_cell(seq, i, j):
    """Reference: U^{a_{i+j-1}}*S*...*S*U^{a_j} as one word product."""
    n = len(seq)
    exponents = [seq[t % n] for t in range(i + j - 1, j, -1)]
    return sl2.Mat2(*sl2.word_product(exponents)) @ sl2.u_pow(seq[j])


def assert_cells_are_words(seq):
    mw = frieze.generate_matrix_frieze(seq)
    n = len(seq)
    assert mw.cells[0] == (-sl2.S,) * n
    for i in range(1, n + 1):
        for j in range(n):
            assert mw.cell(i, j) == word_cell(seq, i, j), (seq, i, j)


def test_matrix_frieze_cells_are_words(quiddities_by_n):
    for n in range(3, 10):
        for q in quiddities_by_n[n]:
            assert_cells_are_words(q)


def test_matrix_and_integer_friezes_consistent(quiddities_by_n):
    for n in range(3, 9):
        for q in quiddities_by_n[n]:
            w = frieze.generate_frieze(q)
            mw = frieze.generate_matrix_frieze(q)
            for i in range(1, n + 1):
                for j in range(n):
                    assert mw.cell(i - 1, j).c == w.rows[i][j]


def dividing_frieze(seq):
    """Reference: the diamond rule solved for the lower cell by exact division.

    phi(i, j) = (phi(i-1, j+1) * phi(i-1, j) - 1) / phi(i-2, j+1), row by
    row, failing at the first zero divisor or inexact quotient.
    """
    n = len(seq)
    rows = [(0,) * n, (1,) * n, tuple(seq)]
    for i in range(3, n + 1):
        above, twice_above = rows[i - 1], rows[i - 2]
        row = []
        for j in range(n):
            divisor = twice_above[(j + 1) % n]
            if divisor == 0:
                raise NotQuiddityError(f"zero divisor at cell ({i},{j})", row=i, col=j)
            num = above[(j + 1) % n] * above[j] - 1
            q, r = divmod(num, divisor)
            if r:
                raise NotQuiddityError(
                    f"non-exact division at cell ({i},{j}): {num}/{divisor}", row=i, col=j
                )
            row.append(q)
        rows.append(tuple(row))
    return tuple(rows)


def outcome(make, seq):
    """The rows, or the (message, row, col) of the NotQuiddityError raised."""
    try:
        result = make(seq)
    except NotQuiddityError as exc:
        return str(exc), exc.row, exc.col
    return getattr(result, "rows", result)


positive_sequences = st.lists(st.integers(1, 6), min_size=3, max_size=16)


@st.composite
def same_sum_sequences(draw):
    """Positive sequences with the quiddity sum 3n - 6, mostly invalid."""
    n = draw(st.integers(3, 18))
    seq = [1] * n
    for p in draw(st.lists(st.integers(0, n - 1), min_size=2 * n - 6, max_size=2 * n - 6)):
        seq[p] += 1
    return seq


@st.composite
def quiddities(draw, expansions=20):
    """A quiddity sequence grown from (1, 1, 1) by up to ``expansions`` expansions."""
    seq = (1, 1, 1)
    for _ in range(draw(st.integers(0, expansions))):
        seq = eta.expand(seq, draw(st.integers(0, len(seq) - 1)))
    return seq


@relaxed
@given(st.one_of(positive_sequences, same_sum_sequences(), quiddities()))
def test_generate_frieze_matches_dividing_rule(seq):
    assert outcome(frieze.generate_frieze, seq) == outcome(dividing_frieze, seq)


@relaxed
@given(quiddities(expansions=37))
def test_matrix_frieze_cells_are_words_up_to_40(seq):
    assert_cells_are_words(seq)


@relaxed
@given(quiddities(), st.integers(2, 4))
def test_short_period_imposters_match_dividing_rule(q, k):
    # q repeated k times keeps the sum per period but is never a quiddity
    seq = q * k
    got = outcome(frieze.generate_frieze, seq)
    assert got == outcome(dividing_frieze, seq)
    assert isinstance(got[0], str)


@pytest.mark.parametrize("k", range(2, 8))
def test_one_two_imposters_match_dividing_rule(k):
    seq = (1, 2) * k
    assert outcome(frieze.generate_frieze, seq) == outcome(dividing_frieze, seq)


@relaxed
@given(st.one_of(positive_sequences, same_sum_sequences(), quiddities()))
def test_every_cell_is_the_continuant_of_its_window(seq):
    try:
        w = frieze.generate_frieze(seq)
    except NotQuiddityError:
        return
    n = len(seq)
    for i in range(1, n + 1):
        for j in range(n):
            window = [seq[(j + t) % n] for t in range(i - 1)]
            assert w.rows[i][j] == frieze.continuant(window), (seq, i, j)
