import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiddity import eta, frieze, polygons, sl2, supplements
from quiddity.errors import (FRIEZE_LENGTH_CAP, MATRIX_FRIEZE_CELL_CAP, InvalidSequenceError,
                             NotQuiddityError)
from strategies import quiddities, same_sum_sequences

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


def test_longest_frieze_is_built_and_one_more_entry_is_refused(monkeypatch):
    monkeypatch.setattr(frieze, "FRIEZE_LENGTH_CAP", 12)
    assert frieze.generate_frieze(supplements.fan(10)).n == 12
    for longer in [supplements.fan(11), (1,) * 13]:  # refused before any row, valid or not
        with pytest.raises(InvalidSequenceError,
                           match=r"^frieze of 13 entries, over the limit of 12$"):
            frieze.generate_frieze(longer)


def test_the_frieze_limit_is_a_thousand_entries():
    assert FRIEZE_LENGTH_CAP == 1000
    assert frieze.has_ones_row(frieze.generate_frieze(supplements.fan(998))) == 999
    with pytest.raises(InvalidSequenceError, match="over the limit of 1000$"):
        frieze.generate_frieze(supplements.fan(999))


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


def matchings(vertices, triangles):
    """Ways to match each vertex to a distinct triangle that touches it."""
    if not vertices:
        return 1
    v, rest = vertices[0], vertices[1:]
    return sum(matchings(rest, triangles - {t}) for t in triangles if v in t)


def test_frieze_cells_count_matchings_of_vertices_to_triangles(quiddities_by_n):
    # Broline, Crowe and Isaacs, Geometriae Dedicata 3 (1974): row i, column
    # j counts the matchings of the i-1 vertices j, ..., j+i-2 to distinct
    # triangles touching them, a count that rests on no continuant
    for n in range(3, 10):
        for q in quiddities_by_n[n]:
            triangles = frozenset(polygons.triangles(polygons.from_quiddity(q)))
            rows = frieze.generate_frieze(q).rows
            for i in range(1, n + 1):
                for j in range(n):
                    vertices = [(j + t) % n for t in range(i - 1)]
                    assert matchings(vertices, triangles) == rows[i][j], (q, i, j)


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


def test_matrix_frieze_rows_stop_at_the_depth():
    row1 = [sl2.u_pow(a) for a in (1, 2, 2, 1, 3)]
    for depth in range(5):
        rows = frieze.generate_matrix_frieze_rows(-sl2.S, row1, depth)
        assert len(rows) == depth + 1
        assert rows == frieze.generate_matrix_frieze_rows(-sl2.S, row1, 4)[:depth + 1]
    assert frieze.generate_matrix_frieze_rows(-sl2.S, row1, 0) == [(-sl2.S,) * 5]
    for depth in (-1, -4):
        with pytest.raises(InvalidSequenceError, match=f"got {depth}$"):
            frieze.generate_matrix_frieze_rows(-sl2.S, row1, depth)


def test_largest_matrix_frieze_is_built_and_one_more_cell_is_refused(monkeypatch):
    assert MATRIX_FRIEZE_CELL_CAP == 300_000
    with pytest.raises(InvalidSequenceError, match="^matrix frieze of 10000000000 cells"):
        frieze.generate_matrix_frieze_rows(-sl2.S, [sl2.S] * 10 ** 5, 10 ** 5 - 1)
    monkeypatch.setattr(frieze, "MATRIX_FRIEZE_CELL_CAP", 20)
    row1 = [sl2.u_pow(a) for a in (1, 2, 2, 1, 3)]
    assert len(frieze.generate_matrix_frieze_rows(-sl2.S, row1, 3)) == 4  # 20 cells
    assert len(frieze.generate_matrix_frieze((1, 3, 1, 3)).cells) == 5  # 20 cells
    with pytest.raises(InvalidSequenceError, match="^matrix frieze of 25 cells, over the limit of 20$"):
        frieze.generate_matrix_frieze_rows(-sl2.S, row1, 4)
    with pytest.raises(InvalidSequenceError, match="^matrix frieze of 30 cells, over the limit of 20$"):
        frieze.generate_matrix_frieze((1, 2, 3, 1, 2))  # rows 0..5 of 5 cells
    with pytest.raises(InvalidSequenceError, match="at least 0, got -1$"):
        frieze.generate_matrix_frieze_rows(-sl2.S, row1 * 10, -1)  # the depth is checked first


@pytest.mark.parametrize("depth", [2.5, True, None])
def test_matrix_frieze_depth_must_be_an_int(depth):
    row1 = [sl2.u_pow(a) for a in (1, 2, 2, 1, 3)]
    with pytest.raises(InvalidSequenceError,
                       match=rf"^matrix frieze depth must be an int, got {depth!r}$"):
        frieze.generate_matrix_frieze_rows(-sl2.S, row1, depth)


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


@given(st.one_of(positive_sequences, same_sum_sequences(max_n=18), quiddities(max_n=23)))
def test_generate_frieze_matches_dividing_rule(seq):
    assert outcome(frieze.generate_frieze, seq) == outcome(dividing_frieze, seq)


@given(quiddities(max_n=40))
def test_matrix_frieze_cells_are_words_up_to_40(seq):
    assert_cells_are_words(seq)


@given(quiddities(max_n=23), st.integers(2, 4))
def test_short_period_imposters_match_dividing_rule(q, k):
    # q repeated k times keeps the sum per period but is never a quiddity
    seq = q * k
    got = outcome(frieze.generate_frieze, seq)
    assert got == outcome(dividing_frieze, seq)
    assert isinstance(got[0], str)


@pytest.mark.parametrize("n", [3, 4, 5, 300])
def test_fans_match_dividing_rule(n):
    # the fan at vertex 0: a long frieze whose rows close by the glide
    seq = (n - 2, 1) + (2,) * (n - 3) + (1,)
    assert outcome(frieze.generate_frieze, seq) == outcome(dividing_frieze, seq)


@pytest.mark.parametrize("k", range(2, 8))
def test_one_two_imposters_match_dividing_rule(k):
    seq = (1, 2) * k
    assert outcome(frieze.generate_frieze, seq) == outcome(dividing_frieze, seq)


@given(st.one_of(positive_sequences, same_sum_sequences(max_n=18), quiddities(max_n=23)))
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
