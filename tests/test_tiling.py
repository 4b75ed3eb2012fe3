import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiddity import tiling
from quiddity.errors import (
    TILING_CELL_CAP,
    InconsistentFactorsError,
    InvalidSequenceError,
    NotAPositiveTilingError,
)

# the displayed 5x5 core of the closed-form tiling, rows i = -2..2
CORE = (
    (10, 7, 4, 5, 6),
    (7, 5, 3, 4, 5),
    (4, 3, 2, 3, 4),
    (5, 4, 3, 5, 7),
    (6, 5, 4, 7, 10),
)


def test_formula_values():
    assert tiling.formula_tiling(0, 0) == 2
    assert tiling.formula_tiling(-2, -2) == 10
    assert tiling.formula_tiling(-2, 2) == 6
    assert tiling.formula_window(-2, 2, -2, 2).values == CORE


def test_formula_unimodular_on_big_window():
    assert tiling.formula_window(-6, 6, -6, 6).unimodular_everywhere()


def test_extract_factors_on_core():
    f = tiling.extract_factors(tiling.formula_window(-2, 2, -2, 2))
    assert f.k == {-1: 2, 0: 3, 1: 2}
    assert f.l == {-1: 2, 0: 3, 1: 2}


def test_fractures_at_origin():
    window = tiling.formula_window(-4, 4, -4, 4)
    cols, rows = tiling.fractures(tiling.extract_factors(window))
    assert cols == {0} and rows == {0}


def test_fractures_definition():
    f = tiling.FactorVectors(k={-1: 2, 0: 3, 1: 2}, l={5: 2})
    cols, rows = tiling.fractures(f)
    assert cols == {0} and rows == set()


def test_affine_window_has_no_fractures():
    # alpha = 1 + i*j on i, j >= 1 is a fracture-free patch
    window = tiling.window_from_values(
        1, 1, [[1 + i * j for j in range(1, 7)] for i in range(1, 7)]
    )
    assert window.unimodular_everywhere()
    factors = tiling.extract_factors(window)
    assert all(v == 2 for v in factors.k.values())
    assert all(v == 2 for v in factors.l.values())


def test_generate_round_trips_core():
    window = tiling.formula_window(-2, 2, -2, 2)
    f = tiling.extract_factors(window)
    regenerated = tiling.generate_tiling(((2, 3), (3, 5)), f.k, f.l, -2, 2, -2, 2)
    assert regenerated == window


def test_largest_window_is_built_and_one_more_cell_is_refused(monkeypatch):
    f = tiling.extract_factors(tiling.formula_window(-2, 2, -2, 2))
    monkeypatch.setattr(tiling, "TILING_CELL_CAP", 12)
    seed = ((2, 3), (3, 5))
    assert len(tiling.formula_window(-1, 1, -1, 2).values) == 3  # 3 x 4 cells
    assert tiling.generate_tiling(seed, f.k, f.l, -1, 2, -1, 1).i1 == 2  # 4 x 3 cells
    for window in [(-1, 1, -2, 2), (-2, 2, -1, 1), (-1, 11, 0, 0)]:  # 15, 15 and 13 cells
        cells = (window[1] - window[0] + 1) * (window[3] - window[2] + 1)
        message = f"^window of {cells} cells, over the limit of 12$"
        with pytest.raises(InvalidSequenceError, match=message):
            tiling.formula_window(*window)
        with pytest.raises(InvalidSequenceError, match=message):
            tiling.generate_tiling(seed, f.k, f.l, *window)  # before the missing factors


def test_the_cell_limit_is_a_million_and_counts_only_real_windows():
    assert TILING_CELL_CAP == 1_000_000
    with pytest.raises(InvalidSequenceError, match="^window of 1002001 cells"):
        tiling.formula_window(-500, 500, -500, 500)
    # both extents reversed, or one: an empty window, not a large one
    with pytest.raises(NotAPositiveTilingError, match="nonempty"):
        tiling.formula_window(0, -10 ** 6, 0, -10 ** 6)
    with pytest.raises(NotAPositiveTilingError, match="nonempty"):
        tiling.formula_window(0, 2, 3, 1)  # three rows of no cells
    with pytest.raises(NotAPositiveTilingError, match="^window rows must be nonempty and rectangular$"):
        tiling.window_from_values(0, 0, [[], []])


def test_extension_row_below_core():
    f = tiling.extract_factors(tiling.formula_window(-2, 2, -2, 2))
    extended = tiling.generate_tiling(
        ((2, 3), (3, 5)), f.k, {**f.l, 2: 2}, -2, 3, -2, 2
    )
    assert extended.values[-1] == (7, 6, 5, 9, 13)
    # and it agrees with the closed form, unlike a copy of row 1
    assert extended.values[-1] == tuple(tiling.formula_tiling(3, j) for j in range(-2, 3))


def test_miscopied_bottom_row_breaks_unimodularity():
    # the row (5, 4, 3, 5, 7) under (6, 5, 4, 7, 10) is not a legal continuation
    bad = (5, 4, 3, 5, 7)
    above = CORE[-1]
    assert above[0] * bad[1] - above[1] * bad[0] == -1


def test_all_factor_two_seed_gives_arithmetic_progressions():
    k = {j: 2 for j in range(-3, 4)}
    l = {i: 2 for i in range(-3, 4)}
    window = tiling.generate_tiling(((1, 1), (1, 2)), k, l, -3, 3, -3, 3)
    for row in window.values:
        diffs = {row[t + 1] - row[t] for t in range(len(row) - 1)}
        assert len(diffs) == 1
    for col in zip(*window.values):
        diffs = {col[t + 1] - col[t] for t in range(len(col) - 1)}
        assert len(diffs) == 1


def test_blocks_between_fractures_are_arithmetic():
    window = tiling.formula_window(-5, 5, -5, 5)
    cols, rows = tiling.fractures(tiling.extract_factors(window))
    assert cols == {0} and rows == {0}
    # split at the fracture, keeping it as a shared boundary column/row
    for i in range(-5, 6):
        row = [window.value(i, j) for j in range(-5, 6)]
        for part in (row[: 5 + 1], row[5:]):
            diffs = {part[t + 1] - part[t] for t in range(len(part) - 1)}
            assert len(diffs) == 1, (i, part)
    for j in range(-5, 6):
        col = [window.value(i, j) for i in range(-5, 6)]
        for part in (col[: 5 + 1], col[5:]):
            diffs = {part[t + 1] - part[t] for t in range(len(part) - 1)}
            assert len(diffs) == 1, (j, part)


@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
def test_centered_windows_exhibit_both_fracture_kinds(radius):
    window = tiling.formula_window(-radius, radius, -radius, radius)
    cols, rows = tiling.fractures(tiling.extract_factors(window))
    assert cols and rows


def test_positivity_gate():
    window = tiling.window_from_values(0, 0, [[1, 1], [0, 1]])
    assert not window.is_positive
    with pytest.raises(NotAPositiveTilingError):
        tiling.extract_factors(window)


def test_window_shape_and_unimodularity():
    with pytest.raises(NotAPositiveTilingError, match="^window rows must be nonempty and rectangular$"):
        tiling.window_from_values(0, 0, [[1, 2], [3]])
    assert not tiling.window_from_values(0, 0, [[1, 2], [3, 4]]).unimodular_everywhere()


def test_nonpositive_generation_is_reported_not_rejected():
    # a 0 entry forces a -1 neighbour; representable, only flagged
    window = tiling.generate_tiling(((0, 1), (-1, 2)), {}, {}, 0, 1, 0, 1)
    assert not window.is_positive
    assert window.unimodular_everywhere()


def test_factors_and_seed_determine_the_tiling():
    # any factor choice fills a legal window (both propagation routes
    # provably coincide from a 2x2 seed); changing a factor changes
    # which tiling comes out, and extraction reads the change back
    original = tiling.formula_window(-2, 2, -2, 2)
    f = tiling.extract_factors(original)
    wrong_k = {**f.k, 0: 2}
    other = tiling.generate_tiling(((2, 3), (3, 5)), wrong_k, f.l, -2, 2, -2, 2)
    assert other != original
    assert other.unimodular_everywhere()
    for i in range(-2, 3):  # the requested factor is realized in the output
        assert 2 * other.value(i, 0) == other.value(i, -1) + other.value(i, 1)
    assert not other.is_positive  # and this particular choice leaves positivity


def test_bad_seed_rejected():
    with pytest.raises(InconsistentFactorsError):
        tiling.generate_tiling(((1, 1), (1, 1)), {}, {}, 0, 1, 0, 1)


def test_render_alignment():
    text = tiling.formula_window(-2, 2, -2, 2).render()
    assert text.splitlines()[0] == "10  7  4  5  6"


def error_text(call, *args):
    with pytest.raises(NotAPositiveTilingError) as err:
        call(*args)
    return str(err.value)


@pytest.mark.parametrize(
    "values, message",
    [
        (((1, 2, 2), (1, 1, 1)), "column 6: non-integer factor at row -2"),
        (((1, 1, 1), (1, 1, 2)), "column 6: factor 3 at row -1 disagrees with 2"),
        (((1, 1), (1, 2), (2, 2)), "row -1: non-integer factor at column 6"),
        (((1, 1), (1, 1), (1, 2)), "row -1: factor 3 at column 6 disagrees with 2"),
        # columns are checked before rows, and column by column
        (
            ((1, 1, 1, 1), (1, 1, 2, 1), (1, 3, 1, 1)),
            "column 6: factor 3 at row -1 disagrees with 2",
        ),
    ],
)
def test_extract_factors_error_texts(values, message):
    window = tiling.window_from_values(-2, 5, values)
    assert error_text(tiling.extract_factors, window) == message


@pytest.mark.parametrize(
    "seed, k, l, message",
    [
        (((2, 3), (3, 5)), {-1: 2, 0: 2.0, 1: 2}, {-1: 2, 0: 2, 1: 2},
         "column factor k[0] must be an int, got 2.0"),
        (((2, 3), (3, 5)), {-1: 2, 0: 2, 1: 2}, {-1: 2, 0: 2, 1: True},
         "row factor l[1] must be an int, got True"),
        (((1, 0), (0.5, 1)), {-1: 2, 0: 2, 1: 2}, {-1: 2, 0: 2, 1: 2},
         "seed entry (1,0) must be an int, got 0.5"),
    ],
)
def test_generate_tiling_refuses_values_that_are_not_ints(seed, k, l, message):
    # propagation is exact only on ints, so even 2.0 and True are refused
    with pytest.raises(InvalidSequenceError) as err:
        tiling.generate_tiling(seed, k, l, -2, 2, -2, 2)
    assert str(err.value) == message


@pytest.mark.parametrize("i0, j0, message", [
    (0.5, 0, "i0 must be an int, got 0.5"),
    (0, True, "j0 must be an int, got True"),
    (None, 0, "i0 must be an int, got None"),
])
def test_window_from_values_refuses_non_int_corners(i0, j0, message):
    with pytest.raises(InvalidSequenceError) as err:
        tiling.window_from_values(i0, j0, [[1, 2], [1, 3]])
    assert str(err.value) == message


@pytest.mark.parametrize("i, j, message", [
    (1.5, 2, "i must be an int, got 1.5"),
    (1, 2.0, "j must be an int, got 2.0"),
    (False, 0, "i must be an int, got False"),
])
def test_formula_tiling_refuses_non_int_indices(i, j, message):
    with pytest.raises(InvalidSequenceError) as err:
        tiling.formula_tiling(i, j)
    assert str(err.value) == message


@pytest.mark.parametrize("slot, bound", [(0, -2.0), (1, 2.0), (2, True), (3, "2")])
def test_window_bounds_must_be_ints(slot, bound):
    bounds = [-2, 2, -2, 2]
    bounds[slot] = bound
    message = rf"^{('i0', 'i1', 'j0', 'j1')[slot]} must be an int, got {re.escape(repr(bound))}$"
    with pytest.raises(InvalidSequenceError, match=message):
        tiling.formula_window(*bounds)
    factors = {t: 2 for t in range(-1, 2)}
    with pytest.raises(InvalidSequenceError, match=message):
        tiling.generate_tiling(((2, 3), (3, 5)), factors, factors, *bounds)


def cell_loop_factors(window):
    """Reference: the factors read cell by cell, columns first."""
    v = window.value
    k, l = {}, {}
    for j in range(window.j0 + 1, window.j1):
        for i in range(window.i0, window.i1 + 1):
            q, r = divmod(v(i, j - 1) + v(i, j + 1), v(i, j))
            if r:
                raise NotAPositiveTilingError(f"column {j}: non-integer factor at row {i}")
            if j in k and q != k[j]:
                raise NotAPositiveTilingError(
                    f"column {j}: factor {q} at row {i} disagrees with {k[j]}"
                )
            k[j] = q
    for i in range(window.i0 + 1, window.i1):
        for j in range(window.j0, window.j1 + 1):
            q, r = divmod(v(i - 1, j) + v(i + 1, j), v(i, j))
            if r:
                raise NotAPositiveTilingError(f"row {i}: non-integer factor at column {j}")
            if i in l and q != l[i]:
                raise NotAPositiveTilingError(
                    f"row {i}: factor {q} at column {j} disagrees with {l[i]}"
                )
            l[i] = q
    return k, l


def factor_outcome(extract, window):
    try:
        f = extract(window)
    except NotAPositiveTilingError as exc:
        return str(exc)
    return f if isinstance(f, tuple) else (f.k, f.l)


@st.composite
def perturbed_windows(draw):
    """A window of the closed-form tiling, possibly with one cell changed."""
    i0, j0 = draw(st.integers(-4, 0)), draw(st.integers(-4, 0))
    i1, j1 = draw(st.integers(i0, 4)), draw(st.integers(j0, 4))
    rows = [list(row) for row in tiling.formula_window(i0, i1, j0, j1).values]
    if draw(st.booleans()):
        r, c = draw(st.integers(0, i1 - i0)), draw(st.integers(0, j1 - j0))
        rows[r][c] = max(1, rows[r][c] + draw(st.sampled_from((-2, -1, 1, 2))))
    return tiling.window_from_values(i0, j0, rows)


@given(perturbed_windows())
def test_extract_factors_matches_cell_loop(window):
    expected = factor_outcome(cell_loop_factors, window)
    assert factor_outcome(tiling.extract_factors, window) == expected


def cell_loop_tiling(seed, k, l, i0, i1, j0, j1):
    """Reference: propagate through a cell dictionary, then check cell by cell."""
    (s00, s01), (s10, s11) = seed
    grid = {(0, 0): s00, (0, 1): s01, (1, 0): s10, (1, 1): s11}
    for i in (0, 1):
        for j in range(1, j1):
            grid[i, j + 1] = k[j] * grid[i, j] - grid[i, j - 1]
        for j in range(0, j0, -1):
            grid[i, j - 1] = k[j] * grid[i, j] - grid[i, j + 1]
    for j in range(j0, j1 + 1):
        for i in range(1, i1):
            grid[i + 1, j] = l[i] * grid[i, j] - grid[i - 1, j]
        for i in range(0, i0, -1):
            grid[i - 1, j] = l[i] * grid[i, j] - grid[i + 1, j]
    for i in range(i0, i1 + 1):
        for j in range(j0 + 1, j1):
            if k[j] * grid[i, j] != grid[i, j - 1] + grid[i, j + 1]:
                return f"column relation fails at ({i},{j}) for k[{j}]={k[j]}"
    for i in range(i0 + 1, i1):
        for j in range(j0, j1 + 1):
            if l[i] * grid[i, j] != grid[i - 1, j] + grid[i + 1, j]:
                return f"row relation fails at ({i},{j}) for l[{i}]={l[i]}"
    for i in range(i0, i1):
        for j in range(j0, j1):
            if grid[i, j] * grid[i + 1, j + 1] - grid[i, j + 1] * grid[i + 1, j] != 1:
                return "generated window violates unimodularity"
    return tuple(tuple(grid[i, j] for j in range(j0, j1 + 1)) for i in range(i0, i1 + 1))


int_factors = st.integers(-1, 4)
# half the draws are all ints; the others may hold floats or bools, which are refused
factor_lists = st.one_of(
    st.lists(int_factors, min_size=9, max_size=9),
    st.lists(st.one_of(int_factors, st.sampled_from((0.1, 0.7, 2.0, 2.5, True, False))),
             min_size=9, max_size=9),
)


@given(
    st.sampled_from((((2, 3), (3, 5)), ((1, 0), (0, 1)), ((1, 1), (0, 1)), ((3, 2), (1, 1)))),
    factor_lists,
    factor_lists,
    st.integers(-4, 0), st.integers(1, 4), st.integers(-4, 0), st.integers(1, 4),
)
def test_generate_tiling_matches_cell_loop(seed, ks, ls, i0, i1, j0, j1):
    k = dict(zip(range(-4, 5), ks))
    l = dict(zip(range(-4, 5), ls))
    used = [k[j] for j in range(j0 + 1, j1)] + [l[i] for i in range(i0 + 1, i1)]
    if all(type(f) is int for f in used):
        # the reference's relation and minor checks all pass on int factors
        assert tiling.generate_tiling(seed, k, l, i0, i1, j0, j1).values == cell_loop_tiling(
            seed, k, l, i0, i1, j0, j1
        )
    else:
        with pytest.raises(InvalidSequenceError, match="must be an int"):
            tiling.generate_tiling(seed, k, l, i0, i1, j0, j1)
