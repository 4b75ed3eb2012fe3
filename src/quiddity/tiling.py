"""Positive SL2-tilings on finite windows.

A tiling assigns an integer alpha(i, j) to every cell of the plane so that
every adjacent 2x2 minor is 1:

    alpha(i, j) * alpha(i+1, j+1) - alpha(i, j+1) * alpha(i+1, j) == 1.

For positive tilings each column j carries a factor k_j with
k_j * alpha(i, j) == alpha(i, j-1) + alpha(i, j+1) for every row i, and
symmetrically each row carries l_i.  A factor equal to 2 means the three
cells are in arithmetic progression; columns/rows where the factor differs
from 2 are called fractures, and between fractures the tiling is affine.
Knowing the factors and one unimodular 2x2 seed determines everything.

The closed-form example tiling

    alpha(i, j) = |i| + |j| + 2           when i*j < 0
    alpha(i, j) = |i*j| + |i| + |j| + 2   otherwise

is fractured exactly at row 0 and column 0 and is used as a test bed.
All windows here are finite inclusive rectangles [i0..i1] x [j0..j1].

The code works on the row tuples of ``TilingWindow.values``.  Column
factors are the row factors of the transposed window, so one helper reads
both, and one three-term propagation on vectors fills the seed rows column
by column and then the window row by row.  Propagation keeps every
relation and minor: each row is a combination of rows 0 and 1, so it keeps
their column relations; the row relations hold by construction; and a step
x(t+1) = f*x(t) - x(t-1) keeps the determinant of two adjacent rows or
columns, so every 2x2 minor equals the seed's.  In exact arithmetic nothing
needs checking afterwards, so seeds and factors must be ints.
"""

from collections import namedtuple

from .errors import (TILING_CELL_CAP, InconsistentFactorsError, InvalidSequenceError,
                     NotAPositiveTilingError, _check_int, check_limit)


class TilingWindow(namedtuple("TilingWindow", "i0 i1 j0 j1 values")):
    """Cells [i0..i1] x [j0..j1] of a tiling; values[i - i0][j - j0]."""

    __slots__ = ()

    def value(self, i: int, j: int) -> int:
        return self.values[i - self.i0][j - self.j0]

    @property
    def is_positive(self) -> bool:
        return all(x >= 1 for row in self.values for x in row)

    def unimodular_everywhere(self) -> bool:
        for r in range(len(self.values) - 1):
            row, below = self.values[r], self.values[r + 1]
            for c in range(len(row) - 1):
                if row[c] * below[c + 1] - row[c + 1] * below[c] != 1:
                    return False
        return True

    def render(self) -> str:
        width = max(len(str(x)) for row in self.values for x in row)
        return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in self.values)


# Column factors k[j] and row factors l[i], on interior indices.
FactorVectors = namedtuple("FactorVectors", "k l")


def window_from_values(i0: int, j0: int, values) -> TilingWindow:
    _check_int(i0, "i0")
    _check_int(j0, "j0")
    rows = tuple(tuple(row) for row in values)
    if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
        raise NotAPositiveTilingError("window rows must be nonempty and rectangular")
    return TilingWindow(i0, i0 + len(rows) - 1, j0, j0 + len(rows[0]) - 1, rows)


def formula_tiling(i: int, j: int) -> int:
    """Closed-form positive tiling fractured at row 0 and column 0; i, j ints."""
    _check_int(i, "i")
    _check_int(j, "j")
    return _formula_cell(i, j)


def _formula_cell(i: int, j: int) -> int:
    if i * j < 0:
        return abs(i) + abs(j) + 2
    return abs(i * j) + abs(i) + abs(j) + 2


def formula_window(i0: int, i1: int, j0: int, j1: int) -> TilingWindow:
    _check_bounds(i0, i1, j0, j1)  # once per window; the cells need no check
    return window_from_values(
        i0, j0, [[_formula_cell(i, j) for j in range(j0, j1 + 1)] for i in range(i0, i1 + 1)]
    )


def _check_bounds(i0, i1, j0, j1) -> None:
    """Refuse bounds that are not ints or a window of more than TILING_CELL_CAP cells."""
    for name, x in zip(("i0", "i1", "j0", "j1"), (i0, i1, j0, j1)):
        _check_int(x, name)
    cells = max(i1 - i0 + 1, 0) * max(j1 - j0 + 1, 0)
    check_limit(cells, TILING_CELL_CAP, "window of {} cells")


def extract_factors(window: TilingWindow) -> FactorVectors:
    """Read k_j and l_i off a positive window and verify them everywhere.

    Each interior column factor is computed from the first row and then
    checked against every other row (and symmetrically for row factors);
    a non-integer ratio or any disagreement means the window is not part
    of a positive tiling.  Column factors are the row factors of the
    transposed window, so one helper reads both, columns first.
    """
    if not window.is_positive:
        raise NotAPositiveTilingError("window has entries < 1")
    rows = window.values
    return FactorVectors(
        k=_line_factors(list(zip(*rows)), window.j0, window.i0, "column", "row"),
        l=_line_factors(rows, window.i0, window.j0, "row", "column"),
    )


def _line_factors(lines, first: int, cross_first: int, what: str, across: str) -> dict:
    """Factors f with f * lines[p] == lines[p-1] + lines[p+1] entry by entry.

    ``lines`` are the rows (for row factors) or the columns (for column
    factors) of a positive window; line p has index first + p and entry t
    of a line has index cross_first + t.  Each factor is read off entry 0
    and checked on every entry in order; the first failing entry is named.
    """
    found = {}
    for p in range(1, len(lines) - 1):
        above, line, below = lines[p - 1], lines[p], lines[p + 1]
        f = (above[0] + below[0]) // line[0]
        for t in range(len(line)):
            if f * line[t] != above[t] + below[t]:
                q, r = divmod(above[t] + below[t], line[t])
                if r:
                    raise NotAPositiveTilingError(
                        f"{what} {first + p}: non-integer factor at {across} {cross_first + t}"
                    )
                raise NotAPositiveTilingError(
                    f"{what} {first + p}: factor {q} at {across} {cross_first + t}"
                    f" disagrees with {f}"
                )
        found[first + p] = f
    return found


def fractures(factors: FactorVectors):
    """(fractured columns, fractured rows): indices whose factor is not 2."""
    cols = {j for j, kj in factors.k.items() if kj != 2}
    rows = {i for i, li in factors.l.items() if li != 2}
    return cols, rows


def generate_tiling(seed, k: dict, l: dict, i0: int, i1: int, j0: int, j1: int) -> TilingWindow:
    """Fill a window from a unimodular 2x2 seed and factor vectors.

    The seed occupies cells (0,0), (0,1), (1,0), (1,1), which must lie in
    the window.  Rows 0 and 1 are propagated horizontally with the column
    factors, then whole rows vertically with the row factors; the module
    docstring shows why the result needs no check.  ``k`` must hold every
    interior column j0+1..j1-1 and ``l`` every interior row i0+1..i1-1,
    and these factors, the seed entries and the window bounds must be
    ints (not bools); a missing index or another type raises
    InvalidSequenceError naming it.
    A seed of determinant other than 1 or outside the window raises
    InconsistentFactorsError.  Nonpositive values are allowed and simply
    reported by the window's ``is_positive``.
    """
    (s00, s01), (s10, s11) = seed
    for (r, c), x in zip(((0, 0), (0, 1), (1, 0), (1, 1)), (s00, s01, s10, s11)):
        _check_int(x, "seed entry ({},{})", r, c)
    if s00 * s11 - s01 * s10 != 1:
        raise InconsistentFactorsError("seed 2x2 block must have determinant 1")
    _check_bounds(i0, i1, j0, j1)
    if not (i0 <= 0 and 1 <= i1 and j0 <= 0 and 1 <= j1):
        raise InconsistentFactorsError("window must contain the seed cells (0..1, 0..1)")
    for what, factors, x, lo, hi in (("column factor k", k, "j", j0, j1),
                                     ("row factor l", l, "i", i0, i1)):
        missing = [idx for idx in range(lo + 1, hi) if idx not in factors]
        if missing:
            raise InvalidSequenceError(
                f"{what}[{x}] missing for {x} = {', '.join(map(str, missing))}"
                f" (the window needs {x} = {lo + 1}..{hi - 1})"
            )
        for idx in range(lo + 1, hi):
            _check_int(factors[idx], "{}[{}]", what, idx)

    # columns j0..j1 of rows 0 and 1, then every row, as whole vectors
    row0, row1 = zip(*_propagate((s00, s10), (s01, s11), k, j0, j1))
    rows = _propagate(row0, row1, l, i0, i1)
    return window_from_values(i0, j0, rows)


def _propagate(v0, v1, factors: dict, lo: int, hi: int) -> list:
    """Vectors x(lo..hi) of x(t+1) = factors[t]*x(t) - x(t-1), entry by entry.

    Starts from x(0) = v0 and x(1) = v1 and also runs leftwards, as
    x(t-1) = factors[t]*x(t) - x(t+1).
    """
    right = [v0, v1]
    for t in range(1, hi):
        f = factors[t]
        right.append([f * y - x for x, y in zip(right[-2], right[-1])])
    left = [v1, v0]
    for t in range(0, lo, -1):
        f = factors[t]
        left.append([f * y - x for x, y in zip(left[-2], left[-1])])
    return left[:1:-1] + right
