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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InconsistentFactorsError, InvalidSequenceError, NotAPositiveTilingError


@dataclass(frozen=True)
class TilingWindow:
    i0: int
    i1: int
    j0: int
    j1: int
    values: tuple  # values[i - i0][j - j0]

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
        return "\n".join(
            " ".join(str(x).rjust(width) for x in row) for row in self.values
        )


@dataclass
class FactorVectors:
    """Column factors k[j] and row factors l[i], on interior indices."""

    k: dict = field(default_factory=dict)
    l: dict = field(default_factory=dict)


def window_from_values(i0: int, j0: int, values) -> TilingWindow:
    rows = tuple(tuple(row) for row in values)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise NotAPositiveTilingError("window rows must be nonempty and rectangular")
    return TilingWindow(
        i0=i0, i1=i0 + len(rows) - 1, j0=j0, j1=j0 + len(rows[0]) - 1, values=rows
    )


def formula_tiling(i: int, j: int) -> int:
    """Closed-form positive tiling fractured at row 0 and column 0."""
    if i * j < 0:
        return abs(i) + abs(j) + 2
    return abs(i * j) + abs(i) + abs(j) + 2


def formula_window(i0: int, i1: int, j0: int, j1: int) -> TilingWindow:
    return window_from_values(
        i0, j0, [[formula_tiling(i, j) for j in range(j0, j1 + 1)] for i in range(i0, i1 + 1)]
    )


def extract_factors(window: TilingWindow) -> FactorVectors:
    """Read k_j and l_i off a positive window and verify them everywhere.

    Each interior column factor is computed from the first row and then
    checked against every other row (and symmetrically for row factors);
    a non-integer ratio or any disagreement means the window is not part
    of a positive tiling.
    """
    if not window.is_positive:
        raise NotAPositiveTilingError("window has entries < 1")
    factors = FactorVectors()
    for j in range(window.j0 + 1, window.j1):
        kj = None
        for i in range(window.i0, window.i1 + 1):
            total = window.value(i, j - 1) + window.value(i, j + 1)
            q, r = divmod(total, window.value(i, j))
            if r:
                raise NotAPositiveTilingError(
                    f"column {j}: non-integer factor at row {i}"
                )
            if kj is None:
                kj = q
            elif q != kj:
                raise NotAPositiveTilingError(
                    f"column {j}: factor {q} at row {i} disagrees with {kj}"
                )
        factors.k[j] = kj
    for i in range(window.i0 + 1, window.i1):
        li = None
        for j in range(window.j0, window.j1 + 1):
            total = window.value(i - 1, j) + window.value(i + 1, j)
            q, r = divmod(total, window.value(i, j))
            if r:
                raise NotAPositiveTilingError(f"row {i}: non-integer factor at column {j}")
            if li is None:
                li = q
            elif q != li:
                raise NotAPositiveTilingError(
                    f"row {i}: factor {q} at column {j} disagrees with {li}"
                )
        factors.l[i] = li
    return factors


def fractures(factors: FactorVectors):
    """(fractured columns, fractured rows): indices whose factor is not 2."""
    cols = {j for j, kj in factors.k.items() if kj != 2}
    rows = {i for i, li in factors.l.items() if li != 2}
    return cols, rows


def generate_tiling(seed, k: dict, l: dict, i0: int, i1: int, j0: int, j1: int) -> TilingWindow:
    """Fill a window from a unimodular 2x2 seed and factor vectors.

    The seed occupies cells (0,0), (0,1), (1,0), (1,1), which must lie in
    the window.  Rows 0 and 1 are propagated horizontally with the column
    factors, every column is then propagated vertically with the row
    factors, and finally every cell is checked against both three-term
    relations and every 2x2 minor against unimodularity; any disagreement
    raises InconsistentFactorsError.  Nonpositive values are allowed and
    simply reported by the window's ``is_positive``.  ``k`` must hold every
    interior column j0+1..j1-1 and ``l`` every interior row i0+1..i1-1;
    a missing index raises InvalidSequenceError.
    """
    (s00, s01), (s10, s11) = seed
    if s00 * s11 - s01 * s10 != 1:
        raise InconsistentFactorsError("seed 2x2 block must have determinant 1")
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

    ncols = j1 - j0 + 1
    grid = {(0, 0): s00, (0, 1): s01, (1, 0): s10, (1, 1): s11}
    for i in (0, 1):
        for j in range(1, j1):  # rightwards: alpha(i, j+1) = k_j*alpha(i, j) - alpha(i, j-1)
            grid[i, j + 1] = k[j] * grid[i, j] - grid[i, j - 1]
        for j in range(0, j0, -1):  # leftwards
            grid[i, j - 1] = k[j] * grid[i, j] - grid[i, j + 1]
    for j in range(j0, j1 + 1):
        for i in range(1, i1):  # downwards: alpha(i+1, j) = l_i*alpha(i, j) - alpha(i-1, j)
            grid[i + 1, j] = l[i] * grid[i, j] - grid[i - 1, j]
        for i in range(0, i0, -1):  # upwards
            grid[i - 1, j] = l[i] * grid[i, j] - grid[i + 1, j]

    window = window_from_values(
        i0, j0, [[grid[i, j] for j in range(j0, j1 + 1)] for i in range(i0, i1 + 1)]
    )
    for i in range(i0, i1 + 1):
        for j in range(j0 + 1, j1):
            if k[j] * window.value(i, j) != window.value(i, j - 1) + window.value(i, j + 1):
                raise InconsistentFactorsError(
                    f"column relation fails at ({i},{j}) for k[{j}]={k[j]}"
                )
    for i in range(i0 + 1, i1):
        for j in range(j0, j1 + 1):
            if l[i] * window.value(i, j) != window.value(i - 1, j) + window.value(i + 1, j):
                raise InconsistentFactorsError(
                    f"row relation fails at ({i},{j}) for l[{i}]={l[i]}"
                )
    if not window.unimodular_everywhere():
        raise InconsistentFactorsError("generated window violates unimodularity")
    return window
