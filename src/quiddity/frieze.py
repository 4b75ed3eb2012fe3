"""Frieze patterns of integers and of matrices.

An integer frieze is the doubly indexed array phi(i, j) with phi(0, j) = 0,
phi(1, j) = 1, row 2 equal to a given periodic sequence, and every diamond
satisfying

    phi(i, j) * phi(i-2, j+1) == phi(i-1, j+1) * phi(i-1, j) - 1.

For a quiddity sequence of length n the rows are eventually forced back to
all ones (row n-1) and all zeros (row n); one period of rows 0..n is what a
FriezeWindow stores.  Row entries also arise as continuants: phi(k+1, j) is
the determinant of the k x k tridiagonal matrix with diagonal
a_j, ..., a_{j+k-1} and unit off-diagonals.

The matrix analogue replaces the diamond rule by
Q(i, j) = Q(i-1, j+1) * Q(i-2, j+1)^-1 * Q(i-1, j) with constant row 0.
Seeding row 0 with -S and row 1 with U^{a_j} makes Q(i, j) the word
U^{a_{i+j-1}}*S*...*S*U^{a_j}, and the integer frieze reappears in the
lower-left entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import eta, sl2
from .errors import NotQuiddityError


@dataclass(frozen=True)
class FriezeWindow:
    """One period of rows 0..n of an integer frieze; rows[i][j] = phi(i, j)."""

    n: int
    rows: tuple

    def value(self, i: int, j: int) -> int:
        return self.rows[i][j % self.n]


def generate_frieze(entries) -> FriezeWindow:
    """Run the diamond rule downwards from the given row 2.

    Works for any positive sequence until a division fails; a zero divisor
    or a non-exact division raises NotQuiddityError carrying the failing
    cell.  Valid quiddity input always completes with exact divisions.
    """
    seq = eta.as_sequence(entries)
    n = len(seq)
    rows = [(0,) * n, (1,) * n, seq]
    for i in range(3, n + 1):
        above, twice_above = rows[i - 1], rows[i - 2]
        row = []
        for j in range(n):
            divisor = twice_above[(j + 1) % n]
            if divisor == 0:
                raise NotQuiddityError(
                    f"zero divisor at cell ({i},{j})", row=i, col=j
                )
            num = above[(j + 1) % n] * above[j] - 1
            q, r = divmod(num, divisor)
            if r:
                raise NotQuiddityError(
                    f"non-exact division at cell ({i},{j}): {num}/{divisor}",
                    row=i,
                    col=j,
                )
            row.append(q)
        rows.append(tuple(row))
    return FriezeWindow(n=n, rows=tuple(rows))


def has_ones_row(window: FriezeWindow):
    """Smallest row index r with phi(r, j) == 1 for all j, or None.

    Row 2 counts only for n == 3 (the quiddity row of the triangle is
    itself the ones row); for longer sequences the defining row must lie
    strictly below the quiddity row.  A valid quiddity sequence always
    answers n - 1.
    """
    first = 2 if window.n == 3 else 3
    ones = (1,) * window.n
    for r in range(first, len(window.rows)):
        if window.rows[r] == ones:
            return r
    return None


def continuant(entries) -> int:
    """Determinant of the tridiagonal matrix with the given diagonal.

    Unit off-diagonals; computed by the three-term recurrence
    K(x_1..x_k) = x_k * K(x_1..x_{k-1}) - K(x_1..x_{k-2}) with K() = 1.
    """
    cur, prev = 1, 0
    for x in entries:
        cur, prev = x * cur - prev, cur
    return cur


@dataclass(frozen=True)
class MatrixFriezeWindow:
    """Rows 0..n of the matrix frieze seeded by -S and U^{a_j}."""

    n: int
    cells: tuple  # cells[i][j] is a Mat2

    def cell(self, i: int, j: int) -> sl2.Mat2:
        return self.cells[i][j % self.n]


def generate_matrix_frieze(entries) -> MatrixFriezeWindow:
    """Matrix frieze of a quiddity sequence, cross-checked cell by cell.

    Every cell with i >= 2 is computed both by the matrix diamond rule and
    as the direct word U^{a_{i+j-1}}*S*...*S*U^{a_j}; a mismatch raises
    (it would mean the two constructions disagree, which the theory rules
    out for any integer row 1).
    """
    seq = eta.as_sequence(entries)
    n = len(seq)
    # row 0 is -S, row 1 is U^{a_j}
    rows = _diamond_rows((0, -1, 1, 0), [(1, 0, a, 1) for a in seq], n)
    words = rows[1]  # words[j] = U^{a_{i+j-1}} S ... S U^{a_j}, i = current
    for i in range(2, n + 1):
        # U^a*S == (0, 1, -1, a)
        words = [sl2.mul((0, 1, -1, seq[(i + j - 1) % n]), words[j]) for j in range(n)]
        for j in range(n):
            if rows[i][j] != words[j]:
                raise NotQuiddityError(
                    f"matrix diamond rule and word product disagree at ({i},{j})",
                    row=i,
                    col=j,
                )
    return MatrixFriezeWindow(n=n, cells=tuple(_as_mat2(row) for row in rows))


def generate_matrix_frieze_rows(row0: sl2.Mat2, row1, depth: int):
    """General matrix frieze: constant row 0, arbitrary periodic row 1.

    Returns rows 0..depth as tuples of Mat2, each of the period of row1,
    generated by the matrix diamond rule alone.
    """
    row1 = tuple(row1)
    rows = _diamond_rows(row0.entries(), [m.entries() for m in row1], depth)
    return [(row0,) * len(row1), row1] + [_as_mat2(row) for row in rows[2:]]


def _diamond_rows(row0, row1, depth: int) -> list:
    """Rows 0..depth of the matrix diamond rule on (a, b, c, d) tuples.

    Q(i, j) = Q(i-1, j+1) * Q(i-2, j+1)^-1 * Q(i-1, j), with row 0
    constant.
    """
    n = len(row1)
    rows = [(row0,) * n, tuple(row1)]
    for _ in range(2, depth + 1):
        above, twice_above = rows[-1], rows[-2]
        row = []
        for j in range(n):
            e, f, g, h = twice_above[(j + 1) % n]
            row.append(sl2.mul(sl2.mul(above[(j + 1) % n], (h, -f, -g, e)), above[j]))
        rows.append(tuple(row))
    return rows


def _as_mat2(row) -> tuple:
    return tuple(sl2.Mat2(*m) for m in row)


def render_frieze(window: FriezeWindow) -> str:
    """Staggered text rendering of rows 1..n-1.

    Row i is printed over the column window starting at j = -floor((i-1)/2)
    so that successive rows interleave diamond-fashion; even rows carry the
    half-cell indent, matching the usual hand-drawn layout.
    """
    n = window.n
    shown = range(1, n)
    width = max(
        len(str(window.value(i, j))) for i in shown for j in range(n)
    )
    half = (width + 3) // 2
    lines = []
    for i in shown:
        j0 = -((i - 1) // 2)
        cells = "  ".join(
            str(window.value(i, j0 + t)).rjust(width) for t in range(n)
        )
        indent = " " * half if i % 2 == 0 else ""
        lines.append((indent + cells).rstrip())
    return "\n".join(lines)
