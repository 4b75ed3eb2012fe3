"""Frieze patterns of integers and of matrices.

An integer frieze is the doubly indexed array phi(i, j) with phi(0, j) = 0,
phi(1, j) = 1, row 2 equal to a given periodic sequence, and every diamond
satisfying

    phi(i, j) * phi(i-2, j+1) == phi(i-1, j+1) * phi(i-1, j) - 1.

For a quiddity sequence of length n the rows are eventually forced back to
all ones (row n-1) and all zeros (row n); one period of rows 0..n is what a
FriezeWindow stores.  Row entries are continuants: phi(k+1, j) is the
determinant of the k x k tridiagonal matrix with diagonal a_j, ..., a_{j+k-1}
and unit off-diagonals, so whole rows follow from the three-term recurrence
phi(i, j) = a_{j+i-2} * phi(i-1, j) - phi(i-2, j).  The continuant identity
K(x_1..x_{m+1}) K(x_2..x_m) - K(x_1..x_m) K(x_2..x_{m+1}) = -1 makes these
rows satisfy the diamond rule at every cell, so the only way to fail the rule
solved for the lower cell is a zero divisor phi(i-2, j+1).

The matrix analogue replaces the diamond rule by
Q(i, j) = Q(i-1, j+1) * Q(i-2, j+1)^-1 * Q(i-1, j) with constant row 0.
Seeding row 0 with -S and row 1 with U^{a_j} makes Q(i, j) the word
U^{a_{i+j-1}}*S*...*S*U^{a_j}, and the integer frieze reappears in the
lower-left entries.
"""

from __future__ import annotations

from collections import namedtuple

from . import eta, sl2
from .errors import NotQuiddityError


class FriezeWindow(namedtuple("FriezeWindow", "n rows")):
    """One period of rows 0..n of an integer frieze; rows[i][j] = phi(i, j)."""

    __slots__ = ()

    def value(self, i: int, j: int) -> int:
        return self.rows[i][j % self.n]


def generate_frieze(entries) -> FriezeWindow:
    """Rows 0..n of the frieze with the given row 2, by the continuant recurrence.

    Row i is a_{j+i-2} * phi(i-1, j) - phi(i-2, j) across the rotated
    sequence; these rows satisfy the diamond rule at every cell.  Solving
    the rule for phi(i, j) divides by phi(i-2, j+1), so a zero in row i-2
    is the only failure: it raises NotQuiddityError at the first such cell
    (i, j) in row order.  Works for any positive sequence; valid quiddity
    input always completes.
    """
    seq = eta.as_sequence(entries)
    n = len(seq)
    rows = [(0,) * n, (1,) * n, seq]
    for i in range(3, n + 1):
        above, twice_above = rows[i - 1], rows[i - 2]
        if 0 in twice_above:
            j = min((c - 1) % n for c, x in enumerate(twice_above) if x == 0)
            raise NotQuiddityError(f"zero divisor at cell ({i},{j})", row=i, col=j)
        rotated = seq[i - 2:] + seq[:i - 2]
        rows.append(tuple([a * x - y for a, x, y in zip(rotated, above, twice_above)]))
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


class MatrixFriezeWindow(namedtuple("MatrixFriezeWindow", "n cells")):
    """Rows 0..n of the matrix frieze seeded by -S and U^{a_j}; cells[i][j] is a Mat2."""

    __slots__ = ()

    def cell(self, i: int, j: int) -> sl2.Mat2:
        return self.cells[i][j % self.n]


def generate_matrix_frieze(entries) -> MatrixFriezeWindow:
    """Rows 0..n of generate_matrix_frieze_rows seeded by -S and U^{a_j}.

    Let W(i, j) = U^{a_{i+j-1}}*S*...*S*U^{a_j}, with i powers of U, and
    W(0, j) = S^-1 = -S.  Then W(i-1, j+1) = U^{a_{i+j-1}}*S*W(i-2, j+1),
    so the diamond rule Q(i, j) = Q(i-1, j+1) * Q(i-2, j+1)^-1 * Q(i-1, j)
    gives Q(i, j) = U^{a_{i+j-1}}*S*W(i-1, j) = W(i, j) by induction on i.
    Integer products are exact, so every cell is its word and is computed
    once.  Entries must be positive ints.
    """
    seq = eta.as_sequence(entries)
    rows = generate_matrix_frieze_rows(-sl2.S, [sl2.u_pow(a) for a in seq], len(seq))
    return MatrixFriezeWindow(n=len(seq), cells=tuple(rows))


def generate_matrix_frieze_rows(row0: sl2.Mat2, row1, depth: int):
    """General matrix frieze: constant row 0, arbitrary periodic row 1.

    Returns rows 0..depth as tuples of Mat2, each of the period of row1,
    generated by the matrix diamond rule
    Q(i, j) = Q(i-1, j+1) * Q(i-2, j+1)^-1 * Q(i-1, j) on (a, b, c, d) tuples.
    """
    row1 = tuple(row1)
    n = len(row1)
    rows = [(row0.entries(),) * n, tuple(m.entries() for m in row1)]
    for _ in range(2, depth + 1):
        above, twice_above = rows[-1], rows[-2]
        row = []
        for j in range(n):
            e, f, g, h = twice_above[(j + 1) % n]
            row.append(sl2.mul(sl2.mul(above[(j + 1) % n], (h, -f, -g, e)), above[j]))
        rows.append(tuple(row))
    return [(row0,) * n, row1] + [tuple(sl2.Mat2(*m) for m in row) for row in rows[2:]]


def render_frieze(window: FriezeWindow) -> str:
    """Staggered text rendering of rows 1..n-1.

    Row i is printed over the column window starting at j = -floor((i-1)/2)
    so that successive rows interleave diamond-fashion; even rows carry the
    half-cell indent, matching the usual hand-drawn layout.
    """
    n = window.n
    shown = range(1, n)
    width = max(len(str(window.value(i, j))) for i in shown for j in range(n))
    half = (width + 3) // 2
    lines = []
    for i in shown:
        j0 = -((i - 1) // 2)
        cells = "  ".join(str(window.value(i, j0 + t)).rjust(width) for t in range(n))
        indent = " " * half if i % 2 == 0 else ""
        lines.append((indent + cells).rstrip())
    return "\n".join(lines)
