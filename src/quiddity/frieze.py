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
lower-left entries.  Only the matrix frieze loads :mod:`quiddity.sl2`.
"""

from collections import namedtuple

from . import eta
from .errors import (FRIEZE_LENGTH_CAP, MATRIX_FRIEZE_CELL_CAP, InvalidSequenceError,
                     NotQuiddityError, _check_int)


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

    Rows close by the frieze's glide reflection (Conway and Coxeter): row
    m rotated left by n - m is the glide image for row n - m.  The
    continuant recurrence also holds read from its other end, so for any
    positive input the images obey the row recurrence with the same
    coefficients, forwards and backwards.  So if rows i - 1 and i, for the
    least i with 2i >= n + 3, equal their images, the later rows are
    copied; their zero tests would test rotations of rows 2..n-i+1, already
    tested.  Otherwise no later pair matches and the recurrence runs on.
    More than FRIEZE_LENGTH_CAP entries raise InvalidSequenceError first.
    """
    seq = eta.as_sequence(entries)
    n = len(seq)
    if n > FRIEZE_LENGTH_CAP:
        raise InvalidSequenceError(f"frieze of {n} entries, over the limit of {FRIEZE_LENGTH_CAP}")
    rows = [(0,) * n, (1,) * n, seq]

    def glide(k):  # the image of row n - k, a candidate for row k
        return rows[n - k][k:] + rows[n - k][:k]

    for i in range(3, n + 1):
        above, twice_above = rows[i - 1], rows[i - 2]
        if 0 in twice_above:
            j = min((c - 1) % n for c, x in enumerate(twice_above) if x == 0)
            raise NotQuiddityError(f"zero divisor at cell ({i},{j})", row=i, col=j)
        rotated = seq[i - 2:] + seq[:i - 2]
        rows.append(tuple([a * x - y for a, x, y in zip(rotated, above, twice_above)]))
        if i == (n + 4) // 2 and rows[i] == glide(i) and above == glide(i - 1):
            rows += [glide(k) for k in range(i + 1, n + 1)]
            break
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

    Unit off-diagonals.  K(x_1..x_k) is the b entry of the word
    S*U^x_1*S*...*U^x_k*S, read off the word kernel ``eta._word_product``:
    its step b <- a + b*x with a <- -b is the three-term recurrence
    K(x_1..x_k) = x_k * K(x_1..x_{k-1}) - K(x_1..x_{k-2}), with K() = 1.
    """
    return eta._word_product(entries, (0, 1, -1, 0))[1]


class MatrixFriezeWindow(namedtuple("MatrixFriezeWindow", "n cells")):
    """Rows 0..n of the matrix frieze seeded by -S and U^{a_j}; cells[i][j] is a Mat2."""

    __slots__ = ()

    def cell(self, i: int, j: int):
        """The Mat2 Q(i, j), j read modulo n."""
        return self.cells[i][j % self.n]


def generate_matrix_frieze(entries) -> MatrixFriezeWindow:
    """Rows 0..n of generate_matrix_frieze_rows seeded by -S and U^{a_j}.

    With constant row 0 = X and row 1 = (M_j), the diamond rule
    Q(i, j) = Q(i-1, j+1) * Q(i-2, j+1)^-1 * Q(i-1, j) collapses to
    Q(i, j) = M_{i+j-1} * X^-1 * Q(i-1, j) by induction on i: true at
    i = 1, and at (i-1, j+1) it says Q(i-1, j+1) * Q(i-2, j+1)^-1 =
    M_{i+j-1} * X^-1.  Here X^-1 = S, so every cell is its word
    Q(i, j) = U^{a_{i+j-1}}*S*...*S*U^{a_j}, with i powers of U, exact and
    computed once.  Entries must be positive ints.
    """
    from . import sl2  # only the matrix frieze needs it

    seq = eta.as_sequence(entries)
    rows = generate_matrix_frieze_rows(-sl2.S, [sl2.u_pow(a) for a in seq], len(seq))
    return MatrixFriezeWindow(n=len(seq), cells=tuple(rows))


def generate_matrix_frieze_rows(row0, row1, depth: int):
    """General matrix frieze: constant row 0, arbitrary periodic row 1.

    Returns rows 0..depth as tuples of Mat2, each of the period of row1, of
    the matrix diamond rule in the collapsed form of generate_matrix_frieze:
    the n factors M_k * X^-1 first, then one product per cell on
    (a, b, c, d) tuples.  A depth that is not an int >= 0, or more than
    MATRIX_FRIEZE_CELL_CAP cells in rows 0..depth, raise InvalidSequenceError
    before any row is built.
    """
    from . import sl2

    _check_int(depth, "matrix frieze depth")
    if depth < 0:
        raise InvalidSequenceError(f"matrix frieze depth must be at least 0, got {depth}")
    row1 = tuple(row1)
    n = len(row1)
    if (depth + 1) * n > MATRIX_FRIEZE_CELL_CAP:
        raise InvalidSequenceError(f"matrix frieze of {(depth + 1) * n} cells, "
                                   f"over the limit of {MATRIX_FRIEZE_CELL_CAP}")
    e, f, g, h = row0.entries()
    factors = [sl2.mul(m.entries(), (h, -f, -g, e)) for m in row1]
    rows = [(row0,) * n, row1]
    row = [m.entries() for m in row1]
    for i in range(2, depth + 1):
        row = [sl2.mul(factors[(i + j - 1) % n], cell) for j, cell in enumerate(row)]
        rows.append(tuple(sl2.Mat2(*m) for m in row))
    return rows[:depth + 1]


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
