#!/usr/bin/env python3
"""Frieze patterns of integers and of matrices.

Generates the frieze of a length-7 quiddity sequence, points out the
forced rows of ones and zeros, shows the same numbers arising as
tridiagonal determinants (continuants), and finishes with the matrix
frieze whose lower-left entries reproduce the integer pattern.
"""

from quiddity import eta, frieze, sl2

q = (4, 2, 1, 3, 2, 2, 1)
print(f"quiddity sequence: {q}  (valid: {eta.is_eta(q)})")
print()

window = frieze.generate_frieze(q)
print("rows 1..n-1, staggered as usually drawn:")
print(frieze.render_frieze(window))
print()

n = window.n
print(f"row {n - 1} is all ones: {window.rows[n - 1]}")
print(f"row {n} is all zeros:   {window.rows[n]}")
print(f"ones row found at: {frieze.has_ones_row(window)} (always n-1 for valid input)")
print()

print("every cell is a continuant of a window of the quiddity row:")
for i, j in [(3, 0), (4, 2), (5, 5)]:
    stretch = [q[(j + t) % n] for t in range(i - 1)]
    value = frieze.continuant(stretch)
    print(f"  phi({i},{j}) = det tridiag{tuple(stretch)} = {value} "
          f"(table says {window.rows[i][j]})")
print()

print("a non-quiddity row 2 fails: the diamond rule meets a zero divisor")
try:
    frieze.generate_frieze((1, 1, 1, 1, 1))
except Exception as exc:
    print(f"  (1,1,1,1,1) -> {exc}")
print()

print("=== matrix frieze ===")
mq = (2, 1, 2, 1)
mw = frieze.generate_matrix_frieze(mq)
print(f"row 0 is constant -S, row 1 holds U^a_j; for {mq}:")
for i in range(len(mq) + 1):
    print(f"  row {i}: " + "  ".join(str(mw.cell(i, j)) for j in range(len(mq))))
print(f"row n = {len(mq)} collapses to S in every cell, mirroring the zero row.")
print()

iw = frieze.generate_frieze(mq)
checks = all(
    mw.cell(i - 1, j).c == iw.rows[i][j]
    for i in range(1, len(mq) + 1)
    for j in range(len(mq))
)
print(f"lower-left entries of row i-1 reproduce the integer frieze row i: {checks}")
print()

print("the fully general matrix diamond rule works for any constant row 0:")
x_inv = sl2.eval_tokens("U^2*S")
row1 = [sl2.eval_tokens("U*S*U"), sl2.eval_tokens("S"), sl2.eval_tokens("U^3")]
rows = frieze.generate_matrix_frieze_rows(x_inv, row1, depth=3)
print(f"  row 2, cell 0: {rows[2][0]}")
print(f"  equals A_1 * X * A_0: {rows[2][0] == row1[1] @ x_inv.inverse() @ row1[0]}")
