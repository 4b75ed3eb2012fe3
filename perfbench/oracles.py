"""Independent checks for the benchmark's outputs.

Nothing here imports the package: each check recomputes the answer by a
different method (closed forms, plain-int matrix products, explicit
rotations) so that a wrong library answer counts as a failed operation.
"""

from __future__ import annotations

import math

MINUS_I = (-1, 0, 0, -1)
IDENTITY = (1, 0, 0, 1)


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def burnside_k(n: int) -> int:
    """K_n by Burnside's lemma (Moon and Moser 1963; OEIS A000207).

    2n K_n = C_{n-2} + [n even] (3n/2) C_{n/2-1} + [n odd] n C_{(n-3)/2}
             + [3 | n] (2n/3) C_{n/3-1}
    """
    total = catalan(n - 2)
    if n % 2 == 0:
        total += (3 * n // 2) * catalan(n // 2 - 1)
    else:
        total += n * catalan((n - 3) // 2)
    if n % 3 == 0:
        total += (2 * n // 3) * catalan(n // 3 - 1)
    q, r = divmod(total, 2 * n)
    if r:
        raise ArithmeticError(f"Burnside sum for n={n} is not divisible by 2n")
    return q


def tsa(n: int):
    """(T_n, S_n, A_n): Catalan count, reversal-fixed count, reversal pairs.

    A sequence fixed by reversal i -> n-1-i exists only for odd n = 2m+1,
    where the reflection fixes vertex m and the opposite side; such
    triangulations are counted by C_{m-1}.
    """
    t = catalan(n - 2)
    s = catalan((n - 1) // 2 - 1) if n % 2 else 0
    return (t, s, (t - s) // 2)


def word_product(entries):
    """U^c0*S * ... * U^c_{n-1}*S as a plain (a, b, c, d) tuple."""
    a, b, c, d = IDENTITY
    for x in entries:
        a, b, c, d = -b, a + b * x, -d, c + d * x
    return (a, b, c, d)


def is_quiddity(entries) -> bool:
    seq = tuple(entries)
    return (
        len(seq) >= 3
        and all(x >= 1 for x in seq)
        and sum(seq) == 3 * len(seq) - 6
        and word_product(seq) == MINUS_I
    )


def mul(m, k):
    a, b, c, d = m
    e, f, g, h = k
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


S = (0, 1, -1, 0)
T = (0, 1, -1, -1)


def u_pow(a: int):
    return (1, 0, a, 1)


def eval_tokens(text: str):
    """Plain-int value of a '*'-joined word of S, U and U^k tokens."""
    m = IDENTITY
    for tok in text.split("*"):
        m = mul(m, S if tok == "S" else u_pow(1 if tok == "U" else int(tok[2:])))
    return m


def eval_normal_form(text: str):
    """Plain-int value of a rendered S/T normal form such as -T*S*T^2*S."""
    sign = -1 if text.startswith("-") else 1
    body = text.lstrip("-")
    m = IDENTITY
    if body != "I":
        for tok in body.split("*"):
            if tok == "S":
                m = mul(m, S)
            else:
                for _ in range(1 if tok == "T" else int(tok[2:])):
                    m = mul(m, T)
    return tuple(sign * x for x in m)


def order_ok(m, order) -> bool:
    """Torsion in SL2(Z) has order at most 12; None means infinite."""
    powers = [m]
    for _ in range(11):
        powers.append(mul(powers[-1], m))
    first = next((k + 1 for k, p in enumerate(powers) if p == IDENTITY), None)
    return first == order


def dihedral_canon(entries):
    """Least rotation of the sequence or of its reversal, and the orbit size."""
    seq = tuple(entries)
    images = set()
    for base in (seq, seq[::-1]):
        for t in range(len(base)):
            images.add(base[t:] + base[:t])
    return min(images), len(images)


def least_period(entries) -> int:
    seq = tuple(entries)
    return next(p for p in range(1, len(seq) + 1) if seq[p:] + seq[:p] == seq)


def perfect_tripartitions(n: int):
    """Arc triples (i, j, k), i >= j >= k, with every arc shorter than n/2.

    A central triangle has all three boundary arcs shorter than half the
    polygon; a central diameter (even n only) splits it into (n/2, n/2, 0).
    """
    out = set()
    if n % 2 == 0:
        out.add((n // 2, n // 2, 0))
    for i in range(1, n):
        if 2 * i >= n:
            break
        for j in range(1, i + 1):
            k = n - i - j
            if 1 <= k <= j:
                out.add((i, j, k))
    return out


def formula_tiling(i: int, j: int) -> int:
    if i * j < 0:
        return abs(i) + abs(j) + 2
    return abs(i * j) + abs(i) + abs(j) + 2


def tiling_factor(index: int) -> int:
    """Factor of row or column ``index`` in the closed-form tiling.

    Off the axes the tiling is affine in each direction (factor 2); the
    fracture at index 0 has factor 3, since alpha(i,-1) + alpha(i,1)
    = 3 (|i| + 2) = 3 alpha(i, 0).
    """
    return 3 if index == 0 else 2
