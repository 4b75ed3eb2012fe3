"""Dihedral similarity types of quiddity sequences (hence of frieze patterns).

Two quiddity sequences of length n are similar when one is a rotation of
the other or of its reversal; the orbits of this dihedral action are the
similarity types, and K_n counts them.  Reflection acts as index reversal
i -> n-1-i (any reflection generates the same group together with the
rotations; reversal is the one whose fixed sequences are counted by S_n).
An orbit is fixed by the least rotations of a sequence and of its reversal
(least circular shifts, Booth, Inf. Proc. Letters 10, 1980): one pass,
``_least_rotations``, finds both and the period, and ``canonical_form``,
``canonicalize`` and ``classify`` read their answers off it.

Counting machinery:

* T_n = C_{n-2} quiddity sequences of length n (Catalan), S_n of them
  reversal-fixed (0 for even n, C_{m-1} for n = 2m+1), A_n = (T_n - S_n)/2
  unordered {a, reversal} pairs.
* Every triangulation has a unique central triangle or central diameter;
  its boundary arcs form a *perfect tri-partition* (i, j, k) of n:
  (m, m, 0) plus all i <= m-1 partitions when n = 2m, all i <= m
  partitions when n = 2m+1.  Gluing orbit data of the three (or two)
  sub-polygons yields a closed count N(i, j, k) per partition, and
  K_n is the sum over all perfect tri-partitions.  That sum closes case
  by case (``_closed_sum``): ``count_types`` reads K_n off C_{n-2} and at
  most four Catalan numbers of index below n/2, so it costs about one
  ``math.comb`` of that size; ``perfect_tripartitions`` and
  ``case_count`` keep the sum term by term.
* The same gluing, run over actual sequences instead of counts, enumerates
  one representative per type: the arms of the sub-polygons, listed by
  the walk over all triangulations, ``eta.iter_quiddities``, and one
  choice of arms per orbit of the central cell's symmetries, kept by a
  rule on arm indices.  Brute forces over all triangulations of the
  n-gon, by orbit counting and by canonical forms, take the same walk and
  are kept alongside as oracles; no sweep loads :mod:`quiddity.polygons`.
  All these sweeps are refused above ``SWEEP_CAP`` (14) unless ``cap=``
  raises it; the cap and ``check_sweep`` live in :mod:`quiddity.errors`.

The ternary composition law sits underneath: given quiddity sequences a,
b, c of an (i+1)-, (j+1)- and (k+1)-gon arranged counterclockwise around a
central triangle, the glued n-gon has quiddity

    (a0+c_w+1, a1, ..., a_{u-1}, a_u+b0+1, b1, ..., b_{v-1}, b_v+c0+1,
     c1, ..., c_{w-1})

with the three +1s contributed by the central triangle itself.  A central
diameter (k = 0) glues two sequences the same way without the +1s.  An
arc of one side is a degenerate 2-gon arm and enters as (0, 0), in any
slot and in any number: the formula holds for it unchanged.
"""

import functools
import itertools
import math
from collections import namedtuple

from . import eta
from .errors import TRIPARTITION_N_CAP, _check_int, check_limit, check_sweep

DEGENERATE = (0, 0)

SYMMETRIC = "symmetric"
PSEUDO_SYMMETRIC = "pseudo-symmetric"
ASYMMETRIC = "asymmetric"


def catalan(k: int) -> int:
    _check_int(k, "k")
    return math.comb(2 * k, k) // (k + 1)


# Least dihedral image of a sequence plus the size of its orbit.
OrbitCanon = namedtuple("OrbitCanon", "canon orbit_size")

SeqClassification = namedtuple("SeqClassification", "period category")


class TriPartition(namedtuple("TriPartition", "i j k case")):
    """Arc lengths i >= j >= k of a central cell and their case letter."""

    __slots__ = ()

    def parts(self):
        return self[:3]


def _least_rotations(seq: tuple):
    """(least rotation of seq, least rotation of its reversal, period of seq).

    A least rotation starts with the least entry, so one pass reads, at each
    t holding ``min(seq)``, the rotations forward and backward from t (the
    latter of the reversal), keeping only the least so far: O(n) memory.
    Rotations equal to the least one recur once per period, so the period
    is n over their number.
    """
    n = len(seq)
    low = min(seq)
    doubled = seq + seq
    rdoubled = doubled[::-1]
    fwd = back = None
    for t, x in enumerate(seq):
        if x == low:
            image = doubled[t:t + n]
            if fwd is None or image < fwd:
                fwd, repeats = image, 0
            repeats += image == fwd
            image = rdoubled[n - 1 - t:2 * n - 1 - t]
            if back is None or image < back:
                back = image
    return fwd, back, n // repeats


def canonical_form(entries) -> tuple:
    """Lexicographically least among all rotations of the sequence and its reversal."""
    fwd, back, _ = _least_rotations(tuple(entries))
    return min(fwd, back)


def canonicalize(entries) -> OrbitCanon:
    """Least dihedral image, and orbit size: 2p for period p, p if a reflection fixes it."""
    fwd, back, period = _least_rotations(eta.as_sequence(entries))
    return OrbitCanon(min(fwd, back), period if fwd == back else 2 * period)


def classify(entries) -> SeqClassification:
    """Period and symmetry category of a quiddity sequence.

    The period p is the least rotation fixing the sequence (n/p is always
    1, 2 or 3 for valid sequences).  With (a_0, ..., a_{p-1}) the period
    block: the sequence is symmetric when p is odd and the block is a
    palindrome, pseudo-symmetric when p is even and a_i == a_{p-i mod p}
    for all i, and asymmetric otherwise.
    """
    return _describe(eta.as_sequence(entries))[0]


def _describe(seq: tuple):
    """classify(seq) and canonicalize(seq) of a checked sequence, from one dihedral pass."""
    fwd, back, period = _least_rotations(seq)
    block = seq[:period]
    if period % 2 == 1 and all(block[i] == block[period - 1 - i] for i in range(period)):
        category = SYMMETRIC
    elif period % 2 == 0 and all(block[i] == block[-i % period] for i in range(1, period)):
        category = PSEUDO_SYMMETRIC
    else:
        category = ASYMMETRIC
    orbit = OrbitCanon(min(fwd, back), period if fwd == back else 2 * period)
    return SeqClassification(period=period, category=category), orbit


@functools.lru_cache(maxsize=None)
def _tsa(length: int):
    """(T, S, A) of the sub-polygon with ``length`` vertices; length 2 is the degenerate 2-gon.

    Cached per length: ``case_count`` over all perfect tri-partitions asks
    for the same arc lengths thousands of times, and the cache holds at
    most one int triple per length up to n.
    """
    if length == 2:
        return (1, 1, 0)
    t = catalan(length - 2)
    s = 0 if length % 2 == 0 else catalan((length - 1) // 2 - 1)
    return (t, s, (t - s) // 2)


def count_TSA(n: int):
    """(T_n, S_n, A_n): all, reversal-fixed, and paired quiddity sequences."""
    _check_n(n)
    return _tsa(n)


def _check_n(n) -> None:
    """Refuse an n that is not an int (bools included) or is below 3."""
    _check_int(n, "n")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")


def count_TSA_brute(n: int, cap: int = None):
    """(T_n, S_n, A_n) by exhaustive enumeration."""
    total = 0
    fixed = 0
    for q in eta.iter_quiddities(n, cap):
        total += 1
        if q == q[::-1]:
            fixed += 1
    return (total, fixed, (total - fixed) // 2)


def perfect_tripartitions(n: int):
    """Arc triples (i, j, k), i >= j >= k, of central triangles/diameters.

    n = 2m: the central-diameter triple (m, m, 0) plus every triple with
    i <= m - 1 (which forces k >= 2); n = 2m+1: every triple with i <= m
    (which forces k >= 1).  Cases: A central diameter, B degenerate arm
    k = 1 for i = j = m, then C/D/E/F by the equality pattern of i, j, k.
    The list holds about n^2/48 triples, so an n above TRIPARTITION_N_CAP
    raises InvalidSequenceError before any is built.
    """
    _check_n(n)
    check_limit(n, TRIPARTITION_N_CAP, "perfect tri-partitions of n={}")
    out = [TriPartition(n // 2, n // 2, 0, "A")] if n % 2 == 0 else []
    for i in range((n - 1) // 2, 0, -1):  # the largest arc below n/2 first
        for j in range(min(i, n - i - 1), 0, -1):
            k = n - i - j
            if k > j:
                break
            out.append(_tripartition(n, i, j, k))
    return out


def _tripartition(n: int, i: int, j: int, k: int) -> TriPartition:
    """The arcs i >= j >= k >= 1 of a central triangle of the n-gon, with their case."""
    if n % 2 == 1 and i == j == n // 2:  # k == 1
        case = "B"
    elif i > j > k:
        case = "C"
    elif i == j > k:
        case = "D"
    elif i > j == k:
        case = "E"
    else:
        case = "F"
    return TriPartition(i, j, k, case)


def case_count(tp: TriPartition) -> int:
    """Number of similarity types whose central structure has these arcs.

    B, D and E have two equal arcs, the pair, and count by Burnside's lemma
    the orbits of the reflection that swaps those arms: (t_odd*t_pair^2 +
    s_odd*t_pair) / 2.  B is D with a 2-gon arm (T = S = 1), and E is D
    with the roles of the arms swapped, so ROADMAP.md's stabilizer rules
    for B, D and E are one rule too: t_pair*s_odd types have |Stab| = 2.
    """
    ti, si, ai = _tsa(tp.i + 1)
    if tp.case == "A":
        # Z2 x Z2 (swap the halves, reflect both) acting on ordered pairs
        return ai * (ai + 1) + ai * si + si * (si + 1) // 2
    if tp.case == "F":
        # dihedral D3 permutes the three equal arms
        return ti * (ti + 1) * (ti + 2) // 6 - ti * ai
    tj = _tsa(tp.j + 1)[0]
    tk, sk, _ = _tsa(tp.k + 1)
    if tp.case == "C":
        return ti * tj * tk
    # B, D, E: arc j is in the pair, i = j (B, D) or j = k (E)
    t_odd, s_odd = (tk, sk) if tp.i == tp.j else (ti, si)
    return (t_odd * tj * tj + s_odd * tj) // 2


def _closed_sum(n: int) -> int:
    """The sum of ``case_count`` over the perfect tri-partitions of n, in closed form.

    An arc a >= 2 carries the arms of the (a+1)-gon, ``_tsa(a + 1)``: t_a =
    C_{a-1} of them, s_a = C_{a/2-1} reversal-fixed (0 for odd a).  With
    m = n // 2:

    * Ordered triples of arcs summing to n carry sum t_a*t_b*t_c =
      3*binom(2n-3, n-3)/(2n-3) = 3(n-2)*C_{n-2}/n, the coefficient of
      x^{n-3} in the cube of the Catalan series.  At most one arc exceeds
      (n-1)//2, and in a given slot such arcs carry ``tail``, the upper
      half of the convolution sum C_{a-1}*C_{n-a-1} = C_{n-1} less its
      term a = n-1: (C_{n-1} + [n even]*C_{m-1}^2)/2 - C_{n-2}.
    * What is left counts each triple of distinct arcs (case C) six times,
      each of arcs a, a, b three times and the equilateral one once.  B, D
      and E add (t_b*t_a^2 + s_b*t_a)/2 each: their t_b*t_a^2 halves make
      the three counts six, and ``pairs`` = sum s_b*t_a is left.  It is
      C_{m-1} for odd n (B alone: s_b = 0 for odd b > 1, and 1 for the
      2-gon) and for even n, where b is even, the lower half of the
      convolution for C_{m-1}, less its term b = a at n/3.
    * F adds 2t + 3ts at a = n/3, its count less the t^3/6 counted above,
      and A its ``case_count``.

    So 6*K_n = ordered - 3*tail + F + 3*pairs + 6*A, from C_{n-2} and at
    most four Catalan numbers of index below n/2.
    """
    if n == 3:
        return 1  # the triangle is case B; F would count it again
    m, even = n // 2, n % 2 == 0
    c = catalan(n - 2)
    t, s, _ = _tsa(m + 1)
    tail = (c * (4 * n - 6) // n + even * t * t) // 2 - c  # C_{n-1} = C_{n-2}*(4n-6)/n
    if even:
        pairs = (t - s * s) // 2
        diameter = case_count(TriPartition(m, m, 0, "A"))
    else:
        pairs, diameter = t, 0
    equilateral = 0
    if n % 3 == 0:
        t, s, _ = _tsa(n // 3 + 1)
        equilateral = 2 * t + 3 * t * s
        pairs -= t * s
    return (3 * (n - 2) * c // n - 3 * tail + equilateral + 3 * pairs + 6 * diameter) // 6


def compose(a, b, c=None) -> tuple:
    """Glue two or three quiddity sequences around a central cell.

    ``compose(a, b)`` glues along a shared diameter; ``compose(a, b, c)``
    glues around a central triangle, each junction vertex picking up the
    +1 the central triangle contributes.  Around a triangle, any arm may
    be the degenerate 2-gon (0, 0), in any slot and in any number: three
    give the triangle (1, 1, 1) itself, and turning the arms to put a 2-gon
    in another slot rotates the result.  The result is always a valid
    quiddity sequence.
    """
    if c is None:
        return _glue(eta.as_sequence(a), eta.as_sequence(b))
    return _glue(*[x if x == DEGENERATE and type(x[0]) is type(x[1]) is int else eta.as_sequence(x)
                   for x in map(tuple, (a, b, c))])


def _glue(a: tuple, b: tuple, c: tuple = None) -> tuple:
    """compose on arms already checked: the gluing formula of the module docstring."""
    if c is None:
        u, v = len(a) - 1, len(b) - 1
        return (a[0] + b[v],) + a[1:u] + (a[u] + b[0],) + b[1:v]
    u, v, w = len(a) - 1, len(b) - 1, len(c) - 1
    return (
        (a[0] + c[w] + 1,)
        + a[1:u]
        + (a[u] + b[0] + 1,)
        + b[1:v]
        + (b[v] + c[0] + 1,)
        + c[1:w]
    )


def brute_type_set(n: int, cap: int = None):
    """Canonical forms of all quiddity sequences of length n, exhaustively."""
    return {canonical_form(q) for q in eta.iter_quiddities(n, cap)}


def _stabilizer_sum(quiddities, n: int) -> int:
    """Sum over quiddities q of |Stab(q)| in the dihedral group of the n-gon.

    Periods are n, n/2 or n/3, so one slice comparison each tests the half
    and third turns; the order doubles when the reversed word is a
    substring of the doubled word.  Entries are at most n - 2: words are
    bytes up to n = 257 and strings of code points beyond.
    """
    # Not _least_rotations: its pass of tuple slices per least entry made the
    # whole brute K_12 sweep 1.5 times and K_13 1.9 times slower than these
    # slice and bytes tests (70 -> 107 ms, 200 -> 389 ms, Python 3.11).
    h, t = n // 2, n // 3
    halves, thirds = n % 2 == 0, n % 3 == 0
    word = bytes if n <= 257 else lambda q: "".join(map(chr, q))
    total = 0
    for q in quiddities:
        w = word(q)
        size = 1
        if halves and w[:h] == w[h:]:
            size = 2
        elif thirds and w[:t] == w[t:2 * t] == w[2 * t:]:
            size = 3
        if w[::-1] in w + w:
            size *= 2
        total += size
    return total


def count_types(n: int, method: str = "formula", cap: int = None) -> int:
    """K_n, the number of similarity types of length-n quiddity sequences.

    ``formula`` is the paper's sum of ``case_count`` over the perfect
    tri-partitions, closed case by case (``_closed_sum``): it reads C_{n-2}
    and at most four smaller Catalan numbers, and builds no list of
    tri-partitions or of Catalan numbers.  ``brute`` counts orbits over all
    triangulations by Burnside's lemma, K_n = sum of |Stab(q)| / 2n,
    without canonical forms.
    """
    if method == "formula":
        _check_n(n)
        return _closed_sum(n)
    if method == "brute":
        return _stabilizer_sum(eta.iter_quiddities(n, cap), n) // (2 * n)
    raise ValueError(f"method must be 'formula' or 'brute', got {method!r}")


def _reversals(arms: list) -> list:
    """r with arms[r[x]] the reversal of arms[x]."""
    index = {arm: x for x, arm in enumerate(arms)}
    return [index[arm[::-1]] for arm in arms]


def _type_choices(tp: TriPartition, arms: dict):
    """One choice of arms for tp per type, case_count(tp) in all.

    The central cell is unique, so two choices compose to similar sequences
    exactly when a symmetry of the cell maps one to the other; a rule on
    the indices (x, y, z) of the arms in their lists keeps one choice of
    each orbit, with r the reversal map of a list.  C has no symmetry.  B
    and D, whose first two arms pair, keep x < r(y), or x = r(y) and
    z <= r(z).  E, whose last two arms pair, is glued pair-first and kept
    by the same rule: turning the arms around the central triangle only
    rotates the glued sequence (Conway and Coxeter).  A, whose orbits are
    {(x, y), (y, x), (r(x), r(y)), (r(y), r(x))}, keeps the least pair of
    each: x <= y, x <= r(x) and x <= r(y), and y <= r(y) when x = r(x).
    F keeps the index triples least among their images under the turns
    and reflections of the triangle; reflecting reverses the order of the
    arms and each arm.
    """
    lists = [arms[p + 1] for p in tp.parts() if p]
    if tp.case == "E":  # pair first: _glue(b, c, a) is a rotation of _glue(a, b, c)
        lists = lists[1:] + lists[:1]
    if tp.case == "C":
        yield from itertools.product(*lists)
    elif tp.case in "BDE":
        pair, odd = lists[0], lists[2]
        r, r_odd = _reversals(pair), _reversals(odd)
        odd_kept = [c for z, c in enumerate(odd) if z <= r_odd[z]]
        for y, b in enumerate(pair):
            yield from itertools.product(pair[:r[y]], (b,), odd)
            yield from itertools.product((pair[r[y]],), (b,), odd_kept)
    elif tp.case == "A":
        arm, r = lists[0], _reversals(lists[0])
        for x, a in enumerate(arm):
            if x <= r[x]:
                yield from ((a, arm[y]) for y in range(x, len(arm))
                            if x <= r[y] and (x < r[x] or y <= r[y]))
    else:
        arm, r = lists[0], _reversals(lists[0])
        for c in itertools.product(range(len(arm)), repeat=3):
            x, y, z = c
            if c == min(c, (y, z, x), (z, x, y), (r[z], r[y], r[x]), (r[x], r[z], r[y]),
                        (r[y], r[x], r[z])):
                yield (arm[x], arm[y], arm[z])


def enumerate_types(n: int, cap: int = None):
    """One canonical representative per similarity type, sorted.

    Realizes the central-structure decomposition: for every perfect
    tri-partition, glue each choice of arms (two for a central diameter,
    the 2-gon (0, 0) for an arc of one side) that ``_type_choices`` keeps,
    one per type.  The arms of the m-gon, m <= n/2 + 1, are listed by the
    walk of ``eta.iter_quiddities``, at most C_{n/2-1} of them per arc.
    Each type is composed once, so exactly K_n canonical forms are taken
    and no set deduplicates them.  Refused outside 3..cap like the brute
    force; the cap bounds n only.
    """
    check_sweep(n, cap)
    arms = {2: [DEGENERATE]}
    for m in range(3, n // 2 + 2):  # m < n, so the check of n covers m
        arms[m] = list(eta._odometer(m))
    return sorted(canonical_form(_glue(*choice))
                  for tp in perfect_tripartitions(n) for choice in _type_choices(tp, arms))
