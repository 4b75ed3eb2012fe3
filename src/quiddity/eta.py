"""Quiddity sequences and their rewriting rules.

A quiddity sequence is a cyclic tuple of positive integers (c0, ..., c_{n-1}),
n >= 3, that reads off the triangle count at each vertex of a triangulated
convex n-gon.  Equivalently (and this is the criterion implemented here),
the matrix word

    U^c0 * S * U^c1 * S * ... * U^c_{n-1} * S

multiplies out to -I.  The family is closed under rotation and reversal,
and is generated from (1, 1, 1) by the expansion move that splits a vertex:
insert a new 1 into a cyclic gap and bump both neighbours.  Its inverse,
cutting an ear, is the package's one ear clipper ``_cut_ears``, linear:
``_clip_ears`` decides membership with it, without matrices, and
``supplements.is_embeddable`` completes a segment with it.

The package's one fold of such words, ``_word_product``, lives here, so
``is_eta`` runs without loading :mod:`quiddity.sl2`; ``sl2.word_product``
is the same function, and ``word_matrix`` loads ``sl2`` when called.

The package's one walk over all C_{n-2} triangulations (Catalan) lives
here too: ``iter_quiddities`` yields their quiddity sequences by recursion
on the apex of the triangle on the side (n-1, 0), apex increasing, left
sub-polygon first, run on an explicit stack (``_odometer``).  Every
exhaustive sweep takes it, and ``check_sweep`` bounds its n.

Sequences are plain tuples of ints everywhere; every public function
validates shape (length >= 3, int entries >= 1) and raises
InvalidSequenceError otherwise.
"""

from .errors import ContractionError, InvalidSequenceError, _check_int, check_sweep


def as_sequence(entries, min_length: int = 3) -> tuple:
    """Normalize to a tuple and check length >= min_length and positivity."""
    seq = tuple(entries)
    if len(seq) < min_length:
        raise InvalidSequenceError(f"need at least {min_length} entries, got {len(seq)}")
    for x in seq:
        if type(x) is not int or x < 1:
            raise InvalidSequenceError(f"entries must be positive integers, got {x!r}")
    return seq


def _word_product(exponents, start=(1, 0, 0, 1)) -> tuple:
    """start * U^x0*S * U^x1*S * ... as an ``(a, b, c, d)`` int tuple.

    The integer kernel behind every word product of the package; no
    ``Mat2`` is built and no determinant is checked.
    """
    a, b, c, d = start
    for x in exponents:
        # [[a, b], [c, d]] * U^x * S
        a, b, c, d = -b, a + b * x, -d, c + d * x
    return a, b, c, d


def word_matrix(entries):
    """The product U^c0*S * U^c1*S * ... * U^c_{n-1}*S, a ``sl2.Mat2``."""
    from . import sl2

    return sl2.Mat2(*_word_product(entries))


def is_eta(entries) -> bool:
    """Whether the sequence is a quiddity sequence (word reduces to -I)."""
    seq = as_sequence(entries)
    # cheap necessary condition first: n-2 triangles, 3 incidences each
    if sum(seq) != 3 * len(seq) - 6:
        return False
    return _word_product(seq) == (-1, 0, 0, -1)


def is_eta_by_contraction(entries) -> bool:
    """Matrix-free O(n) membership by :func:`_clip_ears`, the tests' cross-oracle for is_eta."""
    return _clip_ears(as_sequence(entries)) is not None


def _clip_ears(seq: tuple):
    """The diagonals (u, v), u < v, cut off down to (1, 1, 1), or None if not a quiddity.

    Cutting an ear keeps a sequence valid, and a valid one of 4 or more
    entries has an ear and no two adjacent 1s (a 1 never decreases), so a
    sum other than 3n - 6 or :func:`_cut_ears` stopping short of n - 3 cuts
    refuses.  The triangulation is unique, so the cut order is free.
    """
    n = len(seq)
    if sum(seq) != 3 * n - 6:
        return None
    diagonals, _, ok = _cut_ears(seq)
    return diagonals if ok and len(diagonals) == n - 3 else None


def _cut_ears(seq: tuple):
    """Cut the ears of the cyclic sequence until 3 entries remain or none is left.

    Cutting the ear at an entry 1 joins its neighbours (prev/next arrays),
    decrements them and puts one that drops to 1 on the worklist, leftmost
    ear first: the worklist starts right to left, and a cut pushes its right
    neighbour before its left one.  Returns ``(diagonals, counts, ok)``: the
    cut diagonals (u, v), u < v, the entries, 0 where an ear was cut, and
    False if it stopped at an ear next to a 1.
    """
    n = len(seq)
    counts = list(seq)
    prev = [n - 1, *range(n - 1)]
    nxt = [*range(1, n), 0]
    ears = [i for i in range(n - 1, -1, -1) if seq[i] == 1]
    diagonals = []
    for _ in range(n - 3):
        if not ears:
            break
        i = ears.pop()
        u, v = prev[i], nxt[i]
        cu, cv = counts[u] - 1, counts[v] - 1
        if not (cu and cv):  # a neighbour is 1
            return diagonals, counts, False
        diagonals.append((u, v) if u < v else (v, u))
        nxt[u], prev[v] = v, u
        counts[i], counts[u], counts[v] = 0, cu, cv
        if cv == 1:
            ears.append(v)
        if cu == 1:
            ears.append(u)
    return diagonals, counts, True


def iter_quiddities(n: int, cap: int = None):
    """An iterator over the quiddity sequence of every triangulation of the n-gon.

    n and cap are checked (``check_sweep``) at the call, before the first
    item is asked for; ``_odometer`` yields the sequences.
    """
    check_sweep(n, cap)
    return _odometer(n)


def _odometer(n: int):
    """Yield the quiddity sequences of ``iter_quiddities``, n already checked.

    The apex recursion of the module docstring, without recursion.  A
    triangulation is the preorder list of its triangles, one frame
    ``(lo, hi, apex, rest)`` per arc of two or more sides, and the order
    is lexicographic in the apexes.  Each step is an odometer move: pop
    the frames whose apex is at ``hi - 1``, move the last apex one step,
    and complete the pending arcs with their first triangulations, the
    fans ``(k, k + 1, hi)``.  ``pending`` and each frame's ``rest`` are
    cons-lists ``(arc, tail)`` of the arcs that still follow in preorder.
    The vertex counts are updated in place and the state is O(n), which
    makes exhaustive sweeps over hundreds of thousands of triangulations
    practical.
    """
    counts = [0] * n
    frames = []
    push = frames.append
    pop = frames.pop
    pending = ((0, n - 1), None)
    while True:
        while pending is not None:
            (lo, hi), pending = pending
            for k in range(lo, hi - 1):
                push((k, hi, k + 1, pending))
                counts[k] += 1
                counts[k + 1] += 1
            counts[hi] += hi - lo - 1
        yield tuple(counts)
        while frames:
            lo, hi, apex, rest = pop()
            counts[apex] -= 1
            if apex < hi - 1:
                break
            counts[lo] -= 1
            counts[hi] -= 1
        else:
            return
        apex += 1
        counts[apex] += 1
        push((lo, hi, apex, rest))
        if hi - apex >= 2:
            rest = ((apex, hi), rest)
        pending = ((lo, apex), rest) if apex - lo >= 2 else rest


def rotate(entries, k: int = 1) -> tuple:
    """Cyclic shift: (c_k, c_{k+1}, ..., c_{k-1})."""
    seq = as_sequence(entries)
    _check_int(k, "shift")
    k %= len(seq)
    return seq[k:] + seq[:k]


def reverse(entries) -> tuple:
    """(c_{n-1}, ..., c_0); an involution."""
    return as_sequence(entries)[::-1]


def expand(entries, i: int) -> tuple:
    """Insert a new 1 in the cyclic gap between positions i and i+1.

    Both gap neighbours are incremented, so a valid sequence of length n
    becomes a valid one of length n + 1 (the new entry is an ear).  The
    front-gap case i = 0 is the textbook move (c0+1, 1, c1+1, c2, ...);
    other gaps are the same move conjugated by rotation.
    """
    seq = list(as_sequence(entries))
    n = len(seq)
    _check_int(i, "position")
    if not 0 <= i < n:
        raise InvalidSequenceError(f"position {i} out of range for length {n}")
    seq[i] += 1
    seq[(i + 1) % n] += 1
    seq.insert(i + 1, 1)
    return tuple(seq)


def contract(entries, i: int) -> tuple:
    """Remove the ear at position i (entry 1) and decrement its neighbours.

    Inverse of :func:`expand`.  Requires n > 3, entry exactly 1 and both
    cyclic neighbours >= 2; otherwise raises ContractionError.
    """
    seq = list(as_sequence(entries))
    n = len(seq)
    _check_int(i, "position")
    if not 0 <= i < n:
        raise InvalidSequenceError(f"position {i} out of range for length {n}")
    if n == 3:
        raise ContractionError("length-3 sequence has no removable ear")
    if seq[i] != 1:
        raise ContractionError(f"entry at position {i} is {seq[i]}, not 1")
    if seq[i - 1] < 2 or seq[(i + 1) % n] < 2:
        raise ContractionError(f"neighbours of position {i} must both be >= 2")
    seq[i - 1] -= 1
    seq[(i + 1) % n] -= 1
    del seq[i]
    return tuple(seq)


def parse_sequence(text: str, min_length: int = 3) -> tuple:
    """Parse '2,1,3,1,2' into a tuple of at least min_length positive ints.

    Basic sequences may be as short as (1, A), so they are parsed with
    ``min_length=1``; their own shape checks live in
    :mod:`quiddity.supplements`.
    """
    try:
        entries = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InvalidSequenceError(f"cannot parse sequence {text!r}") from exc
    return as_sequence(entries, min_length)


def format_sequence(entries) -> str:
    return ",".join(str(x) for x in entries)
