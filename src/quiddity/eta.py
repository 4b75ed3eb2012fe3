"""Quiddity sequences and their rewriting rules.

A quiddity sequence is a cyclic tuple of positive integers (c0, ..., c_{n-1}),
n >= 3, that reads off the triangle count at each vertex of a triangulated
convex n-gon.  Equivalently (and this is the criterion implemented here),
the matrix word

    U^c0 * S * U^c1 * S * ... * U^c_{n-1} * S

multiplies out to -I.  The family is closed under rotation and reversal,
and is generated from (1, 1, 1) by the expansion move that splits a vertex:
insert a new 1 into a cyclic gap and bump both neighbours.

Sequences are plain tuples of ints everywhere; every public function
validates shape (length >= 3, entries >= 1) and raises
InvalidSequenceError otherwise.
"""

from __future__ import annotations

from . import sl2
from .errors import ContractionError, InvalidSequenceError


def as_sequence(entries, min_length: int = 3) -> tuple:
    """Normalize to a tuple and check length >= min_length and positivity."""
    seq = tuple(entries)
    if len(seq) < min_length:
        raise InvalidSequenceError(f"need at least {min_length} entries, got {len(seq)}")
    for x in seq:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise InvalidSequenceError(f"entries must be positive integers, got {x!r}")
    return seq


def word_matrix(entries) -> sl2.Mat2:
    """The product U^c0*S * U^c1*S * ... * U^c_{n-1}*S."""
    return sl2.Mat2(*sl2.word_product(entries))


def is_eta(entries) -> bool:
    """Whether the sequence is a quiddity sequence (word reduces to -I)."""
    seq = as_sequence(entries)
    # cheap necessary condition first: n-2 triangles, 3 incidences each
    if sum(seq) != 3 * len(seq) - 6:
        return False
    return sl2.word_product(seq) == (-1, 0, 0, -1)


def is_eta_by_contraction(entries) -> bool:
    """Matrix-free membership test by repeated ear removal.

    Independent of :func:`is_eta`; used as a cross-oracle in the test
    suite.  A valid sequence of length n reduces to (1, 1, 1) by n - 3
    contractions of an entry 1 whose cyclic neighbours are both >= 2.
    """
    seq = list(as_sequence(entries))
    if sum(seq) != 3 * len(seq) - 6:
        return False
    while len(seq) > 3:
        n = len(seq)
        for i in range(n):
            if seq[i] == 1 and seq[i - 1] >= 2 and seq[(i + 1) % n] >= 2:
                seq[i - 1] -= 1
                seq[(i + 1) % n] -= 1
                del seq[i]
                break
        else:
            return False
    return seq == [1, 1, 1]


def rotate(entries, k: int = 1) -> tuple:
    """Cyclic shift: (c_k, c_{k+1}, ..., c_{k-1})."""
    seq = as_sequence(entries)
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
