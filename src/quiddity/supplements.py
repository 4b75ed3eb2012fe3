"""Basic sequences and their supplements.

A *basic* sequence is (1, A1, ..., Ak) with k >= 1 and every Ai >= 2; it is
*super-basic* when additionally k > 1 and A1, Ak > 2.  Every basic sequence
has a unique basic supplement: concatenating the two gives a quiddity
sequence, and supplementing twice returns the original.

The implementation reads the supplement off the dual tree.  Scanning a
basic sequence left to right describes a depth-first descent of a binary
tree: entry c consumes the deepest pending right slot and grows a chain of
c - 1 new nodes, each new node leaving a right slot open.  Once the input
is exhausted, the open slots close into leaves, and the run counts of the
remaining (post-order) part of the traversal are the supplement.  Only the
depths of the pending slots matter, so a stack of depths suffices.

A second, independent computation (:func:`supplement_by_runs`) rewrites
runs of 2s and entries >= 3 directly, in reverse order: a run of x 2s
becomes the singleton x + 3 (x + 2 on either boundary, even for x = 0, and
x + 1 when the sequence is nothing but 2s) and an entry A becomes A - 3
copies of 2.  Both computations agree; the tree reading is the one the
package exports.

One construction, :func:`is_embeddable`, completes a sequence to a longer
quiddity sequence: it cuts the ears of the segment with the ear clipper of
:mod:`quiddity.eta` and closes what is left with its supplement.
:func:`extend_superbasic` is its case of super-basic blocks.
"""

from collections import namedtuple
from itertools import chain

from . import eta
from .errors import SUPPLEMENT_CAP, InvalidSequenceError


def check_basic(entries) -> tuple:
    seq = eta.as_sequence(entries, min_length=0)
    if len(seq) < 2 or seq[0] != 1:
        raise InvalidSequenceError(
            f"basic sequence must be (1, A1, ..., Ak) with k >= 1, got {seq}"
        )
    if 1 in seq[1:]:  # the entries are positive ints
        raise InvalidSequenceError("basic entries after the 1 must be >= 2, got 1")
    return seq


def check_superbasic(entries) -> tuple:
    seq = check_basic(entries)
    if len(seq) < 3:
        raise InvalidSequenceError(f"super-basic sequence needs at least two entries after the 1: {seq}")
    if seq[1] <= 2 or seq[-1] <= 2:
        raise InvalidSequenceError(f"super-basic sequence needs first and last entries > 2: {seq}")
    return seq


def fan(a: int, side: str = "left") -> tuple:
    """Fan quiddity sequence of the polygon triangulated from one vertex.

    left:  (A, 1, 2, ..., 2, 1) with A - 1 copies of 2;
    right: (1, 2, ..., 2, 1, A).  A = 1 degenerates to (1, 1, 1).
    """
    if type(a) is not int or a < 1:  # also refuses bool
        raise InvalidSequenceError(f"fan parameter must be an int >= 1, got {a!r}")
    if side == "left":
        return (a, 1) + (2,) * (a - 1) + (1,)
    if side == "right":
        return (1,) + (2,) * (a - 1) + (1, a)
    raise InvalidSequenceError(f"side must be 'left' or 'right', got {side!r}")


def supplement(entries) -> tuple:
    """The basic sequence making the concatenation a quiddity sequence.

    Stack-of-depths form of the dual-tree reading described in the module
    docstring.  Involutive: supplement(supplement(a)) == a.  An answer of
    more than SUPPLEMENT_CAP entries raises InvalidSequenceError.
    """
    return tuple(_supplement(check_basic(entries)[1:]))


def _supplement(tail) -> list:
    """The supplement of the basic sequence (1,) + tail, whose entries are all >= 2.

    It has 2 + sum(c - 2 for c in tail) entries, so a longer one than
    SUPPLEMENT_CAP is refused before any is built.
    """
    if sum(tail) - 2 * len(tail) + 2 > SUPPLEMENT_CAP:
        raise InvalidSequenceError(f"the supplement would have more than {SUPPLEMENT_CAP} entries")
    stack = [0]  # depths of nodes with a pending right slot; root after the leading 1
    for c in tail:
        base = stack.pop()
        stack.extend(range(base + 1, base + c))
    out = [1]
    prev = stack.pop()
    while stack:
        nxt = stack.pop()
        out.append(prev - nxt + 1)
        prev = nxt
    out.append(prev + 1)
    return out


def supplement_by_runs(entries) -> tuple:
    """Run-rewriting form of the supplement; cross-oracle for :func:`supplement`."""
    seq = check_basic(entries)
    runs_of_2, bigs = [0], []
    for x in seq[1:]:
        if x == 2:
            runs_of_2[-1] += 1
        else:
            bigs.append(x)
            runs_of_2.append(0)
    if not bigs:
        return (1, runs_of_2[0] + 1)
    out = [1, runs_of_2[-1] + 2]
    for big, run in zip(reversed(bigs), runs_of_2[-2::-1]):
        out += [2] * (big - 3) + [run + 3]
    out[-1] -= 1  # the first run is on the boundary too
    return tuple(out)


def extend_superbasic(seqs) -> tuple:
    """Complete a concatenation of super-basic blocks to a quiddity sequence.

    The construction of :func:`is_embeddable`, which succeeds on every
    concatenation of blocks: it has no adjacent 1s and no 1 flanked by 2s.
    """
    blocks = [check_superbasic(s) for s in seqs]
    if not blocks:
        raise InvalidSequenceError("need at least one super-basic sequence")
    return _embed(tuple(chain.from_iterable(blocks))).witness


# Outcome of the embeddability decision.  ``embeddable`` is True or False;
# ``witness`` is a quiddity sequence starting with the query when it is True,
# ``obstruction`` a human-readable certificate when it is False.
Embeddability = namedtuple("Embeddability", "embeddable witness obstruction",
                           defaults=(None, None))
_ADJACENT_ONES = "adjacent 1s cannot occur in a quiddity sequence of length >= 4"


def is_embeddable(entries) -> Embeddability:
    """Can the sequence sit inside a strictly larger quiddity sequence?

    "Inside" means as a contiguous segment with at least two entries added
    around it.  The result then has length >= 4, so it has no adjacent 1s
    (a 1 flanked by 2s would leave some) and each 1 of the segment is an
    ear, whose cut keeps the answer (:func:`eta.expand` undoes it).  So
    ``eta._cut_ears`` cuts the segment closed by two entries len + 2, which
    no cut brings down to 1, and an ear next to a 1 answers no.  Otherwise
    what is left, r, completes as r + supplement((1,) + r) + (1,), or as
    (1, 1, 1) from nothing or a lone 1; expanding the ears again gives the
    query followed by that tail, whose ends gain what the closing entries
    lost.  A supplement of more than SUPPLEMENT_CAP entries raises
    InvalidSequenceError, here and in :func:`extend_superbasic`.
    """
    return _embed(eta.as_sequence(entries, min_length=0))


def _embed(seq: tuple) -> Embeddability:
    """The construction of :func:`is_embeddable`, on a checked tuple."""
    k = len(seq)
    big = k + 2  # each closing entry loses at most one per cut, so it is never an ear
    _, counts, ok = eta._cut_ears(seq + (big, big))
    rest = list(filter(None, counts[:k]))  # the uncut entries of the segment
    if not ok:  # every query with (1, 1) or (2, 1, 2) ends up here
        if (1, 1) in zip(seq, seq[1:]):
            text = _ADJACENT_ONES
        elif (2, 1, 2) in zip(seq, seq[1:], seq[2:]):
            text = ("interior 1 flanked by 2s: contracting it would leave adjacent 1s, "
                    "impossible in any quiddity sequence of length >= 4")
        else:
            text = f"contracting its 1s leaves {tuple(rest)}: {_ADJACENT_ONES}"
        return Embeddability(False, obstruction=text)
    # no 1 is left in a longer rest, so (1,) + rest is basic
    tail = [1, 1, 1][len(rest):] if rest in ([], [1]) else _supplement(rest) + [1]
    tail[0] += big - counts[k]  # the cut ears, expanded again, add to the closing entries
    tail[-1] += big - counts[k + 1]
    return Embeddability(True, witness=seq + tuple(tail))
