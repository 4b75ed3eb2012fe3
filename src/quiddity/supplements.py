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
becomes the singleton x + 3 (x + 2 on either boundary, x + 1 when the
sequence is nothing but 2s) and an entry A becomes A - 3 copies of 2
(A - 2 against a missing boundary run, A - 1 in the isolated (1, A) case).
Both computations agree; the tree reading is the one the package exports.

One construction, :func:`is_embeddable`, completes a sequence to a longer
quiddity sequence; :func:`extend_superbasic` is its case of super-basic blocks.
"""

from collections import namedtuple

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
    runs_of_2 = [0]
    bigs = []
    for x in seq[1:]:
        if x == 2:
            runs_of_2[-1] += 1
        else:
            bigs.append(x)
            runs_of_2.append(0)
    k = len(bigs)
    if k == 0:
        return (1, runs_of_2[0] + 1)
    out = [1]
    if runs_of_2[k] > 0:
        out.append(runs_of_2[k] + 2)
    for l in range(k, 0, -1):
        copies = bigs[l - 1] - 3
        if l == k and runs_of_2[k] == 0:
            copies += 1
        if l == 1 and runs_of_2[0] == 0:
            copies += 1
        out.extend([2] * copies)
        if l > 1:
            out.append(runs_of_2[l - 1] + 3)
    if runs_of_2[0] > 0:
        out.append(runs_of_2[0] + 2)
    return tuple(out)


def extend_superbasic(seqs) -> tuple:
    """Complete a concatenation of super-basic blocks to a quiddity sequence.

    The construction of :func:`is_embeddable`, which succeeds on every
    concatenation of blocks: it has no adjacent 1s and no 1 flanked by 2s.
    """
    blocks = [check_superbasic(s) for s in seqs]
    if not blocks:
        raise InvalidSequenceError("need at least one super-basic sequence")
    return _embed(sum(blocks, ())).witness


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
    ear.  Contracting it inside the segment keeps the answer, and
    :func:`eta.expand` undoes that.  So one left-to-right pass contracts the
    1s until adjacent 1s answer no.  Otherwise what is left, r, completes
    as r + supplement((1,) + r) + (1,): a single entry a >= 2 gives the fan
    (a, 1, 2, ..., 2, 1), and nothing or a lone 1 gives (1, 1, 1).
    Replaying the contractions as expansions of that completion gives a
    witness starting with the query.  A supplement of more than
    SUPPLEMENT_CAP entries raises InvalidSequenceError, here and in
    :func:`extend_superbasic`.
    """
    return _embed(eta.as_sequence(entries, min_length=0))


def _embed(seq: tuple) -> Embeddability:
    """The construction of :func:`is_embeddable`, on a checked tuple."""
    rest, ears = [], []  # the segment with its 1s contracted; their positions
    for k, x in enumerate(seq):
        while rest and rest[-1] == 1:  # only the last entry of rest can be 1
            if x == 1:  # every query with (1, 1) or (2, 1, 2) ends up here
                if (1, 1) in zip(seq, seq[1:]):
                    text = _ADJACENT_ONES
                elif (2, 1, 2) in zip(seq, seq[1:], seq[2:]):
                    text = ("interior 1 flanked by 2s: contracting it would leave adjacent 1s, "
                            "impossible in any quiddity sequence of length >= 4")
                else:
                    left = tuple(rest) + (x,) + seq[k + 1:]
                    text = f"contracting its 1s leaves {left}: {_ADJACENT_ONES}"
                return Embeddability(False, obstruction=text)
            ears.append(len(rest) - 1)
            rest.pop()
            if rest:
                rest[-1] -= 1
            x -= 1
        rest.append(x)
    while len(rest) > 1 and rest[-1] == 1:
        ears.append(len(rest) - 1)
        rest.pop()
        rest[-1] -= 1
    if rest in ([], [1]):
        witness = [1, 1, 1]
    else:  # no 1 is left in rest, so (1,) + rest is basic
        witness = rest + _supplement(rest) + [1]
    for i in reversed(ears):  # eta.expand at the cyclic gap before position i
        witness[i - 1] += 1
        witness[i] += 1
        witness.insert(i, 1)
    return Embeddability(True, witness=tuple(witness))
