"""Triangulations of convex polygons and their dual binary trees.

Vertices of the n-gon are 0..n-1 in counterclockwise order (figures in the
literature are usually 1-indexed; everything here is 0-indexed).  Side i
joins vertices i and i+1, and the root side, called ``a``, is the one
joining n-1 and 0, so that vertex 0 is the counterclockwise endpoint of
the root side.

A triangulation is a set of n-3 pairwise non-crossing diagonals; its
quiddity sequence records, per vertex, the number of incident triangles.
The dual graph, rooted at side ``a``, is a full binary tree whose internal
nodes are the triangles and whose n-1 leaves are the remaining sides
b, c, d, ...; counting the internal nodes passed between consecutive
leaves of the depth-first traversal recovers the quiddity sequence.

Every readout of a dual tree consumes one walk, ``_tour``: the Euler tour,
which visits a triangle before, between and after its two subtrees and a
side once, left subtree first.  ``tree_quiddity`` counts the triangle
visits between consecutive sides, ``bracket`` writes them as ``(``, ``,``
and ``)``, ``tree_to_dot`` names a triangle at its first visit and joins
it to its children at its last, and ``leaf_count`` and ``internal_count``
count sides and triangles.

Exhaustive enumeration of all triangulations (there are C_{n-2} of them,
Catalan) is deterministic: recursion on the apex of the triangle resting
on the base edge, apex increasing, left sub-polygon before right.  Every
exhaustive sweep of the package, here and in :mod:`quiddity.similarity`,
runs only for 3 <= n <= SWEEP_CAP unless its ``cap=`` argument (the CLI's
``--cap``) raises the cap; ``check_sweep`` is the one range check.

A given triangulation is walked the same way with one apex lookup shared
by ``triangles`` and ``to_dual_tree``: the triangle resting on an edge
(lo, hi) has as apex the largest neighbour of lo below hi.  The other
direction, ``from_quiddity``, is a linear ear clipper, and
``validate_triangulation`` finds crossings with one sorted stack sweep.
"""

from __future__ import annotations

from collections import namedtuple

from . import eta
from .errors import InvalidSequenceError, NotQuiddityError


class Triangulation(namedtuple("Triangulation", "n diagonals")):
    """n vertices in convex position plus a sorted tuple of diagonals."""

    __slots__ = ()

    def to_json_dict(self):
        return {"n": self.n, "diagonals": [list(d) for d in self.diagonals]}


def _crosses(d1, d2) -> bool:
    a, b = d1
    c, d = d2
    return (a < c < b < d) or (c < a < d < b)


def _crossing_free(diagonals) -> bool:
    """Whether no two chords cross, by one sweep over them sorted by (u, -v).

    The stack holds the right ends of the chords still open at u, which
    are nested; a new chord crosses an earlier one exactly when it ends
    beyond the innermost of them.
    """
    ends = []
    for u, neg_v in sorted((u, -v) for u, v in diagonals):
        while ends and ends[-1] <= u:
            ends.pop()
        if ends and ends[-1] < -neg_v:
            return False
        ends.append(-neg_v)
    return True


def validate_triangulation(t: Triangulation) -> None:
    """Check ranges, non-adjacency, non-crossing and the n-3 count.

    Crossings are found by one sorted sweep; only a set that has one is
    scanned pair by pair, to name its first crossing pair in the given
    order.
    """
    n = t.n
    if n < 3:
        raise InvalidSequenceError(f"polygon needs at least 3 vertices, got {n}")
    seen = set()
    for d in t.diagonals:
        if len(d) != 2:
            raise InvalidSequenceError(f"diagonal {d!r} is not a vertex pair")
        u, v = d
        if not (0 <= u < v < n):
            raise InvalidSequenceError(f"diagonal {d!r} out of range or unsorted")
        if v - u == 1 or (u == 0 and v == n - 1):
            raise InvalidSequenceError(f"{d!r} is a polygon side, not a diagonal")
        if d in seen:
            raise InvalidSequenceError(f"duplicate diagonal {d!r}")
        seen.add(d)
    if len(t.diagonals) != n - 3:
        raise InvalidSequenceError(
            f"expected {n - 3} diagonals for an {n}-gon, got {len(t.diagonals)}"
        )
    if _crossing_free(t.diagonals):
        return
    diags = list(t.diagonals)
    for i in range(len(diags)):
        for j in range(i + 1, len(diags)):
            if _crosses(diags[i], diags[j]):
                raise InvalidSequenceError(f"diagonals {diags[i]} and {diags[j]} cross")


def make_triangulation(n: int, diagonals) -> Triangulation:
    t = Triangulation(n=n, diagonals=tuple(sorted(tuple(sorted(d)) for d in diagonals)))
    validate_triangulation(t)
    return t


def _apexes(n: int, chords) -> dict:
    """Map each edge (lo, hi) of a triangulated n-gon to the apex of its triangle.

    The triangle resting on (lo, hi) inside the arc lo..hi has as apex the
    largest neighbour of lo below hi, which is the neighbour listed just
    before hi once the edges are sorted.  An edge whose candidate is not
    joined to hi has no triangle and no entry (a malformed set).
    """
    edges = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)} | set(chords)
    ordered = sorted(edges)
    return {
        (u, v): w
        for (u, w), (x, v) in zip(ordered, ordered[1:])
        if u == x and (w, v) in edges
    }


def triangles(t: Triangulation):
    """The n-2 triangles as sorted vertex triples, in arc-recursion order.

    The arcs are walked in preorder, left arc first, on an explicit stack,
    so a fan of any size stays within the recursion limit.
    """
    apexes = _apexes(t.n, t.diagonals)
    out = []
    stack = [(0, t.n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        apex = apexes.get((lo, hi))
        if apex is None:
            raise InvalidSequenceError(f"no triangle on chord ({lo},{hi}); malformed set")
        out.append((lo, apex, hi))
        stack += ((apex, hi), (lo, apex))
    return out


def to_quiddity(t: Triangulation) -> tuple:
    """Per-vertex incident-triangle counts."""
    validate_triangulation(t)
    counts = [0] * t.n
    for tri in triangles(t):
        for v in tri:
            counts[v] += 1
    return tuple(counts)


def from_quiddity(entries) -> Triangulation:
    """The triangulation whose vertex counts equal the given sequence.

    Built by one linear ear clipper: an entry 1 marks an ear; cutting it
    off adds the diagonal joining its neighbours, decrements them and
    puts a neighbour that drops to 1 on the worklist of ears.  Neighbours
    are kept in prev/next arrays.  The sequence must be a valid quiddity
    sequence; its triangulation is unique, so the order in which ears are
    cut does not change the diagonals, and every polygon of four or more
    vertices left has an ear on the worklist.
    """
    seq = eta.as_sequence(entries)
    if not eta.is_eta(seq):
        raise NotQuiddityError(f"{eta.format_sequence(seq)} is not a quiddity sequence")
    n = len(seq)
    counts = list(seq)
    prev = [n - 1] + list(range(n - 1))
    nxt = list(range(1, n)) + [0]
    ears = [i for i, c in enumerate(seq) if c == 1]
    diagonals = []
    for _ in range(n - 3):
        i = ears.pop()
        u, v = prev[i], nxt[i]
        diagonals.append((u, v) if u < v else (v, u))
        nxt[u], prev[v] = v, u
        counts[u] -= 1
        counts[v] -= 1
        if counts[u] == 1:
            ears.append(u)
        if counts[v] == 1:
            ears.append(v)
    return Triangulation(n=n, diagonals=tuple(sorted(diagonals)))


SWEEP_CAP = 14  # largest n of an exhaustive sweep unless cap= raises it


def check_sweep(n: int, cap: int = None) -> None:
    """Refuse an exhaustive sweep at n unless 3 <= n <= cap (default SWEEP_CAP)."""
    limit = SWEEP_CAP if cap is None else cap
    if not 3 <= n <= limit:
        raise ValueError(f"n={n} outside 3..{limit} (raise the cap with cap= or --cap)")


def enumerate_triangulations(n: int, cap: int = None):
    """Yield every triangulation of the n-gon exactly once, deterministically."""
    check_sweep(n, cap)

    def rec(lo, hi):
        if hi - lo < 2:
            yield ()
            return
        for apex in range(lo + 1, hi):
            extra = ()
            if apex - lo >= 2:
                extra += ((lo, apex),)
            if hi - apex >= 2:
                extra += ((apex, hi),)
            for left in rec(lo, apex):
                for right in rec(apex, hi):
                    yield left + right + extra

    for diags in rec(0, n - 1):
        yield Triangulation(n=n, diagonals=tuple(sorted(diags)))


def iter_quiddities(n: int, cap: int = None):
    """Yield the quiddity sequence of every triangulation of the n-gon.

    Same order as :func:`enumerate_triangulations`, without its recursion.
    A triangulation is the preorder list of its triangles, one frame
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
    check_sweep(n, cap)
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


class Leaf:
    """A polygon side other than the root side."""

    __slots__ = ("side",)

    def __init__(self, side):
        self.side = side

    is_leaf = True


class Branch:
    """A triangle; children ordered counterclockwise from the entry edge."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    is_leaf = False


# Rooted full binary dual tree of a triangulation.  ``root_side`` is the
# polygon side the tree hangs from, in original vertex labels; leaf ``side``
# indices count sides counterclockwise starting just after the root side
# (0 is the side named ``b``).
DualTree = namedtuple("DualTree", "n root root_side")


def side_name(index: int) -> str:
    """b, c, d, ... for leaf sides (the root side is named a)."""
    if index < 25:
        return chr(ord("b") + index)
    return f"s{index + 1}"


def to_dual_tree(t: Triangulation, root_side=None) -> DualTree:
    """Build the dual tree rooted at a polygon side (default: side a = (n-1, 0)).

    For the entry edge of each triangle, the child across the next side
    counterclockwise is the left child; this makes the depth-first run
    counts spell the quiddity sequence starting at the counterclockwise
    endpoint of the root side.
    """
    validate_triangulation(t)
    n = t.n
    if root_side is None:
        root_side = (n - 1, 0)
    side = tuple(root_side)
    if not (len(side) == 2 and all(isinstance(x, int) and 0 <= x < n for x in side)
            and (side[1] - side[0]) % n in (1, n - 1)):
        raise InvalidSequenceError(f"{root_side!r} is not a polygon side")
    u, v = side
    start = v if (u + 1) % n == v else u
    # relabel so the root side becomes (n-1, 0)
    chords = []
    for a, b in t.diagonals:
        x, y = (a - start) % n, (b - start) % n
        chords.append((x, y) if x < y else (y, x))
    apexes = _apexes(n, chords)
    # Triangles are built in preorder, left before right, on an explicit
    # stack of (branch, lo, hi): the triangle on edge (lo, hi), hi - lo >= 2.
    root = Branch(None, None)
    stack = [(root, 0, n - 1)]
    while stack:
        node, lo, hi = stack.pop()
        apex = apexes[lo, hi]  # every arc has one: the triangulation is valid
        if hi - apex == 1:
            node.right = Leaf(apex)
        else:
            node.right = Branch(None, None)
            stack.append((node.right, apex, hi))
        if apex - lo == 1:
            node.left = Leaf(lo)
        else:
            node.left = Branch(None, None)
            stack.append((node.left, lo, apex))
    return DualTree(n=n, root=root, root_side=(u, v))


def _tour(tree: DualTree):
    """Yield the Euler tour of the dual tree as (node, step) pairs.

    A branch is visited three times, with step 0, 1 and 2: before, between
    and after its two subtrees, left subtree first.  A leaf is visited once,
    with step 0.  The tour runs on an explicit stack, so a fan of any size
    stays within the recursion limit.
    """
    stack = [(tree.root, 0)]
    while stack:
        node, step = visit = stack.pop()
        yield visit
        if step == 0 and not node.is_leaf:
            stack += ((node, 2), (node.right, 0), (node, 1), (node.left, 0))


def tree_quiddity(tree: DualTree) -> tuple:
    """Depth-first run-count readout of the dual tree.

    The number of branch visits of the Euler tour before the first leaf,
    between consecutive leaves and after the last leaf.  The result is the
    quiddity sequence starting at the counterclockwise endpoint of the root
    side.
    """
    runs = []
    count = 0
    for node, _ in _tour(tree):
        if node.is_leaf:
            runs.append(count)
            count = 0
        else:
            count += 1
    runs.append(count)
    return tuple(runs)


def leaf_count(tree: DualTree) -> int:
    return sum(node.is_leaf for node, _ in _tour(tree))


def internal_count(tree: DualTree) -> int:
    return sum(step == 0 and not node.is_leaf for node, step in _tour(tree))


def bracket(tree: DualTree) -> str:
    """Nested-pair string with leaf side names, e.g. (b,(c,(d,e)))."""
    return "".join(side_name(node.side) if node.is_leaf else "(,)"[step]
                   for node, step in _tour(tree))


def tree_to_dot(tree: DualTree) -> str:
    """GraphViz digraph of the dual tree; internal nodes t0, t1, ... in preorder.

    A node's line is written at its first visit, a branch's two edge lines
    at its last, when both its children have been named.
    """
    lines = ["digraph dualtree {", '  root [label="a", shape=none];']
    names = {}
    branches = 0
    for node, step in _tour(tree):
        if node.is_leaf:
            names[node] = name = f"leaf_{node.side}"
            lines.append(f'  {name} [label="{side_name(node.side)}", shape=none];')
        elif step == 0:
            names[node] = name = f"t{branches}"
            branches += 1
            lines.append(f'  {name} [label="{name}", shape=circle];')
        elif step == 2:
            lines.append(f"  {names[node]} -> {names[node.left]};")
            lines.append(f"  {names[node]} -> {names[node.right]};")
    lines.append(f"  root -> {names[tree.root]};")
    lines.append("}")
    return "\n".join(lines)


def triangulation_to_dot(t: Triangulation) -> str:
    """GraphViz graph of the polygon: solid sides, dashed diagonals."""
    lines = ["graph polygon {"]
    for i in range(t.n):
        lines.append(f"  {i} -- {(i + 1) % t.n};")
    for u, v in t.diagonals:
        lines.append(f"  {u} -- {v} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)
