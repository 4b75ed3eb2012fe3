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

All C_{n-2} triangulations (Catalan) come from the one walk,
``eta.iter_quiddities``: ``enumerate_triangulations`` maps ``from_quiddity``
over it.  The walk is imported here, so ``polygons.iter_quiddities`` keeps
working.

A given triangulation is read by ``to_dual_tree``: one loop checks each
diagonal (a tuple, a pair, int vertices, in range and sorted, not a side,
not a duplicate) as it buckets it by its larger end, then one pass over
the sides joins the top two subtrees at each chord's larger end, as a
bracket is parsed, and the root side, bucketed as the last chord, joins
the root triangle like every other; a chord that does not start where the
lower arc starts crosses another.  Refusals come in that order, with the
n-3 count between the two passes and a bad root side last.
``validate_triangulation`` is this reading with the tree thrown away,
``triangles`` reads the tree's Euler tour, and ``to_quiddity`` its run
counts (``tree_quiddity``).  The other direction, ``from_quiddity``, is the
linear ear clipper of :mod:`quiddity.eta`.
"""

import itertools
from collections import namedtuple

from . import eta
from .errors import InvalidSequenceError, NotQuiddityError, _check_int
from .eta import iter_quiddities


class Triangulation(namedtuple("Triangulation", "n diagonals")):
    """n vertices in convex position plus a sorted tuple of diagonals."""

    __slots__ = ()

    def to_json_dict(self):
        return {"n": self.n, "diagonals": [list(d) for d in self.diagonals]}


def _raise_first_crossing(diagonals) -> None:
    """Name the first crossing pair (i < j) in the given order; some pair crosses."""
    for d1, d2 in itertools.combinations(diagonals, 2):
        (a, b), (c, d) = d1, d2
        if a < c < b < d or c < a < d < b:
            raise InvalidSequenceError(f"diagonals {d1} and {d2} cross")


def validate_triangulation(t: Triangulation) -> None:
    """Refuse what ``to_dual_tree`` refuses, in its order; the tree is thrown away."""
    to_dual_tree(t)


def triangles(t: Triangulation):
    """The n-2 triangles as sorted vertex triples (lo, apex, hi), in preorder.

    A triangle is a branch of the dual tree rooted at (n-1, 0), and its lo,
    apex and hi are the numbers of sides the Euler tour has passed at the
    branch's visits 0, 1 and 2; the dict keeps the branches in preorder.
    """
    corners = {}
    sides = 0
    for node, _ in _tour(to_dual_tree(t)):
        if node.is_leaf:
            sides += 1
        else:
            corners.setdefault(node, []).append(sides)
    return [tuple(c) for c in corners.values()]


def to_quiddity(t: Triangulation) -> tuple:
    """Per-vertex incident-triangle counts: the run counts of the dual tree at side a."""
    return tree_quiddity(to_dual_tree(t))


def from_quiddity(entries) -> Triangulation:
    """The triangulation whose vertex counts equal the given sequence.

    Its diagonals are those cut off by the linear ear clipper of
    :mod:`quiddity.eta`, which also decides that the sequence is a
    quiddity sequence; otherwise NotQuiddityError is raised.
    """
    seq = eta.as_sequence(entries)
    diagonals = eta._clip_ears(seq)
    if diagonals is None:
        raise NotQuiddityError(f"{eta.format_sequence(seq)} is not a quiddity sequence")
    return Triangulation(n=len(seq), diagonals=tuple(sorted(diagonals)))


def enumerate_triangulations(n: int, cap: int = None):
    """Yield every triangulation of the n-gon exactly once, in the order of iter_quiddities."""
    return map(from_quiddity, iter_quiddities(n, cap))


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

    One loop checks each diagonal, in input order, as it buckets it; then
    come the n-3 count, a crossing in the stack pass and, last, a bad root
    side, which is read as side a until then.  The root side is bucketed
    as the chord (0, n-1), so the stack pass joins the root triangle last
    and leaves the whole tree at vertex 0.
    """
    n = t.n
    _check_int(n, "polygon size")
    if n < 3:
        raise InvalidSequenceError(f"polygon needs at least 3 vertices, got {n}")
    if not isinstance(t.diagonals, (tuple, list)):
        raise InvalidSequenceError(
            f"diagonals must be a tuple or list of vertex pairs, got {t.diagonals!r}")
    if root_side is None:
        root_side = (n - 1, 0)
    side = tuple(root_side) if isinstance(root_side, (tuple, list)) else ()
    side_ok = (len(side) == 2 and all(type(x) is int and 0 <= x < n for x in side)
               and (side[1] - side[0]) % n in (1, n - 1))
    u, v = side if side_ok else (n - 1, 0)
    start = v if (u + 1) % n == v else u
    # Relabel so the root side becomes (n-1, 0), and bucket the chords (x, y)
    # by their larger end y; keyed, so an n the count refuses allocates nothing.
    closing = {}
    seen = set()
    for d in t.diagonals:
        if not isinstance(d, tuple):
            raise InvalidSequenceError(f"diagonal {d!r} is not a tuple")
        if len(d) != 2:
            raise InvalidSequenceError(f"diagonal {d!r} is not a vertex pair")
        x, y = d
        if type(x) is not int or type(y) is not int:
            raise InvalidSequenceError(f"diagonal {d!r} has a vertex that is not an int")
        if not (0 <= x < y < n):
            raise InvalidSequenceError(f"diagonal {d!r} out of range or unsorted")
        if y - x == 1 or (x == 0 and y == n - 1):
            raise InvalidSequenceError(f"{d!r} is a polygon side, not a diagonal")
        if d in seen:
            raise InvalidSequenceError(f"duplicate diagonal {d!r}")
        seen.add(d)
        x, y = (x - start) % n, (y - start) % n
        if x > y:
            x, y = y, x
        closing.setdefault(y, []).append(x)
    if len(t.diagonals) != n - 3:
        raise InvalidSequenceError(
            f"expected {n - 3} diagonals for an {n}-gon, got {len(t.diagonals)}"
        )
    for ends in closing.values():  # innermost (largest x) first
        ends.sort(reverse=True)
    closing.setdefault(n - 1, []).append(0)  # the root side, joined last
    # One pass over the sides (y-1, y) keeps the arcs that partition 0..y as
    # a stack of their first vertices, and the subtree of each arc.  Once the
    # chords inside (x, y) are joined, the top two arcs are the arcs (x, w)
    # and (w, y) of the triangle on the chord (x, y), so the lower arc starts
    # at x.  If it does not, the set is no triangulation, and n - 3 distinct
    # diagonals that are no triangulation cross.  Their n - 3 joins leave
    # two arcs, so the root side's join always finds its lower arc at 0.
    subtree = [Leaf(i) for i in range(n - 1)]
    starts = []
    for y in range(1, n):
        starts.append(y - 1)
        for x in closing.get(y, ()):
            w = starts.pop()
            if starts[-1] != x:
                _raise_first_crossing(t.diagonals)
            subtree[x] = Branch(subtree[x], subtree[w])
    if not side_ok:
        raise InvalidSequenceError(f"{root_side!r} is not a polygon side")
    return DualTree(n=n, root=subtree[0], root_side=(u, v))


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
