import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiddity import eta, polygons
from quiddity.errors import InvalidSequenceError, NotQuiddityError
from quiddity.similarity import canonical_form, catalan
from strategies import quiddities, same_sum_sequences
from test_sweeps import recursive_quiddities


def make_triangulation(n, diagonals):
    """A checked Triangulation from diagonals given in any order and orientation."""
    t = polygons.Triangulation(n=n, diagonals=tuple(sorted(tuple(sorted(d)) for d in diagonals)))
    polygons.validate_triangulation(t)
    return t


def test_from_quiddity_triangle():
    t = polygons.from_quiddity((1, 1, 1))
    assert t.n == 3 and t.diagonals == ()


def test_from_quiddity_pentagon():
    t = polygons.from_quiddity((1, 2, 2, 1, 3))
    assert t.diagonals == ((1, 4), (2, 4))


def test_from_quiddity_rejects_invalid():
    with pytest.raises(NotQuiddityError):
        polygons.from_quiddity((2, 2, 2))


def test_to_quiddity_square():
    t = make_triangulation(4, [(0, 2)])
    assert canonical_form(polygons.to_quiddity(t)) == canonical_form((2, 1, 2, 1))


def test_to_quiddity_hexagon_fan():
    t = make_triangulation(6, [(0, 2), (0, 3), (0, 4)])
    assert canonical_form(polygons.to_quiddity(t)) == canonical_form((4, 1, 2, 2, 2, 1))


def test_round_trip_exhaustive(quiddities_by_n):
    for n in range(3, 11):
        for q in quiddities_by_n[n]:
            assert polygons.to_quiddity(polygons.from_quiddity(q)) == q


def test_triangulation_round_trip(quiddities_by_n):
    for n in range(3, 9):
        for t in polygons.enumerate_triangulations(n):
            assert polygons.from_quiddity(polygons.to_quiddity(t)) == t


def test_to_quiddity_outputs_are_valid():
    for n in range(3, 10):
        for t in polygons.enumerate_triangulations(n):
            assert eta.is_eta(polygons.to_quiddity(t))


def test_structure_counts():
    for n in range(3, 10):
        for t in polygons.enumerate_triangulations(n):
            assert len(t.diagonals) == n - 3
            assert len(polygons.triangles(t)) == n - 2


@pytest.mark.parametrize("n,count", [(3, 1), (4, 2), (5, 5), (6, 14), (12, 16796)])
def test_enumeration_counts(n, count):
    assert sum(1 for _ in polygons.enumerate_triangulations(n)) == count
    assert count == catalan(n - 2)


def test_enumeration_is_deterministic_and_duplicate_free():
    first = [t.diagonals for t in itertools.islice(polygons.enumerate_triangulations(5), 3)]
    assert first == [((1, 4), (2, 4)), ((1, 3), (1, 4)), ((0, 2), (2, 4))]
    for n in range(3, 9):
        seen = list(polygons.enumerate_triangulations(n))
        assert len(seen) == len(set(seen))


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(polygons.enumerate_triangulations(2))
    with pytest.raises(ValueError):
        list(polygons.enumerate_triangulations(17))
    with pytest.raises(ValueError):
        list(polygons.iter_quiddities(20))


def test_iter_quiddities_and_enumerate_triangulations_check_at_once():
    # both refuse at the call, before any item is asked for
    for sweep in (polygons.iter_quiddities, polygons.enumerate_triangulations):
        for n in (2, 15):
            with pytest.raises(ValueError, match=rf"^n={n} outside 3\.\.14 "):
                sweep(n)
        for n in (5.0, "7"):
            with pytest.raises(InvalidSequenceError, match=f"^n must be an int, got {n!r}$"):
                sweep(n)


def recursive_triangulations(n):
    """The order oracle: diagonals by recursion on the apex of the base-edge triangle."""

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
        yield polygons.Triangulation(n=n, diagonals=tuple(sorted(diags)))


def test_enumerate_triangulations_matches_the_recursion():
    # element for element: the walk keeps the order of the recursion
    for n in range(3, 12):
        assert list(polygons.enumerate_triangulations(n)) == list(recursive_triangulations(n)), n


def test_iter_quiddities_matches_the_recursion():
    for n in range(3, 13):
        assert list(polygons.iter_quiddities(n)) == list(recursive_quiddities(n)), n


def test_the_walk_yields_at_3000():
    # the odometer keeps no generator per arc, so a raised cap is not a
    # recursion limit; its first triangulation is the fan from vertex n - 1
    fan = (1,) + (2,) * 2997 + (1, 2998)
    assert next(polygons.iter_quiddities(3000, cap=3000)) == fan
    first = next(polygons.enumerate_triangulations(3000, cap=3000))
    assert first.diagonals == tuple((k, 2999) for k in range(1, 2998))


class TestValidation:
    def test_crossing(self):
        with pytest.raises(InvalidSequenceError):
            make_triangulation(6, [(0, 2), (1, 3), (3, 5)])

    def test_wrong_count(self):
        with pytest.raises(InvalidSequenceError):
            make_triangulation(5, [(1, 4)])

    def test_side_is_not_a_diagonal(self):
        with pytest.raises(InvalidSequenceError):
            make_triangulation(4, [(0, 3)])

    def test_out_of_range(self):
        with pytest.raises(InvalidSequenceError):
            make_triangulation(4, [(0, 7)])

    def test_duplicate(self):
        with pytest.raises(InvalidSequenceError):
            make_triangulation(6, [(0, 2), (0, 2), (0, 4)])


class TestDualTree:
    def test_pentagon_shape_and_readout(self):
        t = polygons.from_quiddity((1, 2, 2, 1, 3))
        tree = polygons.to_dual_tree(t)
        assert polygons.bracket(tree) == "(b,(c,(d,e)))"
        assert polygons.tree_quiddity(tree) == (1, 2, 2, 1, 3)

    def test_triangle(self):
        tree = polygons.to_dual_tree(polygons.from_quiddity((1, 1, 1)))
        assert polygons.internal_count(tree) == 1
        assert polygons.leaf_count(tree) == 2
        assert polygons.bracket(tree) == "(b,c)"

    def test_fan_is_left_comb(self):
        for n in range(4, 9):
            t = make_triangulation(n, [(0, k) for k in range(2, n - 1)])
            node = polygons.to_dual_tree(t).root
            depth = 0
            while not node.is_leaf:
                assert node.right.is_leaf
                node = node.left
                depth += 1
            assert depth == n - 2

    def test_counts(self, quiddities_by_n):
        for n in range(3, 9):
            for q in quiddities_by_n[n]:
                tree = polygons.to_dual_tree(polygons.from_quiddity(q))
                assert polygons.leaf_count(tree) == n - 1
                assert polygons.internal_count(tree) == n - 2

    def test_readout_equals_quiddity_exhaustive(self, quiddities_by_n):
        for n in range(3, 11):
            for q in quiddities_by_n[n]:
                tree = polygons.to_dual_tree(polygons.from_quiddity(q))
                assert polygons.tree_quiddity(tree) == q

    def test_rerooting_rotates_the_readout(self):
        q = (1, 2, 2, 1, 3)
        t = polygons.from_quiddity(q)
        n = len(q)
        for u in range(n):
            side = (u, (u + 1) % n)
            tree = polygons.to_dual_tree(t, root_side=side)
            assert polygons.tree_quiddity(tree) == eta.rotate(q, (u + 1) % n)

    def test_bad_root_side(self):
        t = polygons.from_quiddity((1, 2, 2, 1, 3))
        with pytest.raises(InvalidSequenceError):
            polygons.to_dual_tree(t, root_side=(0, 2))

    @pytest.mark.parametrize("side", [(6, 2), (-1, 0), (5, 1), (4, 5), (0, 1, 2), (0,)])
    def test_root_side_vertices_lie_in_the_polygon(self, side):
        t = polygons.from_quiddity((1, 2, 2, 1, 3))
        with pytest.raises(InvalidSequenceError, match=r"is not a polygon side"):
            polygons.to_dual_tree(t, root_side=side)


def test_dot_outputs():
    t = polygons.from_quiddity((1, 2, 2, 1, 3))
    poly_dot = polygons.triangulation_to_dot(t)
    assert "1 -- 4 [style=dashed];" in poly_dot
    assert poly_dot.startswith("graph polygon {")
    tree_dot = polygons.tree_to_dot(polygons.to_dual_tree(t))
    assert 'root [label="a", shape=none];' in tree_dot
    assert "root -> t0;" in tree_dot


def test_json_dict():
    t = polygons.from_quiddity((1, 2, 2, 1, 3))
    assert t.to_json_dict() == {"n": 5, "diagonals": [[1, 4], [2, 4]]}


def pairwise_crossing_message(diagonals):
    """Reference: the first crossing pair (i < j) in the given order, or None."""
    for i in range(len(diagonals)):
        for j in range(i + 1, len(diagonals)):
            (a, b), (c, d) = diagonals[i], diagonals[j]
            if a < c < b < d or c < a < d < b:
                return f"diagonals {diagonals[i]} and {diagonals[j]} cross"
    return None


def raised_message(call, *args):
    """The message of the InvalidSequenceError that call(*args) raises, or None."""
    try:
        call(*args)
    except InvalidSequenceError as exc:
        return str(exc)
    return None


def validation_message(t):
    return raised_message(polygons.validate_triangulation, t)


@st.composite
def diagonal_sets(draw):
    """n - 3 distinct diagonals of the n-gon, shuffled; crossings likely."""
    n = draw(st.integers(4, 14))
    every = [(u, v) for u in range(n) for v in range(u + 2, n) if (u, v) != (0, n - 1)]
    chosen = draw(st.permutations(every))[: n - 3]
    return n, tuple(chosen)


@given(diagonal_sets(), st.booleans())
def test_crossing_message_matches_pairwise_scan(case, ordered):
    n, diagonals = case
    if ordered:
        diagonals = tuple(sorted(diagonals))
    t = polygons.Triangulation(n=n, diagonals=diagonals)
    assert validation_message(t) == pairwise_crossing_message(diagonals)


@given(quiddities(max_n=40), st.randoms(use_true_random=False))
def test_shuffled_triangulations_validate(q, rnd):
    diagonals = list(polygons.from_quiddity(q).diagonals)
    rnd.shuffle(diagonals)
    assert validation_message(polygons.Triangulation(n=len(q), diagonals=tuple(diagonals))) is None


@given(diagonal_sets(), st.booleans())
def test_every_reader_names_the_first_crossing(case, ordered):
    # the pass finds crossings in relabelled vertices; the message names the given pair
    n, diagonals = case
    if ordered:
        diagonals = tuple(sorted(diagonals))
    t = polygons.Triangulation(n=n, diagonals=diagonals)
    expected = pairwise_crossing_message(diagonals)
    assert raised_message(polygons.to_quiddity, t) == expected
    assert raised_message(polygons.triangles, t) == expected
    for u in range(n):
        for side in ((u, (u + 1) % n), ((u + 1) % n, u)):
            assert raised_message(polygons.to_dual_tree, t, side) == expected, side


def test_crossing_message_names_the_first_pair():
    t = polygons.Triangulation(n=8, diagonals=((2, 6), (0, 2), (3, 5), (1, 4), (0, 5)))
    assert validation_message(t) == "diagonals (2, 6) and (1, 4) cross"


def first_apex_triangles(t):
    """Reference: triangles by trying every apex on each chord, lowest first."""
    chords = set(t.diagonals)

    def edge(u, v):
        return v - u == 1 or (u, v) in chords

    out = []

    def rec(lo, hi):
        if hi - lo < 2:
            return
        apex = next(a for a in range(lo + 1, hi) if edge(lo, a) and edge(a, hi))
        out.append((lo, apex, hi))
        rec(lo, apex)
        rec(apex, hi)

    rec(0, t.n - 1)
    return out


@given(quiddities(max_n=200))
def test_round_trip_up_to_200_gon(q):
    t = polygons.from_quiddity(q)
    assert polygons.to_quiddity(t) == q
    assert polygons.triangles(t) == first_apex_triangles(t)


@given(quiddities(max_n=40))
def test_tree_readout_on_every_root_side(q):
    n = len(q)
    t = polygons.from_quiddity(q)
    for u in range(n):
        tree = polygons.to_dual_tree(t, root_side=(u, (u + 1) % n))
        assert polygons.tree_quiddity(tree) == eta.rotate(q, (u + 1) % n)


def reference_counts(t):
    counts = [0] * t.n
    for triangle in first_apex_triangles(t):
        for v in triangle:
            counts[v] += 1
    return tuple(counts)


@given(quiddities(max_n=60), st.randoms(use_true_random=False))
def test_to_quiddity_counts_the_reference_triangles(q, rnd):
    diagonals = list(polygons.from_quiddity(q).diagonals)
    rnd.shuffle(diagonals)
    t = polygons.Triangulation(n=len(q), diagonals=tuple(diagonals))
    assert polygons.to_quiddity(t) == reference_counts(t) == q
    assert polygons.triangles(t) == first_apex_triangles(t)


@pytest.mark.parametrize("n,diagonals,value", [
    (4.0, ((0, 2),), "4.0"),
    (True, (), "True"),
    (4, ((0, 2.0),), "2.0"),
    (4, ((False, 2),), "False"),
    (5, ((1, 4), (2, 4.0)), "4.0"),
])
def test_non_integer_sizes_and_vertices_are_refused(n, diagonals, value):
    t = polygons.Triangulation(n=n, diagonals=diagonals)
    for call in (polygons.validate_triangulation, polygons.to_quiddity,
                 polygons.to_dual_tree, polygons.triangles):
        with pytest.raises(InvalidSequenceError, match=re.escape(value)):
            call(t)
    with pytest.raises(InvalidSequenceError, match=re.escape(value)):
        make_triangulation(n, diagonals)


@pytest.mark.parametrize("n", [4.0, True])
def test_polygon_size_message(n):
    t = polygons.Triangulation(n=n, diagonals=())
    with pytest.raises(InvalidSequenceError, match=rf"^polygon size must be an int, got {n!r}$"):
        polygons.validate_triangulation(t)


@pytest.mark.parametrize("side", [(True, 0), (4, False), (0.0, 1), (4, 0.0)])
def test_root_side_vertices_are_integers(side):
    t = polygons.from_quiddity((1, 2, 2, 1, 3))
    with pytest.raises(InvalidSequenceError, match=re.escape(f"{side!r} is not a polygon side")):
        polygons.to_dual_tree(t, root_side=side)


@pytest.mark.parametrize("diagonals,message", [
    ((5,), "diagonal 5 is not a tuple"),
    (([0, 2],), "diagonal [0, 2] is not a tuple"),
    (None, "diagonals must be a tuple or list of vertex pairs, got None"),
    (((1, 2, 3),), "diagonal (1, 2, 3) is not a vertex pair"),
])
def test_malformed_diagonal_shapes_are_refused(diagonals, message):
    t = polygons.Triangulation(4, diagonals)
    for call in (polygons.validate_triangulation, polygons.to_quiddity,
                 polygons.to_dual_tree, polygons.triangles):
        with pytest.raises(InvalidSequenceError, match=re.escape(message)):
            call(t)


def test_a_polygon_below_three_vertices_is_refused():
    with pytest.raises(InvalidSequenceError, match="^polygon needs at least 3 vertices, got 2$"):
        polygons.to_quiddity(polygons.Triangulation(2, ()))


@pytest.mark.parametrize("side", [5, 1.5, "30", {3, 0}])
def test_a_root_side_that_is_no_pair_is_refused(side):
    t = polygons.from_quiddity((1, 2, 1, 2))
    with pytest.raises(InvalidSequenceError, match=re.escape(f"{side!r} is not a polygon side")):
        polygons.to_dual_tree(t, root_side=side)


def test_a_list_root_side_is_read_as_a_pair():
    t = polygons.from_quiddity((1, 2, 2, 1, 3))
    tree = polygons.to_dual_tree(t, root_side=[1, 2])
    assert tree.root_side == (1, 2)
    assert polygons.bracket(tree) == polygons.bracket(polygons.to_dual_tree(t, root_side=(1, 2)))


MALFORMED_DIAGONALS = [5, [0, 2], (1, 2, 3), (0, 2.0), (True, 2), (2, 0), (0, 1), (-1, 2)]


@given(diagonal_sets(), st.booleans(), st.booleans(),
       st.lists(st.tuples(st.integers(0, 11), st.sampled_from(MALFORMED_DIAGONALS)), max_size=2))
def test_a_crossing_is_reported_before_a_bad_root_side(case, ordered, drop_one, junk):
    t = polygons.Triangulation(n=6, diagonals=((0, 2), (1, 3), (3, 5)))
    with pytest.raises(InvalidSequenceError, match=r"diagonals \(0, 2\) and \(1, 3\) cross"):
        polygons.to_dual_tree(t, root_side=(0, 2))
    # every refusal of the diagonals comes first; a bad root side only after them
    n, diagonals = case
    diagonals = list(sorted(diagonals) if ordered else diagonals)
    if drop_one:
        diagonals.pop()
    for at, d in junk:
        diagonals.insert(at, d)
    t = polygons.Triangulation(n=n, diagonals=tuple(diagonals))
    expected = validation_message(t)
    for side in [(0, 2), (1, n - 1), (0, 0), (n, 0), (-1, 0), (n - 1, n), (0,), (0, 1, 2),
                 "a", 5, (0.0, 1.0), (True, False)]:
        want = expected or f"{side!r} is not a polygon side"
        assert raised_message(polygons.to_dual_tree, t, side) == want, side


def test_triangles_of_a_malformed_set_raise():
    with pytest.raises(InvalidSequenceError, match=r"expected 2 diagonals for an 5-gon, got 0"):
        polygons.triangles(polygons.Triangulation(n=5, diagonals=()))


def fan(n):
    """The fan of the n-gon at vertex 0; its dual tree is n - 2 levels deep."""
    return (n - 2, 1) + (2,) * (n - 3) + (1,)


def test_deep_fan_stays_within_the_recursion_limit():
    q = fan(3000)
    t = polygons.from_quiddity(q)
    assert polygons.to_quiddity(t) == q
    tree = polygons.to_dual_tree(t)
    assert polygons.tree_quiddity(tree) == q
    assert polygons.leaf_count(tree) == 2999
    assert polygons.internal_count(tree) == 2998
    assert polygons.bracket(tree).startswith("(" * 2998 + "b,c)")
    assert polygons.tree_to_dot(tree).endswith("  root -> t0;\n}")


def test_chords_closing_at_one_vertex_join_innermost_first():
    # rooted at (0, 1), the fan at vertex 0 closes all its chords at the last vertex
    q = fan(3000)
    tree = polygons.to_dual_tree(polygons.from_quiddity(q), root_side=(0, 1))
    assert polygons.tree_quiddity(tree) == eta.rotate(q, 1)
    comb = "".join(f"({polygons.side_name(i)}," for i in range(2998))
    assert polygons.bracket(tree) == comb + polygons.side_name(2998) + ")" * 2998


def recursive_bracket(node):
    if node.is_leaf:
        return polygons.side_name(node.side)
    return f"({recursive_bracket(node.left)},{recursive_bracket(node.right)})"


def recursive_dot(tree):
    lines = ["digraph dualtree {", '  root [label="a", shape=none];']
    counter = itertools.count()

    def walk(node):
        if node.is_leaf:
            name = f"leaf_{node.side}"
            lines.append(f'  {name} [label="{polygons.side_name(node.side)}", shape=none];')
            return name
        name = f"t{next(counter)}"
        lines.append(f'  {name} [label="{name}", shape=circle];')
        left, right = walk(node.left), walk(node.right)
        lines.extend([f"  {name} -> {left};", f"  {name} -> {right};"])
        return name

    lines.extend([f"  root -> {walk(tree.root)};", "}"])
    return "\n".join(lines)


def recursive_runs(node):
    """Branch visits before, between and after the leaves of a subtree.

    A branch is visited before, between and after its two subtrees, so its
    runs join its children's runs and add one visit at each joint.
    """
    if node.is_leaf:
        return [0, 0]
    left, right = recursive_runs(node.left), recursive_runs(node.right)
    return [left[0] + 1, *left[1:-1], left[-1] + 1 + right[0], *right[1:-1], right[-1] + 1]


def recursive_leaves(node):
    return 1 if node.is_leaf else recursive_leaves(node.left) + recursive_leaves(node.right)


def recursive_branches(node):
    if node.is_leaf:
        return 0
    return 1 + recursive_branches(node.left) + recursive_branches(node.right)


@given(quiddities(max_n=40))
def test_tree_walks_match_the_recursive_walks(q):
    n = len(q)
    t = polygons.from_quiddity(q)
    for u in range(n):
        tree = polygons.to_dual_tree(t, root_side=(u, (u + 1) % n))
        assert polygons.tree_quiddity(tree) == tuple(recursive_runs(tree.root))
        assert polygons.leaf_count(tree) == recursive_leaves(tree.root)
        assert polygons.internal_count(tree) == recursive_branches(tree.root)
        assert polygons.bracket(tree) == recursive_bracket(tree.root)
        assert polygons.tree_to_dot(tree) == recursive_dot(tree)


@given(st.one_of(st.lists(st.integers(1, 6), min_size=3, max_size=16),
                 same_sum_sequences(max_n=18), quiddities(max_n=40)))
def test_from_quiddity_refuses_exactly_the_non_quiddities(seq):
    try:
        t = polygons.from_quiddity(seq)
    except NotQuiddityError as exc:
        assert not eta.is_eta(seq)
        assert str(exc) == f"{eta.format_sequence(seq)} is not a quiddity sequence"
    else:
        assert eta.is_eta(seq)
        assert polygons.to_quiddity(t) == tuple(seq)


def apex_map(n, chords):
    """Map each edge (lo, hi) of a triangulated n-gon to the apex of its triangle.

    The triangle resting on (lo, hi) inside the arc lo..hi has as apex the
    largest neighbour of lo below hi, which is the neighbour listed just
    before hi once the edges are sorted.
    """
    edges = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)} | set(chords)
    ordered = sorted(edges)
    return {
        (u, v): w
        for (u, w), (x, v) in zip(ordered, ordered[1:])
        if u == x and (w, v) in edges
    }


def apex_map_tree(t, root_side):
    """Reference: the dual tree built top-down from the apex of each arc's triangle."""
    n = t.n
    u, v = root_side
    start = v if (u + 1) % n == v else u
    chords = [tuple(sorted(((a - start) % n, (b - start) % n))) for a, b in t.diagonals]
    apexes = apex_map(n, chords)

    def build(lo, hi):
        if hi - lo == 1:
            return polygons.Leaf(lo)
        apex = apexes[lo, hi]
        return polygons.Branch(build(lo, apex), build(apex, hi))

    return build(0, n - 1)


def assert_trees_match_apex_map(q):
    n = len(q)
    t = polygons.from_quiddity(q)
    for u in range(n):
        side = (u, (u + 1) % n)
        expected = recursive_bracket(apex_map_tree(t, side))
        assert recursive_bracket(polygons.to_dual_tree(t, side).root) == expected, (q, side)


def test_dual_tree_matches_apex_map_exhaustive(quiddities_by_n):
    trees = 0
    for n in range(3, 11):
        for q in quiddities_by_n[n]:
            assert_trees_match_apex_map(q)
            trees += n
    assert trees == 19631


@given(quiddities(max_n=60))
def test_dual_tree_matches_apex_map_up_to_60_gon(q):
    assert_trees_match_apex_map(q)
