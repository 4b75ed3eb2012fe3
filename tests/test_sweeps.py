"""The sweep kernels against independent references.

Formula K_n (from a few Catalan numbers) and the brute force against a
Burnside closed form, the orbit-counting brute K_n against the set of
canonical forms and against the formula, its stabilizer orders against a
count of the fixing dihedral images, ``canonical_form`` (one pass over
the rotations at a least entry) against the minimum over all 2n dihedral
images, the memory of the brute force (on the ``eta.iter_quiddities``
odometer) against a recursive sweep, and that of the odometer itself
against a bound far below a list of its sequences.  Two oracles here serve other test
modules too: ``dihedral_images`` lists all 2n images, and
``recursive_quiddities`` is the apex recursion the odometer runs without
recursion; test_polygons.py checks the odometer's order against it.
"""

import tracemalloc

from hypothesis import given
from hypothesis import strategies as st

from quiddity import eta, polygons, similarity, supplements
from quiddity.similarity import canonical_form, catalan

def dihedral_images(entries):
    """All 2n images of the sequence under rotations and reversal."""
    seq = tuple(entries)
    n = len(seq)
    doubled = seq + seq
    for t in range(n):
        yield doubled[t:t + n]
    rev = seq[::-1]
    doubled = rev + rev
    for t in range(n):
        yield doubled[t:t + n]


def burnside_k(n: int) -> int:
    """K_n by Burnside's lemma over the dihedral group of the n-gon.

    2n*K_n = C_{n-2} + [n even]*(3n/2)*C_{n/2-1} + [n odd]*n*C_{(n-3)/2}
             + [3|n]*(2n/3)*C_{n/3-1}
    (identity; half-turn and vertex-axis reflections; odd-n reflections;
    third-turns).  Moon and Moser, Canad. Math. Bull. 6 (1963); OEIS A000207.
    """
    total = catalan(n - 2)
    if n % 2 == 0:
        total += 3 * n // 2 * catalan(n // 2 - 1)
    else:
        total += n * catalan((n - 3) // 2)
    if n % 3 == 0:
        total += 2 * n // 3 * catalan(n // 3 - 1)
    assert total % (2 * n) == 0, n
    return total // (2 * n)


def test_burnside_matches_the_tripartition_formula():
    for n in [*range(3, 301), *range(990, 1001), 3000, 10000, 20000]:
        assert similarity.count_types(n) == burnside_k(n), n


def test_burnside_matches_brute_force(quiddities_by_n):
    for n, quiddities in quiddities_by_n.items():
        assert len({canonical_form(q) for q in quiddities}) == burnside_k(n), n


def test_orbit_count_matches_the_canonical_form_sweep():
    for n in range(3, 13):
        assert similarity.count_types(n, "brute") == len(similarity.brute_type_set(n)), n


def test_orbit_count_matches_the_formula():
    for n in range(3, 14):
        assert similarity.count_types(n, "brute") == similarity.count_types(n), n


def fixing_images(q) -> int:
    """|Stab(q)|: the dihedral images of q, one per group element, equal to q."""
    return sum(image == q for image in dihedral_images(q))


def test_stabilizer_orders(quiddities_by_n):
    for n, quiddities in quiddities_by_n.items():
        for q in quiddities:
            assert similarity._stabilizer_sum([q], n) == fixing_images(q), q


def test_stabilizer_orders_beyond_byte_entries():
    # entries above 255 take the code-point words instead of bytes
    arm = supplements.fan(255)
    cases = [supplements.fan(298), similarity.compose(arm, arm, arm),
             eta.expand(similarity.compose(arm, arm, arm), 5)]
    for q in cases:
        assert max(q) > 255
        assert similarity._stabilizer_sum([q], len(q)) == fixing_images(q), q
    assert [fixing_images(q) for q in cases] == [2, 3, 1]


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=20).map(tuple))
def test_canonical_form_is_the_least_dihedral_image(seq):
    assert canonical_form(seq) == min(dihedral_images(seq))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_walk_keeps_o_n_memory():
    # the C_10 = 16796 sequences of the 12-gon pass one at a time: a walk that
    # listed them, as gluing the arms up to 12 does (about 3 MB), would fail
    def walk():
        for _ in eta.iter_quiddities(12):
            pass

    assert _peak_bytes(walk) < 64 * 1024


def recursive_quiddities(n):
    """The recursion the odometer replaced: one generator per arc, counts in place."""
    counts = [0] * n

    def rec(lo, hi):
        if hi - lo < 2:
            yield
            return
        for apex in range(lo + 1, hi):
            for v in (lo, apex, hi):
                counts[v] += 1
            for _ in rec(lo, apex):
                yield from rec(apex, hi)
            for v in (lo, apex, hi):
                counts[v] -= 1

    for _ in rec(0, n - 1):
        yield tuple(counts)


def test_brute_count_keeps_no_more_memory_than_a_recursive_sweep():
    def reference(n):
        return len({canonical_form(q) for q in recursive_quiddities(n)})

    def brute(n):
        return similarity.count_types(n, method="brute")

    for sweep in (reference, brute):  # first calls allocate one-off caches
        sweep(8)
    assert _peak_bytes(lambda: brute(12)) <= _peak_bytes(lambda: reference(12)) + 512 * 1024
