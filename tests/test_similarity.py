import itertools
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiddity import errors, eta, polygons, similarity, supplements
from quiddity.errors import InvalidSequenceError
from quiddity.similarity import (
    ASYMMETRIC,
    PSEUDO_SYMMETRIC,
    SYMMETRIC,
    _tsa,
    canonical_form,
    canonicalize,
    case_count,
    catalan,
    classify,
    compose,
    count_TSA,
    count_TSA_brute,
    count_types,
    enumerate_types,
    perfect_tripartitions,
)
from strategies import quiddities
from test_sweeps import dihedral_images, fixing_images

PATTERN_I = (4, 2, 1, 3, 2, 2, 1)
PATTERN_I_PRIME = (1, 2, 2, 3, 1, 2, 4)
PATTERN_II = (4, 1, 3, 1, 3, 2, 1)

TABLE = {
    #    T      S    A      K
    3: (1, 1, 0, 1),
    4: (2, 0, 1, 1),
    5: (5, 1, 2, 1),
    6: (14, 0, 7, 3),
    7: (42, 2, 20, 4),
    8: (132, 0, 66, 12),
    9: (429, 5, 212, 27),
    10: (1430, 0, 715, 82),
    11: (4862, 14, 2424, 228),
    12: (16796, 0, 8398, 733),
    13: (58786, 42, 29372, 2282),
}


class TestCanonicalize:
    def test_rotations_share_a_canon(self):
        assert canonical_form((1, 2, 2, 1, 3)) == canonical_form((3, 1, 2, 2, 1))

    def test_reversal_shares_a_canon(self):
        assert canonical_form(PATTERN_I) == canonical_form(PATTERN_I_PRIME)
        assert canonical_form(PATTERN_I) != canonical_form(PATTERN_II)

    def test_orbit_size_counts_distinct_images(self):
        # (3,1,3,1,3,1) has a large stabilizer: only two distinct images
        orbit = canonicalize((3, 1, 3, 1, 3, 1))
        assert orbit.orbit_size == 2
        assert orbit.canon == (1, 3, 1, 3, 1, 3)
        assert canonicalize(PATTERN_I).orbit_size == 14

    def test_constant_on_orbits(self, quiddities_by_n):
        for n in range(3, 9):
            for q in quiddities_by_n[n]:
                canon = canonical_form(q)
                for image in dihedral_images(q):
                    assert canonical_form(image) == canon

    def test_orbit_size_divides_group_order(self, quiddities_by_n):
        for n in range(3, 9):
            for q in quiddities_by_n[n]:
                assert (2 * n) % canonicalize(q).orbit_size == 0

    def test_class_equation(self, quiddities_by_n):
        # orbit sizes over distinct orbits sum to T_n
        for n in range(3, 11):
            orbits = {}
            for q in quiddities_by_n[n]:
                c = canonical_form(q)
                if c not in orbits:
                    orbits[c] = canonicalize(q).orbit_size
            assert sum(orbits.values()) == catalan(n - 2)


class TestClassify:
    @pytest.mark.parametrize(
        "seq,period",
        [((1, 1, 1), 1), ((3, 1, 2, 3, 1, 2), 3), ((3, 1, 3, 1, 3, 1), 2), ((2, 1, 3, 1, 2), 5)],
    )
    def test_periods(self, seq, period):
        assert classify(seq).period == period

    @pytest.mark.parametrize(
        "seq,category",
        [
            ((2, 1, 3, 1, 2), SYMMETRIC),
            ((1, 1, 1), SYMMETRIC),
            ((4, 1, 2, 2, 2, 1), PSEUDO_SYMMETRIC),
            ((3, 1, 3, 1, 3, 1), PSEUDO_SYMMETRIC),
            ((2, 1, 2, 1), PSEUDO_SYMMETRIC),
            ((3, 1, 2, 3, 1, 2), ASYMMETRIC),
            (PATTERN_I, ASYMMETRIC),
        ],
    )
    def test_categories(self, seq, category):
        assert classify(seq).category == category

    def test_period_quotient_in_123(self, quiddities_by_n):
        for n in range(3, 11):
            for q in quiddities_by_n[n]:
                p = classify(q).period
                assert n % p == 0 and n // p in (1, 2, 3)


def least_period(seq):
    return next(p for p in range(1, len(seq) + 1) if seq[p:] + seq[:p] == seq)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=8), st.integers(1, 6))
def test_orbit_and_period_of_periodic_sequences(block, repeats):
    seq = tuple(block) * repeats
    assume(len(seq) >= 3)
    images = list(dihedral_images(seq))
    assert canonicalize(seq) == (min(images), len(set(images)))
    assert classify(seq).period == least_period(seq)


@pytest.mark.parametrize("seq", [
    supplements.fan(2998),
    # the fan of a 1500-gon with an ear cut into every gap: 1500 ones
    tuple(x for c in supplements.fan(1498) for x in (c + 2, 1)),
], ids=["fan", "half-ones"])
def test_orbit_and_period_at_3000(seq):
    # orbit size by orbit-stabilizer, which keeps O(n) images in memory
    assert len(seq) == 3000 and eta.is_eta(seq)
    canon = min(dihedral_images(seq))
    assert canonical_form(seq) == canon
    assert canonicalize(seq) == (canon, 6000 // fixing_images(seq))
    assert classify(seq).period == least_period(seq)


class TestCounts:
    def test_table_by_formula(self):
        for n, (t, s, a, _) in TABLE.items():
            assert count_TSA(n) == (t, s, a)

    def test_tsa_relation(self):
        for n in range(3, 20):
            t, s, a = count_TSA(n)
            assert t == 2 * a + s
            assert s == (0 if n % 2 == 0 else catalan((n - 1) // 2 - 1))

    def test_brute_matches_formula(self, quiddities_by_n):
        for n in range(3, 11):
            assert count_TSA_brute(n) == count_TSA(n)

    def test_reversal_fixed_count_is_s(self, quiddities_by_n):
        for n in range(3, 11):
            fixed = sum(1 for q in quiddities_by_n[n] if q == q[::-1])
            assert fixed == count_TSA(n)[1]


class TestPartitions:
    def test_thirteen(self):
        parts = [tp.parts() for tp in perfect_tripartitions(13)]
        assert parts == [(6, 6, 1), (6, 5, 2), (6, 4, 3), (5, 5, 3), (5, 4, 4)]

    def test_seven(self):
        tps = perfect_tripartitions(7)
        assert [(tp.parts(), tp.case) for tp in tps] == [((3, 3, 1), "B"), ((3, 2, 2), "E")]

    def test_six(self):
        tps = perfect_tripartitions(6)
        assert [(tp.parts(), tp.case) for tp in tps] == [((3, 3, 0), "A"), ((2, 2, 2), "F")]

    def test_shape_constraints(self):
        for n in range(3, 30):
            for tp in perfect_tripartitions(n):
                i, j, k = tp.parts()
                assert i >= j >= k >= 0 and i + j + k == n
                if n % 2 == 0:
                    assert (i == j == n // 2 and k == 0) or (i <= n // 2 - 1 and k >= 2)
                else:
                    assert i <= n // 2 and k >= 1

    def test_case_tags(self):
        for n in range(3, 30):
            for tp in perfect_tripartitions(n):
                i, j, k = tp.parts()
                if k == 0:
                    assert tp.case == "A"
                elif n % 2 == 1 and i == j == n // 2:
                    assert tp.case == "B" and k == 1
                elif i > j > k:
                    assert tp.case == "C"
                elif i == j > k:
                    assert tp.case == "D"
                elif i > j == k:
                    assert tp.case == "E"
                else:
                    assert tp.case == "F" and i == j == k


def six_branch_case_count(tp):
    """Reference: the per-case counts with B, D and E written out apart."""
    ti, si, ai = _tsa(tp.i + 1)
    tj, sj, aj = _tsa(tp.j + 1)
    if tp.case == "A":
        return ai * (ai + 1) + ai * si + si * (si + 1) // 2
    tk, sk, ak = _tsa(tp.k + 1)
    if tp.case == "B":
        return ti * (ti + 1) // 2
    if tp.case == "C":
        return ti * tj * tk
    if tp.case == "D":
        return (ti * ti * tk + ti * sk) // 2
    if tp.case == "E":
        return (ti * tk * tk + si * tk) // 2
    return ti * (ti + 1) * (ti + 2) // 6 - ti * ai


class TestCaseCounts:
    def test_thirteen_values(self):
        expected = {(6, 6, 1): 903, (6, 5, 2): 588, (6, 4, 3): 420, (5, 5, 3): 196, (5, 4, 4): 175}
        for tp in perfect_tripartitions(13):
            assert case_count(tp) == expected[tp.parts()]

    def test_diameter_case_n6(self):
        (a_case, f_case) = perfect_tripartitions(6)
        assert case_count(a_case) == 2
        assert case_count(f_case) == 1

    def test_equilateral_case_n12(self):
        tp = [t for t in perfect_tripartitions(12) if t.parts() == (4, 4, 4)][0]
        assert case_count(tp) == 25

    def test_one_count_for_two_equal_arcs_matches_the_six_branches(self):
        for n in range(3, 401):
            for tp in perfect_tripartitions(n):
                assert case_count(tp) == six_branch_case_count(tp), tp


class TestCountTypes:
    def test_table(self):
        for n, (_, _, _, k) in TABLE.items():
            assert count_types(n) == k

    def test_k13_value(self):
        assert count_types(13) == 2282

    def test_k16(self):
        assert count_types(16) == 83898

    def test_brute_agrees_small(self):
        for n in range(3, 12):
            assert count_types(n, method="brute") == count_types(n)

    def test_explicit_cap(self):
        assert count_types(5, method="brute", cap=5) == 1
        with pytest.raises(ValueError):
            count_types(6, method="brute", cap=5)
        assert count_types(6, method="brute", cap=6) == 3

    def test_bad_method(self):
        with pytest.raises(ValueError):
            count_types(6, method="magic")


# Every exhaustive sweep, called as sweep(n) or sweep(n, cap); the
# generators are asked for their first item only.
SWEEPS = {
    "count_TSA_brute": lambda n, cap=None: count_TSA_brute(n, cap=cap),
    "brute_type_set": lambda n, cap=None: similarity.brute_type_set(n, cap=cap),
    "count_types": lambda n, cap=None: count_types(n, method="brute", cap=cap),
    "enumerate_types": lambda n, cap=None: enumerate_types(n, cap=cap),
    "iter_quiddities": lambda n, cap=None: next(polygons.iter_quiddities(n, cap)),
    "enumerate_triangulations": lambda n, cap=None: next(polygons.enumerate_triangulations(n, cap)),
}


def cap_message(n, cap):
    return rf"^n={n} outside 3\.\.{cap} \(raise the cap with cap= or --cap\)$"


@pytest.mark.parametrize("sweep", SWEEPS)
def test_explicit_cap_above_16_is_honoured(sweep, monkeypatch):
    # Cut each enumeration after five items: only the range check runs in full.
    # enumerate_types lists its arms by the unchecked walk, so its choices
    # per tri-partition are cut.
    real = eta.iter_quiddities
    monkeypatch.setattr(eta, "iter_quiddities",
                        lambda n, cap=None: itertools.islice(real(n, cap), 5))
    choices = similarity._type_choices
    monkeypatch.setattr(similarity, "_type_choices",
                        lambda tp, arms: itertools.islice(choices(tp, arms), 5))
    SWEEPS[sweep](17, 17)
    with pytest.raises(ValueError, match=cap_message(18, 17)):
        SWEEPS[sweep](18, 17)


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize("n", [2, errors.SWEEP_CAP + 1])
def test_one_message_outside_the_default_range(sweep, n):
    assert errors.SWEEP_CAP == 14
    with pytest.raises(ValueError, match=cap_message(n, 14)):
        SWEEPS[sweep](n)


# The counts and every sweep refuse an n that is not an int (bools included).
N_CALLS = {**SWEEPS, "count_TSA": count_TSA, "perfect_tripartitions": perfect_tripartitions,
           "count_types(formula)": count_types}


@pytest.mark.parametrize("call", N_CALLS)
@pytest.mark.parametrize("n", [5.0, None, True, "7"])
def test_non_int_n_is_refused(call, n):
    with pytest.raises(InvalidSequenceError, match=rf"^n must be an int, got {re.escape(repr(n))}$"):
        N_CALLS[call](n)


def test_count_types_equals_the_sum_term_by_term():
    # case C in closed form against case_count over every perfect tri-partition
    for n in range(3, 401):
        assert count_types(n) == sum(map(case_count, perfect_tripartitions(n))), n


class TestClosedSum:
    """Each step that closes the sum of case_count, against its plain sum.

    An arc a carries t_a arms, s_a of them reversal-fixed: the T and S of
    the (a+1)-gon, with the 2-gon on an arc of one side.
    """

    @staticmethod
    def ts(a):
        return _tsa(a + 1)[:2]

    def left_over(self, tp):
        """s_b*t_a of a B, D or E tri-partition with arcs a, a, b."""
        return self.ts(tp.k if tp.i == tp.j else tp.i)[1] * self.ts(tp.j)[0]

    def test_the_lone_triangle_is_case_b_alone(self):
        # its three arcs are equal, but it is counted once, as case B
        assert perfect_tripartitions(3) == [(1, 1, 1, "B")]
        assert count_types(3) == case_count(perfect_tripartitions(3)[0]) == 1

    def test_ordered_triples_of_arcs(self):
        # sum t_a*t_b*t_c over ordered arcs summing to n, read off C_{n-2}
        for n in range(4, 121):
            plain = sum(self.ts(a)[0] * self.ts(b)[0] * self.ts(n - a - b)[0]
                        for a in range(1, n - 1) for b in range(1, n - a))
            assert plain == 3 * math.comb(2 * n - 3, n - 3) // (2 * n - 3), n
            assert plain == 3 * (n - 2) * catalan(n - 2) // n, n

    def test_the_tail_is_the_upper_half_of_a_convolution(self):
        # the ordered triples with an arc above (n-1)//2 in a given slot
        for n in range(4, 401):
            plain = sum(catalan(a - 1) * catalan(n - a - 1) for a in range((n - 1) // 2 + 1, n - 1))
            upper = (catalan(n - 1) + (n % 2 == 0) * catalan(n // 2 - 1) ** 2) // 2
            assert plain == upper - catalan(n - 2), n

    def test_the_pair_terms_cancel(self):
        # C counts a triple of distinct arcs 6 times in the ordered triples of
        # arcs up to (n-1)//2, arcs a, a, b 3 times and a, a, a once; the
        # t_b*t_a^2 halves of B, D and E make up the 3, so only their
        # s_b*t_a halves are left over
        for n in range(4, 201):
            top = (n - 1) // 2
            ordered = sum(self.ts(a)[0] * self.ts(b)[0] * self.ts(n - a - b)[0]
                          for a in range(1, top + 1)
                          for b in range(max(1, n - a - top), min(top, n - a - 1) + 1))
            tail = sum(catalan(a - 1) * catalan(n - a - 1) for a in range(top + 1, n - 1))
            assert ordered == 3 * (n - 2) * catalan(n - 2) // n - 3 * tail, n
            paired =[tp for tp in perfect_tripartitions(n) if tp.case in "BDE"]
            left_over = sum(map(self.left_over, paired))
            distinct = sum(case_count(tp) for tp in perfect_tripartitions(n) if tp.case == "C")
            equilateral = self.ts(n // 3)[0] ** 3 if n % 3 == 0 else 0
            assert 6 * (distinct + sum(map(case_count, paired))) == \
                ordered - equilateral + 3 * left_over, n

    def test_the_left_over_pair_terms(self):
        # sum s_b*t_a over B, D and E: B alone for odd n, and for even n the
        # lower half of the convolution for C_{m-1}, less its term b = a
        for n in range(4, 401):
            plain = sum(self.left_over(tp) for tp in perfect_tripartitions(n) if tp.case in "BDE")
            m = n // 2
            if n % 2:
                assert plain == catalan(m - 1), n
                continue
            lower = (catalan(m - 1) - (m % 2 == 0) * catalan(m // 2 - 1) ** 2) // 2
            if n % 3 == 0:
                lower -= catalan(n // 3 - 1) * catalan(n // 6 - 1)
            assert plain == lower, n


@pytest.mark.parametrize("k", [2.0, True, None, "3"])
def test_catalan_refuses_a_non_int(k):
    with pytest.raises(InvalidSequenceError, match=rf"^k must be an int, got {re.escape(repr(k))}$"):
        catalan(k)


def test_largest_tripartition_list_is_built_and_one_more_n_is_refused(monkeypatch):
    monkeypatch.setattr(similarity, "TRIPARTITION_N_CAP", 12)
    assert len(perfect_tripartitions(12)) == 4

    def refuse(*args):
        raise AssertionError("a tri-partition was built for an n over the limit")

    monkeypatch.setattr(similarity, "TriPartition", refuse)
    monkeypatch.setattr(similarity, "_tripartition", refuse)
    for n in (13, 14):  # odd and even, the even one would open with case A
        with pytest.raises(InvalidSequenceError,
                           match=rf"^perfect tri-partitions of n={n}, over the limit of 12$"):
            perfect_tripartitions(n)
    assert count_types(13) == 2282  # the closed sum builds no tri-partition


@pytest.mark.parametrize("call", ["count_TSA", "perfect_tripartitions", "count_types(formula)"])
def test_one_message_below_3_without_a_sweep(call):
    with pytest.raises(ValueError, match=r"^n must be >= 3, got 2$"):
        N_CALLS[call](2)


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize("cap", ["9", 5.5, True])
def test_non_int_cap_is_refused(sweep, cap):
    with pytest.raises(InvalidSequenceError, match=rf"^cap must be an int, got {re.escape(repr(cap))}$"):
        SWEEPS[sweep](5, cap)


class TestCompose:
    @settings(max_examples=300)
    @given(quiddities(max_n=9), quiddities(max_n=9), quiddities(max_n=9))
    def test_gluing_is_dihedrally_symmetric(self, a, b, c):
        glued = compose(a, b, c)
        assert eta.is_eta(glued)
        # turning the arms rotates the glued sequence: case E is glued pair-first
        assert compose(b, c, a) in {glued[k:] + glued[:k] for k in range(len(glued))}
        assert canonical_form(compose(c[::-1], b[::-1], a[::-1])) == canonical_form(glued)
        assert canonical_form(compose(b[::-1], a[::-1])) == canonical_form(compose(a, b))

    def test_central_triangle_with_degenerate_arm(self):
        assert compose((1, 1, 1), (1, 1, 1), (0, 0)) == (2, 1, 3, 1, 2)

    @pytest.mark.parametrize("arm", [(0.0, 0), (False, False), (0, False)])
    def test_only_the_int_pair_is_the_2gon(self, arm):
        with pytest.raises(InvalidSequenceError):
            compose((1, 1, 1), (1, 1, 1), arm)

    def test_central_triangle_three_triangles(self):
        out = compose((1, 1, 1), (1, 1, 1), (1, 1, 1))
        assert canonical_form(out) == canonical_form((3, 1, 3, 1, 3, 1))

    def test_diameter_glues_two_squares(self):
        out = compose((2, 1, 2, 1), (2, 1, 2, 1))
        assert eta.is_eta(out)
        assert len(out) == 6

    def test_degenerate_argument_may_sit_anywhere(self):
        base = compose((1, 1, 1), (2, 1, 2, 1), (0, 0))
        rotated_args = compose((0, 0), (1, 1, 1), (2, 1, 2, 1))
        assert canonical_form(base) == canonical_form(rotated_args)

    def test_three_degenerates_glue_the_triangle(self):
        assert compose((0, 0), (0, 0), (0, 0)) == (1, 1, 1)
        assert compose((1, 1, 1), (0, 0), (0, 0)) == (2, 1, 2, 1)

    @pytest.mark.parametrize("degenerates", [1, 2, 3])
    def test_degenerates_in_every_placement(self, degenerates):
        # turning the arms puts the 2-gons in every slot and only rotates the result
        small = [(1, 1, 1), (2, 1, 2, 1), (1, 2, 1, 2), (1, 3, 1, 2, 2)]
        for others in itertools.product(small, repeat=3 - degenerates):
            arms = others + ((0, 0),) * degenerates
            last = compose(*arms)
            rotations = {eta.rotate(last, r) for r in range(len(last))}
            for turn in range(3):
                glued = compose(*arms[turn:], *arms[:turn])
                assert glued in rotations
                assert canonical_form(glued) == canonical_form(last)
            for order in itertools.permutations(arms):
                assert eta.is_eta(compose(*order))

    def test_outputs_are_valid(self, quiddities_by_n):
        for a in quiddities_by_n[3] + quiddities_by_n[4]:
            for b in quiddities_by_n[3] + quiddities_by_n[4]:
                assert eta.is_eta(compose(a, b))
                assert eta.is_eta(compose(a, b, (0, 0)))
                for c in quiddities_by_n[3]:
                    assert eta.is_eta(compose(a, b, c))


def glued_arms(top: int) -> dict:
    """arms[m] for m = 2..top: every quiddity sequence of the m-gon, the 2-gon (0, 0) at 2.

    The apex recursion by the composition law, an oracle for the walk
    ``eta.iter_quiddities`` and its order: the triangle on the side
    (m-1, 0) with apex k, 1 <= k <= m-2, leaves a (k+1)-gon and an
    (m-k)-gon, glued around it with a 2-gon third arm.
    """
    arms = {2: [(0, 0)]}
    for m in range(3, top + 1):
        arms[m] = [compose(left, right, (0, 0))
                   for k in range(1, m - 1) for left in arms[k + 1] for right in arms[m - k]]
    return arms


class TestEnumerateTypes:
    def test_k6_set(self):
        expected = {
            canonical_form((3, 1, 2, 3, 1, 2)),
            canonical_form((4, 1, 2, 2, 2, 1)),
            canonical_form((3, 1, 3, 1, 3, 1)),
        }
        assert set(enumerate_types(6)) == expected

    def test_k7_contains_the_symmetric_pair(self):
        reps = set(enumerate_types(7))
        assert len(reps) == 4
        assert canonical_form((5, 1, 2, 2, 2, 2, 1)) in reps
        assert canonical_form((3, 2, 1, 3, 3, 1, 2)) in reps
        assert canonical_form(PATTERN_I) in reps
        assert canonical_form(PATTERN_II) in reps

    def test_matches_brute_sets(self):
        for n in range(3, 12):
            assert set(enumerate_types(n)) == similarity.brute_type_set(n)

    def test_all_representatives_valid(self):
        for n in range(3, 10):
            for rep in enumerate_types(n):
                assert eta.is_eta(rep)
                assert canonical_form(rep) == rep

    @pytest.mark.parametrize("n", range(3, 15))
    def test_each_tripartition_glues_its_case_count(self, n):
        # the paper's K_n = sum of N(i, j, k), term by term: every choice of
        # arms composed, with one set of canonical forms per tri-partition
        # (the deduplicating enumeration); the choices enumerate_types keeps
        # give each of these types exactly once
        arms = {2: [(0, 0)]}
        for length in range(3, n // 2 + 2):
            arms[length] = list(eta.iter_quiddities(length))
        union = set()
        for tp in perfect_tripartitions(n):
            glued = {canonical_form(compose(*choice))
                     for choice in itertools.product(*(arms[p + 1] for p in tp.parts() if p))}
            assert len(glued) == case_count(tp), tp
            assert union.isdisjoint(glued), tp
            union |= glued
            kept = [canonical_form(compose(*choice))
                    for choice in similarity._type_choices(tp, arms)]
            assert sorted(kept) == sorted(glued), tp
        assert enumerate_types(n) == sorted(union)

    def test_glued_arms_are_the_walk(self):
        # the apex recursion by gluing gives iter_quiddities, sequence by sequence
        arms = glued_arms(12)
        assert arms[2] == [(0, 0)]
        for m in range(3, 13):
            assert arms[m] == list(eta.iter_quiddities(m)), m

    def test_kept_choices_count_each_case(self):
        # one kept choice per type: case_count(tp) of them for every perfect
        # tri-partition up to n = 16, arms listed by the walk
        arms = {2: [(0, 0)]}
        for length in range(3, 10):
            arms[length] = list(eta.iter_quiddities(length))
        for n in range(3, 17):
            for tp in perfect_tripartitions(n):
                kept = similarity._type_choices(tp, arms)
                assert sum(1 for _ in kept) == case_count(tp), tp

    def test_composition_respects_central_arc_counts(self):
        # every length-7 type arises from exactly one partition family
        counted = sum(case_count(tp) for tp in perfect_tripartitions(7))
        assert counted == len(enumerate_types(7)) == 4


def test_symmetric_types_of_length_seven():
    # the category is a property of the individual sequence; a "symmetric
    # type" is one whose orbit contains a symmetric member, and for n = 7
    # exactly two of the four types qualify (with halved orbits)
    symmetric_types = 0
    for rep in enumerate_types(7):
        images = list(dihedral_images(rep))
        has_symmetric_member = any(classify(img).category == SYMMETRIC for img in images)
        has_palindrome = any(img == img[::-1] for img in images)
        assert has_symmetric_member == has_palindrome
        assert canonicalize(rep).orbit_size == (7 if has_symmetric_member else 14)
        symmetric_types += has_symmetric_member
    assert symmetric_types == 2
