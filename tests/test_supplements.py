import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiddity import eta, supplements
from quiddity.errors import InvalidSequenceError


def all_basic(max_entry, max_len):
    """Every basic sequence (1, A1..Ak) with entries <= max_entry, length <= max_len."""
    for k in range(1, max_len):
        for tail in itertools.product(range(2, max_entry + 1), repeat=k):
            yield (1,) + tail


def bounded_completion(seq, max_length):
    """A quiddity sequence seq + t with 2 <= len(t) <= max_length - len(seq), or None.

    Brute force over the tails whose sum makes the total 3n - 6, each entry
    at most n - 2: an oracle for :func:`supplements.is_embeddable` that
    shares none of its contraction argument.
    """
    for n in range(len(seq) + 2, max_length + 1):
        budget = 3 * n - 6 - sum(seq)
        for head in itertools.product(range(1, n - 1), repeat=n - len(seq) - 1):
            last = budget - sum(head)
            if 1 <= last <= n - 2 and eta.is_eta(seq + head + (last,)):
                return seq + head + (last,)
    return None


def assert_witness(query, witness):
    assert witness[: len(query)] == query
    assert len(witness) >= len(query) + 2
    assert eta.is_eta(witness)


@st.composite
def quiddities(draw, max_n=200):
    """A quiddity sequence of length 4..max_n grown by random expansions."""
    seq = (1, 1, 1)
    n = draw(st.integers(4, max_n))
    for p in draw(st.lists(st.integers(0, max_n), min_size=n - 3, max_size=n - 3)):
        seq = eta.expand(seq, p % len(seq))
    return seq


class TestFan:
    def test_degenerate(self):
        assert supplements.fan(1) == (1, 1, 1)
        assert supplements.fan(1, "right") == (1, 1, 1)

    def test_four(self):
        assert supplements.fan(4) == (4, 1, 2, 2, 2, 1)
        assert supplements.fan(4, "right") == (1, 2, 2, 2, 1, 4)

    def test_validity_sweep(self):
        for a in range(1, 13):
            assert eta.is_eta(supplements.fan(a))
            assert eta.is_eta(supplements.fan(a, "right"))

    def test_bad_arguments(self):
        with pytest.raises(InvalidSequenceError):
            supplements.fan(0)
        with pytest.raises(InvalidSequenceError):
            supplements.fan(3, "up")


class TestSupplement:
    @pytest.mark.parametrize(
        "basic,expected",
        [
            ((1, 4), (1, 2, 2, 2)),
            ((1, 2, 2), (1, 3)),
            ((1, 2), (1, 2)),
            ((1, 2, 2, 6, 2, 4, 3, 2, 2, 2, 2), (1, 6, 3, 2, 4, 2, 2, 2, 4)),
        ],
    )
    def test_known_pairs(self, basic, expected):
        assert supplements.supplement(basic) == expected
        assert supplements.supplement(expected) == basic

    def test_rejects_non_basic(self):
        for bad in [(2, 3), (1,), (1, 1, 3), (1, 3, 1)]:
            with pytest.raises(InvalidSequenceError):
                supplements.supplement(bad)

    @pytest.mark.parametrize("bad", [(1.0, 3), (True, 3), (1, 3.0), (1, 2, False)])
    def test_rejects_floats_and_bools(self, bad):
        with pytest.raises(InvalidSequenceError, match="positive integers"):
            supplements.supplement(bad)

    def test_involution_and_validity_exhaustive(self):
        for a in all_basic(4, 7):
            supp = supplements.supplement(a)
            assert supplements.supplement(supp) == a
            assert eta.is_eta(a + supp)

    def test_two_computations_agree_exhaustive(self):
        for a in all_basic(5, 7):
            assert supplements.supplement(a) == supplements.supplement_by_runs(a)

    @settings(deadline=None, max_examples=500)
    @given(st.lists(st.integers(2, 40), min_size=1, max_size=30))
    def test_two_computations_agree_random(self, rest):
        a = (1, *rest)
        supp = supplements.supplement(a)
        assert supp == supplements.supplement_by_runs(a)
        assert supplements.supplement(supp) == a
        assert eta.is_eta(a + supp)
        assert sum(a + supp) == 3 * len(a + supp) - 6

    def test_supplement_output_is_basic(self):
        for a in all_basic(5, 6):
            supplements.check_basic(supplements.supplement(a))


class TestExtendSuperbasic:
    def test_single_block(self):
        a = (1, 3, 3)
        out = supplements.extend_superbasic([a])
        assert out == a + supplements.supplement(a)
        assert eta.is_eta(out)

    def test_two_blocks(self):
        out = supplements.extend_superbasic([(1, 3, 3), (1, 3, 3)])
        assert out[:6] == (1, 3, 3, 1, 3, 3)
        assert eta.is_eta(out)

    def test_three_blocks_appear_verbatim(self):
        blocks = [(1, 4, 3), (1, 3, 4), (1, 3, 3)]
        out = supplements.extend_superbasic(blocks)
        flat = sum(blocks, ())
        assert out[: len(flat)] == flat
        assert eta.is_eta(out)

    def test_random_block_lists(self):
        rng = random.Random(77)
        for _ in range(200):
            blocks = []
            for _ in range(rng.randrange(1, 5)):
                inner = tuple(rng.randrange(2, 6) for _ in range(rng.randrange(0, 4)))
                blocks.append((1, rng.randrange(3, 7)) + inner + (rng.randrange(3, 7),))
            out = supplements.extend_superbasic(blocks)
            flat = sum(blocks, ())
            assert out[: len(flat)] == flat
            assert eta.is_eta(out)

    def test_rejects_bad_blocks(self):
        with pytest.raises(InvalidSequenceError):
            supplements.extend_superbasic([])
        with pytest.raises(InvalidSequenceError):
            supplements.extend_superbasic([(1, 2, 3)])  # first entry after 1 not > 2
        with pytest.raises(InvalidSequenceError):
            supplements.extend_superbasic([(1, 3)])  # needs two entries after the 1
        with pytest.raises(InvalidSequenceError):
            supplements.extend_superbasic([(2, 3, 3)])


class TestEmbeddability:
    def test_two_one_two_is_obstructed(self):
        res = supplements.is_embeddable((2, 1, 2))
        assert res.embeddable is False
        assert "flanked by 2s" in res.obstruction

    def test_adjacent_ones_are_obstructed(self):
        res = supplements.is_embeddable((1, 1))
        assert res.embeddable is False

    def test_single_integer_embeds_in_a_fan(self):
        for a in [1, 2, 5, 9]:
            res = supplements.is_embeddable((a,))
            assert res.embeddable is True
            assert res.witness == supplements.fan(a)
            assert eta.is_eta(res.witness)

    def test_superbasic_concatenation_prefix(self):
        res = supplements.is_embeddable((1, 3, 3, 1, 3, 3))
        assert res.embeddable is True
        assert res.witness[:6] == (1, 3, 3, 1, 3, 3)
        assert eta.is_eta(res.witness)

    def test_basic_prefix(self):
        res = supplements.is_embeddable((1, 5, 2))
        assert res.embeddable is True
        assert res.witness[:3] == (1, 5, 2)
        assert eta.is_eta(res.witness)

    def test_contraction_path(self):
        res = supplements.is_embeddable((2, 2, 1))
        assert res.embeddable is True
        assert res.witness[:3] == (2, 2, 1)
        assert len(res.witness) >= 5
        assert eta.is_eta(res.witness)

    def test_decided_where_a_bounded_search_gave_up(self):
        res = supplements.is_embeddable((9, 9))
        assert res.embeddable is True
        assert_witness((9, 9), res.witness)
        res = supplements.is_embeddable((1, 2, 1))
        assert res.embeddable is False
        assert "adjacent 1s" in res.obstruction

    def test_exhaustive_small_entries(self):
        """Every sequence with entries 1..5 and length 1..6 gets a valid answer."""
        for length in range(1, 7):
            for s in itertools.product(range(1, 6), repeat=length):
                res = supplements.is_embeddable(s)
                if res.embeddable:
                    assert_witness(s, res.witness)
                else:
                    assert res.embeddable is False and res.obstruction, s

    def test_no_is_confirmed_by_bounded_search(self):
        noes = 0
        for length in range(1, 6):
            for s in itertools.product(range(1, 6), repeat=length):
                if not supplements.is_embeddable(s).embeddable:
                    noes += 1
                    assert bounded_completion(s, length + 4) is None, s
        assert noes > 0

    def test_bounded_search_finds_short_witnesses(self):
        for s in [(2, 2, 1), (1, 3, 3), (3, 1, 4), (3,)]:
            assert_witness(s, bounded_completion(s, len(s) + 4))

    @settings(deadline=None, max_examples=50)
    @given(quiddities(), st.integers(0, 199), st.integers(0, 199))
    def test_long_segments(self, q, r, p):
        query = eta.rotate(q, r)[:-2]
        res = supplements.is_embeddable(query)
        assert res.embeddable is True
        assert_witness(query, res.witness)
        p %= len(query) + 1
        assert supplements.is_embeddable(query[:p] + (1, 1) + query[p:]).embeddable is False

    def test_witnesses_really_contain_the_query(self):
        rng = random.Random(5)
        for _ in range(50):
            s = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 4)))
            res = supplements.is_embeddable(s)
            if res.embeddable:
                assert res.witness[: len(s)] == s
                assert eta.is_eta(res.witness)
                assert len(res.witness) >= len(s) + 2

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSequenceError):
            supplements.is_embeddable((1, 0, 2))

    @pytest.mark.parametrize("bad", [(True, 3), (1.0, 3), (2, 2.5)])
    def test_rejects_floats_and_bools(self, bad):
        with pytest.raises(InvalidSequenceError, match="positive integers"):
            supplements.is_embeddable(bad)
