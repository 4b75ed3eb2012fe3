import ast
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiddity import eta, supplements
from quiddity.errors import SUPPLEMENT_CAP, InvalidSequenceError
from strategies import quiddities


def all_basic(max_entry, max_len):
    """Every basic sequence (1, A1..Ak) with entries <= max_entry, length <= max_len."""
    for k in range(1, max_len):
        for tail in itertools.product(range(2, max_entry + 1), repeat=k):
            yield (1,) + tail


def all_superbasic(max_entry, max_len):
    """Every super-basic block with entries <= max_entry and length <= max_len."""
    return [a for a in all_basic(max_entry, max_len) if len(a) >= 3 and a[1] > 2 and a[-1] > 2]


def extend_by_junctions(blocks):
    """Completion of super-basic blocks by merging their junctions; oracle for extend_superbasic.

    Adjacent blocks are merged by decrementing the touching entries (last of
    the left block, first after the 1 of the right block), the merged basic
    sequence is supplemented, and each squeezed junction is re-expanded by
    the ear-insertion move, which restores every block verbatim.  The
    package's construction instead contracts every 1, the first block's
    included, and supplements what is left.
    """
    merged = list(blocks[0])
    junctions = []
    for block in blocks[1:]:
        merged[-1] -= 1
        junctions.append(len(merged) - 1)
        merged.append(block[1] - 1)
        merged.extend(block[2:])
    completed = list(tuple(merged) + supplements.supplement(merged))
    for pos in reversed(junctions):
        completed[pos] += 1
        completed[pos + 1] += 1
        completed.insert(pos + 1, 1)
    return tuple(completed)


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

    @pytest.mark.parametrize("bad", [True, 2.5, None])
    def test_non_int_refused(self, bad):
        with pytest.raises(InvalidSequenceError, match=f"must be an int >= 1, got {bad!r}$"):
            supplements.fan(bad)


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

    @settings(max_examples=500)
    @given(st.lists(st.integers(2, 40), min_size=1, max_size=30))
    def test_two_computations_agree_random(self, rest):
        a = (1, *rest)
        supp = supplements.supplement(a)
        assert supp == supplements.supplement_by_runs(a)
        assert supplements.supplement(supp) == a
        assert eta.is_eta(a + supp)
        assert sum(a + supp) == 3 * len(a + supp) - 6

    def test_length_is_known_up_front(self):
        # 2 + sum(A - 2): what the length limit reads before building
        rng = random.Random(11)
        for _ in range(2000):
            a = (1,) + tuple(rng.randrange(2, 12) for _ in range(rng.randrange(1, 15)))
            assert len(supplements.supplement(a)) == 2 + sum(x - 2 for x in a[1:]), a

    def test_longest_supplement_is_built_and_one_more_is_refused(self, monkeypatch):
        monkeypatch.setattr(supplements, "SUPPLEMENT_CAP", 12)
        for a in [(1, 12), (1, 3, 2, 4, 5, 6)]:
            assert len(supplements.supplement(a)) == 12
            longer = a[:-1] + (a[-1] + 1,)
            with pytest.raises(InvalidSequenceError,
                               match="^the supplement would have more than 12 entries$"):
                supplements.supplement(longer)

    def test_the_limit_is_a_million_entries(self):
        assert SUPPLEMENT_CAP == 1_000_000
        assert len(supplements.supplement((1, SUPPLEMENT_CAP))) == SUPPLEMENT_CAP
        with pytest.raises(InvalidSequenceError, match="more than 1000000 entries"):
            supplements.supplement((1, 10 ** 8))

    def test_completions_are_refused_past_the_limit(self, monkeypatch):
        # both complete r = what is left after contracting 1s with r's supplement
        monkeypatch.setattr(supplements, "SUPPLEMENT_CAP", 12)
        assert supplements.is_embeddable((3, 10, 3)).embeddable  # r = (3, 10, 3)
        assert supplements.extend_superbasic([(1, 3, 12)])  # r = (2, 12)
        for call, query in [(supplements.is_embeddable, (3, 11, 3)),
                            (supplements.extend_superbasic, [(1, 3, 13)])]:
            with pytest.raises(InvalidSequenceError, match="more than 12 entries"):
                call(query)

    def test_supplement_output_is_basic(self):
        for a in all_basic(5, 6):
            supplements.check_basic(supplements.supplement(a))


class TestExtendSuperbasic:
    def test_single_block(self):
        # the block's only 1, its first entry, is contracted and expanded back: a + supplement(a)
        for a in [(1, 3, 3), (1, 4, 3), (1, 3, 2, 2, 5), (1, 6, 2, 4, 3), (1, 9, 9)]:
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

    def test_equals_the_junction_merge_on_one_or_two_small_blocks(self):
        blocks = all_superbasic(5, 5)
        assert len(blocks) == 189
        lists = [[a] for a in blocks] + [list(p) for p in itertools.product(blocks, repeat=2)]
        assert len(lists) == 35910
        for bl in lists:
            assert supplements.extend_superbasic(bl) == extend_by_junctions(bl), bl

    def test_many_blocks_are_flattened_once(self):
        # a copy of the growing tuple per block takes about 6 s for these
        blocks = [(1, 3, 3)] * 30_000
        start = time.perf_counter()
        out = supplements.extend_superbasic(blocks)
        assert time.perf_counter() - start < 2
        flat = (1, 3, 3) * 30_000
        assert len(out) == 90_004 and out[:90_000] == flat
        assert out == supplements.is_embeddable(flat).witness
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
        # the supplement completes a lone a >= 2 as the fan (a, 1, 2, ..., 2, 1)
        for a in range(1, 31):
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

    def test_obstruction_text_exhaustive(self):
        """The exact certificate of every no with entries 1..4 and length <= 7."""
        adjacent = "adjacent 1s cannot occur in a quiddity sequence of length >= 4"
        flanked = ("interior 1 flanked by 2s: contracting it would leave adjacent 1s, "
                   "impossible in any quiddity sequence of length >= 4")
        head, tail = "contracting its 1s leaves ", f": {adjacent}"
        contracted = 0
        for length in range(8):
            for s in itertools.product(range(1, 5), repeat=length):
                res = supplements.is_embeddable(s)
                if (1, 1) in zip(s, s[1:]):
                    assert res == (False, None, adjacent), s
                elif (2, 1, 2) in zip(s, s[1:], s[2:]):
                    assert res == (False, None, flanked), s
                elif not res.embeddable:
                    assert res.witness is None, s
                    assert res.obstruction.startswith(head) and res.obstruction.endswith(tail), s
                    left = ast.literal_eval(res.obstruction[len(head):-len(tail)])
                    # each contraction removes a 1 and lowers its one or two neighbours in s
                    removed = len(s) - len(left)
                    assert removed >= 1 and 2 * removed <= sum(s) - sum(left) <= 3 * removed, s
                    assert (1, 1) in zip(left, left[1:]), s
                    contracted += 1
        assert contracted > 0

    @pytest.mark.parametrize("query, left", [
        ((1, 2, 1, 3), (1, 1, 3)),
        ((3, 1, 2, 1), (2, 1, 1)),
        ((1, 2, 1, 3, 1), (1, 1, 3, 1)),
    ])
    def test_obstruction_cuts_the_leftmost_ear_first(self, query, left):
        assert supplements.is_embeddable(query).obstruction == (
            f"contracting its 1s leaves {left}: "
            "adjacent 1s cannot occur in a quiddity sequence of length >= 4")

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

    @settings(max_examples=50)
    @given(quiddities(max_n=200, min_n=4), st.integers(0, 199), st.integers(0, 199))
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
