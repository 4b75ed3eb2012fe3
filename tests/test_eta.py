import random
import re

import pytest

from quiddity import eta, frieze
from quiddity.errors import ContractionError, InvalidSequenceError


def frieze_oracle(seq) -> bool:
    """Validity via frieze generation: clean run and ones row exactly at n-1."""
    try:
        window = frieze.generate_frieze(seq)
    except Exception:
        return False
    return frieze.has_ones_row(window) == len(seq) - 1


@pytest.mark.parametrize(
    "seq,expected",
    [
        ((1, 1, 1), True),
        ((2, 1, 3, 1, 2), True),
        ((2, 2, 2), False),
        ((2, 1, 2, 1, 2, 1), False),
        ((2, 1, 2, 1), True),
        ((4, 2, 1, 3, 2, 2, 1), True),
    ],
)
def test_is_eta(seq, expected):
    assert eta.is_eta(seq) is expected
    assert eta.is_eta_by_contraction(seq) is expected


def test_is_eta_rejects_malformed():
    with pytest.raises(InvalidSequenceError):
        eta.is_eta((1, 1))
    with pytest.raises(InvalidSequenceError):
        eta.is_eta((1, 0, 1))
    with pytest.raises(InvalidSequenceError):
        eta.is_eta((1, -2, 1, 4))


class IntSubclass(int):
    pass


@pytest.mark.parametrize("entry", [True, IntSubclass(1), 1.0])
def test_entries_must_be_exact_ints(entry):
    with pytest.raises(InvalidSequenceError, match="^entries must be positive integers"):
        eta.as_sequence((1, entry, 1))


@pytest.mark.parametrize("call, seq, arg, what", [
    (eta.expand, (1, 1, 1), 1.0, "position"),
    (eta.expand, (1, 1, 1), True, "position"),
    (eta.contract, (2, 1, 2, 1), 1.0, "position"),
    (eta.contract, (2, 1, 2, 1), True, "position"),
    (eta.rotate, (2, 1, 2, 1), 1.5, "shift"),
    (eta.rotate, (2, 1, 2, 1), None, "shift"),
])
def test_positions_and_shifts_must_be_ints(call, seq, arg, what):
    with pytest.raises(InvalidSequenceError, match=rf"^{what} must be an int, got {re.escape(repr(arg))}$"):
        call(seq, arg)


def test_rotate():
    assert eta.rotate((2, 1, 2, 1), 1) == (1, 2, 1, 2)
    assert eta.rotate((1, 3, 2, 1, 5, 1, 2, 3), 1) == (3, 2, 1, 5, 1, 2, 3, 1)
    for seq in [(1, 1, 1), (2, 1, 3, 1, 2)]:
        assert eta.rotate(seq, len(seq)) == seq


def test_reverse():
    assert eta.reverse((1, 1, 1)) == (1, 1, 1)
    assert eta.reverse((4, 2, 1, 3, 2, 2, 1)) == (1, 2, 2, 3, 1, 2, 4)
    for seq in [(1, 2, 2, 1, 3), (3, 1, 2, 3, 1, 2)]:
        assert eta.reverse(eta.reverse(seq)) == seq


def test_expand():
    assert eta.expand((1, 1, 1), 0) == (2, 1, 2, 1)
    assert eta.expand((3, 1, 2, 2, 1), 0) == (4, 1, 2, 2, 2, 1)


def test_expand_wraparound():
    # gap between the last and first entries: new 1 lands at the end
    assert eta.expand((1, 1, 1), 2) == (2, 1, 2, 1)
    assert eta.expand((2, 1, 2, 1), 3) == (3, 1, 2, 2, 1)


def test_contract():
    assert eta.contract((2, 1, 2, 1), 1) == (1, 1, 1)
    assert eta.contract((4, 1, 2, 2, 2, 1), 1) == (3, 1, 2, 2, 1)


def test_contract_errors():
    with pytest.raises(ContractionError):
        eta.contract((1, 1, 1), 0)
    with pytest.raises(ContractionError):
        eta.contract((2, 1, 2, 1), 0)  # entry is 2, not 1
    with pytest.raises(ContractionError):
        eta.contract((2, 1, 1, 2), 1)  # neighbour below 2


@pytest.mark.parametrize("move, entries, i", [
    (eta.expand, (1, 1, 1), 3),
    (eta.contract, (1, 2, 1, 2), -1),
])
def test_a_position_out_of_range_is_refused(move, entries, i):
    with pytest.raises(InvalidSequenceError,
                       match=rf"^position {i} out of range for length {len(entries)}$"):
        move(entries, i)


def test_expand_contract_inverse():
    for seq in [(1, 1, 1), (2, 1, 2, 1), (1, 2, 2, 1, 3), (4, 1, 2, 2, 2, 1)]:
        for i in range(len(seq)):
            assert eta.contract(eta.expand(seq, i), i + 1) == seq


def test_expand_preserves_validity_everywhere():
    for seq in [(1, 1, 1), (2, 1, 2, 1), (1, 2, 2, 1, 3), (3, 1, 2, 3, 1, 2)]:
        for i in range(len(seq)):
            assert eta.is_eta(eta.expand(seq, i))


def test_rotate_reverse_preserve_validity(quiddities_by_n):
    for n in range(3, 9):
        for seq in quiddities_by_n[n]:
            assert eta.is_eta(eta.rotate(seq, 1))
            assert eta.is_eta(eta.reverse(seq))


def test_valid_sequences_sum_and_ears(quiddities_by_n):
    for n in range(3, 11):
        for seq in quiddities_by_n[n]:
            assert sum(seq) == 3 * n - 6
            if n > 3:
                assert seq.count(1) >= 2


def test_contraction_completeness(quiddities_by_n):
    # every valid sequence reduces to (1,1,1) by ear removals
    for n in range(3, 11):
        for seq in quiddities_by_n[n]:
            assert eta.is_eta_by_contraction(seq)


def test_cut_ears_cuts_the_leftmost_ear_first():
    # counts keep the uncut entries and 0 at each cut ear
    assert eta._cut_ears((2, 1, 3, 1, 2)) == ([(0, 2), (2, 4)], [0, 0, 1, 1, 1], True)
    assert eta._cut_ears((3, 1, 3, 1, 3, 1)) == ([(0, 2), (2, 4), (0, 4)], [1, 0, 0, 0, 1, 1], True)
    # the ear at 0 goes first, and the ear it leaves at 1 sits next to the 1 at 2
    assert eta._cut_ears((1, 2, 1, 3, 6, 6)) == ([(1, 5)], [0, 1, 1, 3, 6, 5], False)
    assert eta._cut_ears((2, 2, 2, 2)) == ([], [2, 2, 2, 2], True)  # no ear


def test_cut_ears_leaves_three_1s_of_a_quiddity(quiddities_by_n):
    for n in range(3, 10):
        for seq in quiddities_by_n[n]:
            diagonals, counts, ok = eta._cut_ears(seq)
            assert ok and len(diagonals) == n - 3, seq
            assert sorted(counts) == [0] * (n - 3) + [1, 1, 1], seq


class TestThreeOracleEquivalence:
    """word == -I, ear contraction, and the frieze ones-row must agree."""

    def check(self, seq):
        word = eta.is_eta(seq)
        assert eta.is_eta_by_contraction(seq) is word
        assert frieze_oracle(seq) is word

    def test_exhaustive_small(self):
        from itertools import product

        for n, bound in [(3, 5), (4, 5), (5, 4), (6, 3)]:
            for seq in product(range(1, bound + 1), repeat=n):
                self.check(seq)

    def test_random_medium(self):
        rng = random.Random(2024)
        for _ in range(2000):
            n = rng.randrange(3, 11)
            seq = tuple(rng.randrange(1, n + 1) for _ in range(n))
            self.check(seq)

    def test_all_valid(self, quiddities_by_n):
        for n in range(3, 11):
            for seq in quiddities_by_n[n]:
                self.check(seq)


def test_parse_and_format():
    assert eta.parse_sequence("2,1,3,1,2") == (2, 1, 3, 1, 2)
    assert eta.format_sequence((2, 1, 3, 1, 2)) == "2,1,3,1,2"
    assert eta.parse_sequence("1,4", min_length=1) == (1, 4)
    with pytest.raises(InvalidSequenceError):
        eta.parse_sequence("1,1")
    with pytest.raises(InvalidSequenceError):
        eta.parse_sequence("1,x,2")
    with pytest.raises(InvalidSequenceError):
        eta.parse_sequence("0,3", min_length=1)
