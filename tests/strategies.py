"""Hypothesis generators of sequences shared by the test modules.

Each call site passes its own length range.
"""

from hypothesis import strategies as st

from quiddity import eta


@st.composite
def quiddities(draw, max_n, min_n=3):
    """A quiddity sequence of length min_n..max_n grown from (1, 1, 1) by expansions at drawn gaps."""
    seq = (1, 1, 1)
    for _ in range(draw(st.integers(min_n - 3, max_n - 3))):
        seq = eta.expand(seq, draw(st.integers(0, len(seq) - 1)))
    return seq


@st.composite
def same_sum_sequences(draw, max_n):
    """Positive sequences of length 3..max_n with the quiddity sum 3n - 6, mostly invalid."""
    n = draw(st.integers(3, max_n))
    seq = [1] * n
    for p in draw(st.lists(st.integers(0, n - 1), min_size=2 * n - 6, max_size=2 * n - 6)):
        seq[p] += 1
    return tuple(seq)
