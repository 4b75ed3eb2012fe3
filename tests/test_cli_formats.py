"""The JSON and text outputs of a CLI command carry the same answer.

For random valid inputs of ``verify``, ``supplement``, ``extend``,
``reduce`` and ``count``, every field the text output prints is read back
and compared with the JSON payload of the same invocation, along with the
exit code and stderr.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from quiddity import eta
from quiddity.cli import main
from strategies import quiddities

few_examples = settings(max_examples=60)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def both_formats(*argv):
    """(exit code, text lines, JSON payload) of one command in both formats."""
    code, text, err = run(*argv)
    json_code, raw, json_err = run(*argv, "--format", "json")
    assert (code, err) == (json_code, json_err)
    assert text.endswith("\n") and raw.endswith("\n")
    return code, text.splitlines(), json.loads(raw)


def fields(lines):
    """The ``key: value`` lines of a text output as a dict."""
    return dict(line.split(": ", 1) for line in lines)


def flag(value: bool) -> str:
    return "true" if value else "false"


# valid sequences of length 3..14, turned so that any entry may come first
rotated_quiddities = st.tuples(quiddities(max_n=14), st.integers(0, 13)).map(
    lambda drawn: eta.rotate(*drawn))


positive_sequences = st.lists(st.integers(1, 6), min_size=3, max_size=12).map(tuple)


@few_examples
@given(st.one_of(rotated_quiddities, positive_sequences))
def test_verify(seq):
    code, lines, payload = both_formats("verify", eta.format_sequence(seq))
    shown = fields(lines)
    assert code == (0 if payload["is_quiddity"] else 1)
    assert shown.pop("is_quiddity") == flag(payload["is_quiddity"])
    assert shown.pop("n") == str(payload["n"]) == str(len(seq))
    assert payload["sequence"] == list(seq)
    if payload["is_quiddity"]:
        assert shown.pop("period") == str(payload["period"])
        assert shown.pop("category") == payload["category"]
        assert shown.pop("canon") == eta.format_sequence(payload["canon"])
        assert shown.pop("orbit_size") == str(payload["orbit_size"])
    assert shown == {}


@few_examples
@given(st.lists(st.integers(2, 7), min_size=1, max_size=8).map(lambda rest: (1, *rest)))
def test_supplement(seq):
    code, lines, payload = both_formats("supplement", eta.format_sequence(seq))
    assert code == 0 and len(lines) == 2
    assert payload["input"] == list(seq)
    assert lines[0] == eta.format_sequence(payload["supplement"])
    assert lines[1] == f"concatenation is a quiddity sequence: {flag(payload['concatenation_valid'])}"


superbasic = st.tuples(st.integers(3, 7), st.lists(st.integers(2, 7), max_size=4),
                       st.integers(3, 7)).map(lambda p: (1, p[0], *p[1], p[2]))


@few_examples
@given(st.lists(superbasic, min_size=1, max_size=3))
def test_extend(blocks):
    argv = ["extend"]
    for block in blocks:
        argv += [eta.format_sequence(block), "+"]
    code, lines, payload = both_formats(*argv[:-1])
    assert code == 0 and len(lines) == 2
    assert payload["blocks"] == [list(b) for b in blocks]
    assert lines[0] == eta.format_sequence(payload["quiddity"])
    assert lines[1] == (f"valid quiddity sequence of length {len(payload['quiddity'])}: "
                        f"{flag(payload['valid'])}")


tokens = st.one_of(st.just("S"), st.just("U"), st.integers(-9, 9).map(lambda k: f"U^{k}"))


@few_examples
@given(st.lists(tokens, min_size=1, max_size=12).map("*".join))
def test_reduce(word):
    code, lines, payload = both_formats("reduce", word)
    shown = fields(lines)
    assert code == 0 and len(lines) == 3
    (a, b), (c, d) = payload["matrix"]
    assert shown["matrix"] == f"[[{a},{b}],[{c},{d}]]"
    order = payload["order"]
    assert shown["order"] == ("infinite" if order is None else str(order))
    assert shown["normal_form"] == payload["normal_form"]


@few_examples
@given(st.one_of(st.tuples(st.integers(3, 60), st.just("formula")),
                 st.tuples(st.integers(3, 9), st.just("brute"))))
def test_count(case):
    n, method = case
    code, lines, payload = both_formats("count", "--n", str(n), "--method", method)
    assert code == 0
    assert payload["n"] == n and payload["method"] == method
    assert lines == [f"K={payload['K']}"]
