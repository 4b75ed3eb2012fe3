import ast
import contextlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiddity import cli
from quiddity.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_symmetric(capsys):
    code, out, _ = run(capsys, "verify", "2,1,3,1,2")
    assert code == 0
    assert out == (
        "is_quiddity: true\n"
        "n: 5\n"
        "period: 5\n"
        "category: symmetric\n"
        "canon: 1,2,2,1,3\n"
        "orbit_size: 5\n"
    )


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "2,1,3,1,2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "sequence": [2, 1, 3, 1, 2],
        "is_quiddity": True,
        "n": 5,
        "period": 5,
        "category": "symmetric",
        "canon": [1, 2, 2, 1, 3],
        "orbit_size": 5,
    }


def test_verify_makes_one_dihedral_pass(capsys, monkeypatch):
    from quiddity import similarity

    calls = []
    least_rotations = similarity._least_rotations

    def counted(seq):
        calls.append(seq)
        return least_rotations(seq)

    monkeypatch.setattr(similarity, "_least_rotations", counted)
    code, out, _ = run(capsys, "verify", "4,2,1,3,2,2,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["orbit_size"] == 14
    assert calls == [(4, 2, 1, 3, 2, 2, 1)]


def test_verify_rejects_non_quiddity(capsys):
    code, out, _ = run(capsys, "verify", "2,2,2")
    assert code == 1
    assert out == "is_quiddity: false\nn: 3\n"


def test_verify_usage_error(capsys):
    code, _, err = run(capsys, "verify", "1,1")
    assert code == 2
    assert "at least 3 entries" in err


def test_longest_sequence_is_verified_and_one_more_entry_is_refused(capsys, monkeypatch):
    from quiddity import eta

    monkeypatch.setattr(cli, "VERIFY_LENGTH_CAP", 12)
    code, out, _ = run(capsys, "verify", "6,1,3,1,4,1,4,1,4,1,3,1")  # a 1 at every other entry
    assert code == 0
    assert out.startswith("is_quiddity: true\nn: 12\n")

    def refuse(seq):
        raise AssertionError("is_eta ran on a sequence over the limit")

    monkeypatch.setattr(eta, "is_eta", refuse)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", ",".join(["1"] * 13), "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: sequence of 13 entries, over the limit of 12\n"


def test_frieze_pattern(capsys):
    code, out, _ = run(capsys, "frieze", "4,2,1,3,2,2,1")
    assert code == 0
    assert out == (
        "1  1  1  1  1  1  1\n"
        "  4  2  1  3  2  2  1\n"
        "3  7  1  2  5  3  1\n"
        "  5  3  1  3  7  1  2\n"
        "3  2  2  1  4  2  1\n"
        "  1  1  1  1  1  1  1\n"
    )


def test_frieze_triangle(capsys):
    code, out, _ = run(capsys, "frieze", "1,1,1")
    assert code == 0
    assert out == "1  1  1\n  1  1  1\n"


def test_frieze_rejects(capsys):
    code, _, err = run(capsys, "frieze", "2,2,2")
    assert code == 1
    assert "not a quiddity sequence" in err


def test_frieze_json(capsys):
    code, out, _ = run(capsys, "frieze", "1,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 3,
        "rows": [[0, 0, 0], [1, 1, 1], [1, 1, 1], [0, 0, 0]],
    }


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "13")
    assert (code, out) == (0, "K=2282\n")


def test_count_brute_json(capsys):
    code, out, _ = run(capsys, "count", "--n", "8", "--method", "brute", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 8, "method": "brute", "K": 12}


def test_count_prints_k_past_the_int_digit_limit(capsys):
    # K_7162 has 4 301 digits, more than Python turns into text by default: main lifts
    # the limit for its output only and restores it, and an --n that long is refused
    from test_sweeps import burnside_k

    k, limit = burnside_k(7162), sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        text = run(capsys, "count", "--n", "7162")
        as_json = run(capsys, "count", "--n", "7162", "--format", "json")
        huge_n = run(capsys, "count", "--n", "9" * 5000)
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        assert text == (0, f"K={k}\n", "")
        assert as_json == (0, json.dumps({"n": 7162, "method": "formula", "K": k}) + "\n", "")
    finally:
        sys.set_int_max_str_digits(limit)
    assert huge_n[0] == 2 and "argument --n: invalid int value" in huge_n[2]


def test_largest_formula_count_is_answered_and_one_more_n_is_refused(capsys, monkeypatch):
    from quiddity import similarity

    monkeypatch.setattr(cli, "FORMULA_COUNT_N_CAP", 10)
    assert run(capsys, "count", "--n", "10") == (0, "K=82\n", "")

    def refuse(*args):
        raise AssertionError("a Catalan number was computed for an n over the limit")

    monkeypatch.setattr(similarity, "catalan", refuse)
    monkeypatch.setattr(similarity, "_closed_sum", refuse)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "count", "--n", "11", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: formula count at n=11, over the limit of 10\n"
    # the limit bounds the formula only; the brute count keeps its own cap
    assert run(capsys, "count", "--n", "11", "--method", "brute") == (0, "K=228\n", "")


def test_count_over_cap(capsys):
    code, _, err = run(capsys, "count", "--n", "15", "--method", "brute")
    assert code == 2
    assert "cap" in err


def test_types_text(capsys):
    code, out, _ = run(capsys, "types", "--n", "6")
    assert code == 0
    assert out == "K=3\n1,2,2,2,1,4\n1,2,3,1,2,3\n1,3,1,3,1,3\n"


def test_types_json(capsys):
    code, out, _ = run(capsys, "types", "--n", "5", "--format", "json")
    assert json.loads(out) == {"n": 5, "K": 1, "types": [[1, 2, 2, 1, 3]]}


def test_types_dot(capsys):
    code, out, _ = run(capsys, "types", "--n", "4", "--format", "dot")
    assert code == 0
    assert out.startswith("graph polygon {")
    assert "[style=dashed];" in out


def test_supplement(capsys):
    code, out, _ = run(capsys, "supplement", "1,2,2,6,2,4,3,2,2,2,2")
    assert code == 0
    assert out.splitlines()[0] == "1,6,3,2,4,2,2,2,4"
    assert out.splitlines()[1] == "concatenation is a quiddity sequence: true"


def test_supplement_json(capsys):
    code, out, _ = run(capsys, "supplement", "1,4", "--format", "json")
    assert json.loads(out) == {
        "input": [1, 4],
        "supplement": [1, 2, 2, 2],
        "concatenation_valid": True,
    }


def test_supplement_rejects_non_basic(capsys):
    code, _, err = run(capsys, "supplement", "2,3,4")
    assert code == 2
    assert "basic" in err


@pytest.mark.parametrize("last", ["9" * 4299, "100000000"])
def test_supplement_over_the_length_limit_is_refused_at_once(capsys, last):
    # the answer would have 2 + (A - 2) entries: too many ints to build, or one
    # too large for a range; either is refused before any is made
    start = time.perf_counter()
    code, out, err = run(capsys, "supplement", "1," + last)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "error: the supplement would have more than 1000000 entries\n"


def test_extend(capsys):
    code, out, _ = run(capsys, "extend", "1,3,3", "+", "1,3,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("1,3,3,1,3,4")
    assert lines[1].endswith("true")


def test_extend_json(capsys):
    code, out, _ = run(capsys, "extend", "1,3,3", "--format", "json")
    payload = json.loads(out)
    assert payload["blocks"] == [[1, 3, 3]]
    assert payload["valid"] is True
    assert payload["quiddity"][:3] == [1, 3, 3]


def test_reduce_central_word(capsys):
    code, out, _ = run(capsys, "reduce", "U*S*U*S*U*S")
    assert code == 0
    assert out == "matrix: [[-1,0],[0,-1]]\norder: 2\nnormal_form: -I\n"


def test_reduce_infinite_order(capsys):
    code, out, _ = run(capsys, "reduce", "U^2*S")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "matrix: [[0,1],[-1,2]]"
    assert lines[1] == "order: infinite"


def test_reduce_json(capsys):
    from quiddity import sl2

    code, out, _ = run(capsys, "reduce", "U^2*S*U*S", "--format", "json")
    payload = json.loads(out)
    assert payload["order"] == 4
    matrix = sl2.eval_tokens("U^2*S*U*S")
    assert payload["matrix"] == matrix.rows()
    assert payload["normal_form"] == str(sl2.ts_normal_form(matrix))


def test_reduce_bad_token(capsys):
    code, _, err = run(capsys, "reduce", "U+S")
    assert code == 2
    assert "token" in err


def test_tree_text(capsys):
    code, out, _ = run(capsys, "tree", "1,2,2,1,3")
    assert code == 0
    assert out == "diagonals: [[1, 4], [2, 4]]\ntree: (b,(c,(d,e)))\n"


def test_tree_json(capsys):
    code, out, _ = run(capsys, "tree", "1,2,2,1,3", "--format", "json")
    assert json.loads(out) == {
        "n": 5,
        "diagonals": [[1, 4], [2, 4]],
        "tree": "(b,(c,(d,e)))",
    }


def test_tree_dot(capsys):
    code, out, _ = run(capsys, "tree", "1,1,1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph dualtree {")


def test_tree_rejects_invalid(capsys):
    code, _, err = run(capsys, "tree", "2,2,2")
    assert code == 1


def test_tree_bad_root(capsys):
    for root in ("a,b", "1,2,3"):
        code, out, err = run(capsys, "tree", "1,2,2,1,3", "--root", root)
        assert (code, out) == (2, "")
        assert err == f"error: --root wants 'u,v', got '{root}'\n"


def test_reduce_over_the_letter_limit(capsys):
    code, out, err = run(capsys, "reduce", "U^4000000")
    assert (code, out) == (2, "")
    assert err == (
        "error: normal form needs 8000000 S/T letters, over the limit of 100000\n"
    )


def test_tiling_formula(capsys):
    code, out, _ = run(capsys, "tiling", "--formula-paper", "--window=-2:2,-2:2")
    assert code == 0
    assert out == (
        "10  7  4  5  6\n"
        " 7  5  3  4  5\n"
        " 4  3  2  3  4\n"
        " 5  4  3  5  7\n"
        " 6  5  4  7 10\n"
    )


def test_tiling_from_files(capsys, tmp_path):
    kfile = tmp_path / "k.json"
    lfile = tmp_path / "l.json"
    kfile.write_text(json.dumps({"-1": 2, "0": 3, "1": 2}))
    lfile.write_text(json.dumps({"-1": 2, "0": 3, "1": 2}))
    code, out, _ = run(
        capsys,
        "tiling",
        "--seed",
        "2,3,3,5",
        "--kfile",
        str(kfile),
        "--lfile",
        str(lfile),
        "--window=-2:2,-2:2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["positive"] is True
    assert payload["values"][2] == [4, 3, 2, 3, 4]


def test_tiling_factor_file_lacks_an_index(capsys, tmp_path):
    kfile = tmp_path / "k.json"
    lfile = tmp_path / "l.json"
    kfile.write_text(json.dumps({"1": 2}))
    lfile.write_text(json.dumps({str(i): 2 for i in range(-1, 4)}))
    code, out, err = run(
        capsys,
        "tiling",
        "--seed",
        "1,1,1,2",
        "--kfile",
        str(kfile),
        "--lfile",
        str(lfile),
        "--window=-2:4,-2:4",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: column factor k[j] missing for j = -1, 0, 2, 3 (the window needs j = -1..3)\n"
    )


def test_tiling_missing_pieces(capsys):
    code, _, err = run(capsys, "tiling", "--window=0:1,0:1")
    assert code == 2
    assert "--seed" in err


def test_tiling_bad_window(capsys):
    code, _, err = run(capsys, "tiling", "--formula-paper", "--window=oops")
    assert code == 2


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_tree_on_a_deep_fan(capsys):
    fan = ",".join(map(str, (2998, 1) + (2,) * 2997 + (1,)))
    for fmt in ("text", "json", "dot"):
        code, out, err = run(capsys, "tree", fan, "--format", fmt)
        assert (code, err) == (0, "")
        assert out.endswith("\n") and len(out) > 3000


def readme_commands():
    """The `quiddity ...` lines of the README's "Command line" block, as argv lists."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("quiddity ")]


def test_readme_lists_every_command():
    assert {argv[0] for argv in readme_commands()} == {name for name, *_ in COMMANDS}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_example_runs(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("k.json", "l.json"):
        (tmp_path / name).write_text('{"-1": 2, "0": 3, "1": 2}', encoding="utf-8")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.strip()


LOADING_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("quiddity."))

import quiddity.cli
after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = quiddity.cli.main(["tiling", "--formula-paper", "--window=-1:1,-1:1"])
after_tiling = loaded()
import quiddity
quiddity.eta
after_attribute = loaded()
namespace = {}
exec("from quiddity import *", namespace)
missing = [name for name in quiddity.__all__ if name not in namespace]
print(json.dumps([after_import, code, after_tiling, after_attribute, missing]))
"""


def test_modules_load_per_command():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", LOADING_PROBE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    after_import, code, after_tiling, after_attribute, missing = json.loads(proc.stdout)
    assert after_import == ["quiddity.cli", "quiddity.errors"]
    assert code == 0
    assert after_tiling == ["quiddity.cli", "quiddity.errors", "quiddity.tiling"]
    assert "quiddity.eta" in after_attribute and "quiddity.similarity" not in after_attribute
    assert missing == []


def test_importtime_lists_package_modules():
    """Submodules loaded on first access show up in ``-X importtime``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "quiddity.cli",
                           "verify", "2,1,3,1,2"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    timed = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "quiddity.eta" in timed


# One cheap invocation per COMMANDS row; none reads a factor file.
BUDGET_ARGV = {
    "verify": ["verify", "2,1,3,1,2"],
    "frieze": ["frieze", "4,2,1,3,2,2,1"],
    "count": ["count", "--n", "8", "--method", "brute"],
    "types": ["types", "--n", "7"],
    "supplement": ["supplement", "1,2,2,6"],
    "extend": ["extend", "1,3,3", "+", "1,3,4"],
    "reduce": ["reduce", "U^2*S*U*S"],
    "tree": ["tree", "1,2,2,1,3"],
    "tiling": ["tiling", "--formula-paper", "--window=-2:2,-2:2"],
}

# The package modules each BUDGET_ARGV line loads besides cli and errors, in
# text and in json format: a module a command does not run is never compiled.
# Every sweep, brute count and text types included, walks the triangulations
# without quiddity.polygons, and frieze prints the integer frieze without sl2.
BUDGET_MODULES = {
    "verify": {"eta", "similarity"},
    "frieze": {"eta", "frieze"},
    "count": {"eta", "similarity"},
    "types": {"eta", "similarity"},
    "supplement": {"eta", "supplements"},
    "extend": {"eta", "supplements"},
    "reduce": {"eta", "sl2"},
    "tree": {"eta", "polygons"},
    "tiling": {"tiling"},
}

BUDGET_PROBE = """
import io, sys
from quiddity.cli import main

def run(argv):
    sys.stdout = io.StringIO()
    try:
        code = main(argv)
    finally:
        sys.stdout = sys.__stdout__
    return code, sorted(sys.modules)

argv = sys.argv[1:]
text = run(argv)
print(repr([text, run(argv + ["--format", "json"])]))
"""

HEAVY = {"dataclasses", "inspect", "ast"}


def package_modules(modules):
    return {m.removeprefix("quiddity.") for m in modules if m.startswith("quiddity.")}


def test_import_budget_per_command():
    """No command loads dataclasses, inspect or ast; text output never loads json.

    Each command runs in a fresh interpreter, first in text and then in
    json format, and the modules it added are those missing from a bare
    interpreter (whose site hooks may load anything).  The package modules
    are exactly those of BUDGET_MODULES besides cli and errors, and
    ``types --format dot`` adds polygons to those of text ``types``.
    """
    assert set(BUDGET_ARGV) == {name for name, *_ in COMMANDS}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    bare = subprocess.run([sys.executable, "-c", "import sys; print(sorted(sys.modules))"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    baseline = set(ast.literal_eval(bare.stdout))
    for name, argv in BUDGET_ARGV.items():
        proc = subprocess.run([sys.executable, "-c", BUDGET_PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        (text_code, text_modules), (json_code, json_modules) = ast.literal_eval(proc.stdout)
        assert (text_code, json_code) == (0, 0), name
        added_by_text = set(text_modules) - baseline
        added = set(json_modules) - baseline
        assert not added & HEAVY, (name, sorted(added & HEAVY))
        assert "json" not in added_by_text, name
        assert "json" in added, name
        want = {"cli", "errors"} | BUDGET_MODULES[name]
        assert package_modules(text_modules) == package_modules(json_modules) == want, name
    proc = subprocess.run([sys.executable, "-c", BUDGET_PROBE, *BUDGET_ARGV["types"],
                           "--format", "dot"], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    (dot_code, dot_modules), _ = ast.literal_eval(proc.stdout)
    assert dot_code == 0
    assert package_modules(dot_modules) == {"cli", "errors", "eta", "polygons", "similarity"}


# -- the parser, with argparse as its oracle ----------------------------------

def build_argparse():
    """argparse's parser for the COMMANDS rows: the oracle the CLI's own parser follows."""
    import argparse

    parser = argparse.ArgumentParser(prog="quiddity", description=cli.DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments, formats in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--format", choices=("text", "json") + formats, default="text")
        p.set_defaults(func=handler)
    return parser


def outcome(parse, argv):
    """(exit code, vars() of the namespace or None, stdout, stderr) of ``parse(argv)``,
    on an 80-column terminal, argparse's wrap width in the goldens."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code, namespace = cli.EXIT_OK, vars(parse(list(argv)))
        except SystemExit as exc:
            code, namespace = exc.code, None
    return code, namespace, out.getvalue(), err.getvalue()


def is_refusal(argv):
    """Whether argv holds a token the parser refuses by decision (see ``cli._parse``):
    ``--``, an abbreviated long option, or ``-h`` with text glued on."""
    row = next((cli._ROWS[token] for token in argv if token in cli._ROWS), None)
    names = {"-h", "--help", "--format"} | {name for flags, _ in (row[3] if row else ())
                                             for name in flags}
    for token in argv:
        flag = token.partition("=")[0]
        if flag not in names and (flag.startswith("-h") or flag.startswith("--")
                                  and any(name.startswith(flag) for name in names)):
            return True
    return False


def check_against_argparse(argv):
    """The parser gives argparse's exit code and namespace, and on 3.10-3.12 its bytes
    too; or it refuses a line that holds a refusal, with exit 2, the usage and one
    error line, whatever argparse does with it."""
    code, namespace, out, err = outcome(cli._parse, argv)
    if " is not read: " in err:
        assert is_refusal(argv), argv
        assert (code, namespace, out) == (cli.EXIT_USAGE, None, ""), argv
        assert err.startswith("usage: quiddity") and err.count(": error: ") == 1, argv
        return
    want = outcome(build_argparse().parse_args, argv)
    assert (code, namespace) == want[:2], argv
    if sys.version_info < (3, 13):  # 3.13 rewords and rewraps some of these texts
        assert (out, err) == want[2:], argv


OPTION_NAMES = sorted(
    {flag for *_, arguments, _ in COMMANDS for (flag,), _ in arguments if flag.startswith("-")}
    | {"--format", "--form", "--fo", "--wind", "--help", "-h", "-n", "--", "--he", "-hx"}
)
VALUES = ["5", "12", "abc", "", " 7", "+4", "5_0", "-3", "-", "formula", "brute", "magic",
          "text", "json", "dot", "svg", "2,1,3,1,2", "1,3,3", "+", "U^2*S", "-2:2,-2:2",
          "0:1,0:1", "a b", "-1 0", "x=y", "0,4", "-2.5", "-.5", "-5.", "tree"]
# values each option may take, and some it may not
OPTION_VALUES = {"--n": ["5", " 7", "+4", "1_2", "x", "-5"], "--cap": ["9", "0"],
                 "--method": ["formula", "brute", "magic"], "--format": ["text", "json", "dot", "svg"],
                 "--root": ["0,4", "", "a,b"], "--seed": ["2,3,3,5"], "--kfile": ["k.json"],
                 "--lfile": ["l.json"], "--window": ["-2:2,-2:2", "0:1,0:1"]}


@st.composite
def command_lines(draw):
    """A working line of a command (or none) with up to three pieces inserted at one
    place: an option alone, with a value, as option=value, or a value alone."""
    base = draw(st.sampled_from([*BUDGET_ARGV.values(), ["nosuch"], ["--help"], ["-x"]]))
    row = cli._ROWS.get(base[0])
    own = ["--format"] + [flag for (flag,), _ in row[3] if flag.startswith("-")] if row else ["-h"]
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):  # mostly what the command takes
            option = draw(st.sampled_from(own))
            if option not in OPTION_VALUES:
                pieces.append(option)
                continue
            value = draw(st.sampled_from(OPTION_VALUES[option]))
            forms = [[option, value], [f"{option}={value}"]]
        else:
            option, value = draw(st.sampled_from(OPTION_NAMES)), draw(st.sampled_from(VALUES))
            forms = [[option], [option, value], [f"{option}={value}"], [value]]
        pieces += draw(st.sampled_from(forms))
    cut = draw(st.integers(1, len(base)))
    return base[:cut] + pieces + base[cut:]


@settings(max_examples=1000)
@given(command_lines())
@example(["tiling", "--formula-paper", "--window=-2:2,-2:2", "--format", "json"])
@example(["extend", "--format", "json", "1,3,3", "+", "1,3,4"])
@example(["tree", "1,2,2,1,3", "--root", ""])
@example(["count", "--n", " 7", "--cap=5_0", "--method=brute"])
@example(["count", "--n", "7", "x", "--y", "z"])
@example(["-x", "verify", "1,1,1", "y"])
@example(["tiling", "--help", "--form"])
@example(["verify", "a", "b", "--help"])
def test_plain_parser_gives_argparse_namespace_or_declines(argv):
    check_against_argparse(argv)


# How the parser reads what argparse reads in its own way.  "refused": exit 2, the
# usage and one error line.  "read": as argparse reads it.
# - "--" only lets a value start with "-", and no command takes such a positional.
# - An abbreviation would change meaning when an option is added; argparse 3.11
#   also refuses an ambiguous one before it reads anything, 3.13 where it stands.
# - "-h" with text glued on is an error on 3.11 and help on 3.13.
# - -h and --help print help where they stand; an option given twice keeps its
#   last value; a negative number is a value; COLUMNS is not read (80 columns).
DECISIONS = {
    ("verify", "--", "1,1,1"): "refused",
    ("count", "--n", "--", "5"): "refused",
    ("count", "--n", "5", "--fo", "json"): "refused",
    ("count", "--met", "formula", "--n", "5"): "refused",
    ("tiling", "--formula-paper", "--wind=0:1,0:1"): "refused",
    ("tiling", "--help", "--form", "json"): "refused",
    ("count", "--he"): "refused",
    ("count", "--n", "5", "-hx"): "refused",
    ("count", "--n", "5", "--n", "6"): "read",
    ("count", "--n", "-5"): "read",
    ("tree", "1,2,2,1,3", "--root", "-1 0"): "read",
    ("verify", "-1,2"): "read",
    ("count", "--n", "5", "-h"): "read",
    ("count", "-h", "--n", "x"): "read",
    ("count", "--n", "x", "--help"): "read",
    ("tiling", "--formula-paper=1", "--window=0:1,0:1"): "read",
    ("extend", "1,3,3", "--format", "json", "1,3,4"): "read",
    ("tiling", "--window", "-2:2,-2:2"): "read",
}


@pytest.mark.parametrize("argv", [list(line) for line in DECISIONS])
def test_plain_parser_declines_what_it_does_not_read(argv):
    check_against_argparse(argv)
    refused = " is not read: " in outcome(cli._parse, argv)[3]
    assert refused == (DECISIONS[tuple(argv)] == "refused")


def load_workloads(monkeypatch):
    """perfbench/workloads.py, loaded by path as the benchmark runs it (it imports oracles)."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_cli_benchmark_command_is_a_plain_line(monkeypatch):
    # every line of the cli workload is read, and read as argparse reads it
    workloads = load_workloads(monkeypatch)
    files = {"{kfile}": "k.json", "{lfile}": "l.json"}
    for seed in range(1, 11):
        ops, _ = workloads.generate("cli", seed)
        for op in ops:
            argv = [files.get(token, token) for token in op["argv"]]
            code, namespace, _, _ = outcome(cli._parse, argv)
            assert code == 0 and namespace is not None, argv
            assert not is_refusal(argv), argv
            assert namespace == outcome(build_argparse().parse_args, argv)[1], argv


GOLDEN_PROBE = """
import contextlib, io, json, sys
from quiddity.cli import main

results = []
for argv in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps([results, "argparse" in sys.modules]))
"""


def test_plain_lines_never_load_argparse_and_others_print_its_text(tmp_path):
    # every golden line, help and errors included, in one fresh interpreter on a
    # 40-column terminal: the bytes are the goldens' and argparse is never loaded
    from test_cli_golden import GOLDEN, write_factor_files

    write_factor_files(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "40"}
    proc = subprocess.run([sys.executable, "-c", GOLDEN_PROBE], input=json.dumps(
        [g["argv"] for g in golden]), env=env, cwd=tmp_path, capture_output=True, text=True,
        timeout=300, check=True)
    results, loaded = json.loads(proc.stdout)
    assert not loaded
    assert results == [[g["argv"], g["code"], g["stdout"], g["stderr"]] for g in golden]
