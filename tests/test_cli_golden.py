"""Byte-exact CLI goldens: stdout, stderr and exit code of every case.

The cases cover each command in each of its formats, the help screens,
the usage errors, the malformed-input errors (exit 2) and the
mathematical rejections (exit 1) of each command.  Every case runs
``cli.main`` in a directory that holds the factor files of FACTOR_FILES.
Unlike the JSON checks in test_cli.py, these comparisons also catch a
change in key order or spacing.  The CLI writes its usage and help texts
itself, worded as argparse 3.11 words them and wrapped at 80 columns
whatever the terminal, so the same bytes hold on every Python.

After an intended output change, re-record and review the diff of
tests/cli_golden.json:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from quiddity import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

FACTOR_FILES = {
    "k.json": '{"-1": 2, "0": 3, "1": 2}',
    "l.json": '{"-1": 2, "0": 3, "1": 2}',
    "ones.json": json.dumps({str(i): 1 for i in range(-3, 5)}),
    "short.json": '{"1": 2}',
    "twos.json": json.dumps({str(i): 2 for i in range(-1, 4)}),
    "list.json": "[2, 3]",
    "text.json": "not json",
    "word.json": '{"0": "x"}',
    "float.json": '{"-1": 2, "0": 2.0, "1": 2}',
    "bool.json": '{"-1": 2, "0": 3, "1": true}',
    "dup.json": '{"-1": 2, "0": 2, "0_0": 3, "1": 2}',  # int() reads "0_0" as 0
    "indic.json": '{"-1": 2, "\u0660": 3, "1": 2}',  # an Arabic-Indic zero
    "deep.json": "[" * 100_000 + "]" * 100_000,  # deeper than json's recursion limit
    "repeat.json": '{"-1": 2, "0": 2, "0": 3, "1": 2}',  # json keeps the last "0"
}

FAN_12 = "10," + ",".join(["1"] + ["2"] * 9 + ["1"])
FAN_1001 = "999," + ",".join(["1"] + ["2"] * 998 + ["1"])  # one entry past the frieze limit
ONES_10001 = ",".join(["1"] * 10_001)  # one entry past the verify limit
SEED_FILES = ["--kfile", "k.json", "--lfile", "l.json"]

CASES = [
    # top level
    [],
    ["--help"],
    ["nosuch"],
    # verify
    ["verify", "2,1,3,1,2"],
    ["verify", "2,1,3,1,2", "--format", "json"],
    ["verify", "1,2,1,2"],
    ["verify", "1,3,1,3,1,3", "--format", "json"],
    ["verify", "1,2,3,1,2,3"],
    ["verify", "4,1,2,2,2,1", "--format", "json"],
    ["verify", "2,2,2"],
    ["verify", "2,2,2", "--format", "json"],
    ["verify", "1,a,3"],
    ["verify", "1,-2,3"],
    ["verify", ""],
    ["verify"],
    ["verify", "1,1,1", "--format", "dot"],
    ["verify", ONES_10001],
    ["verify", "--help"],
    # frieze
    ["frieze", "4,2,1,3,2,2,1"],
    ["frieze", "4,2,1,3,2,2,1", "--format", "json"],
    ["frieze", "1,1,1"],
    ["frieze", "2,2,2,2"],
    ["frieze", "2,2,2,2", "--format", "json"],
    ["frieze", "1,1,1,1"],
    ["frieze", "3,3,3"],
    ["frieze", FAN_1001],
    ["frieze", "x"],
    ["frieze"],
    # count
    ["count", "--n", "13"],
    ["count", "--n", "13", "--format", "json"],
    ["count", "--n", "200"],
    ["count", "--n", "7162"],  # K has more digits than Python prints by default
    ["count", "--n", "12", "--method", "brute"],
    ["count", "--n", "8", "--method", "brute", "--format", "json"],
    ["count", "--n", "6", "--method", "brute", "--cap", "6"],
    ["count", "--n", "15", "--method", "brute"],
    ["count", "--n", "7", "--method", "brute", "--cap", "6"],
    ["count", "--n", "2"],
    ["count", "--n", "2", "--method", "brute"],
    ["count", "--n", "2", "--format", "json"],
    ["count", "--n", "7", "--method", "magic"],
    ["count", "--n", "abc"],
    ["count"],
    ["count", "--help"],
    # types
    ["types", "--n", "7"],
    ["types", "--n", "6", "--format", "json"],
    ["types", "--n", "5", "--format", "dot"],
    ["types", "--n", "3"],
    ["types", "--n", "3", "--format", "json"],
    ["types", "--n", "15"],
    ["types", "--n", "2"],
    ["types", "--n", "7", "--cap", "6"],
    ["types", "--n", "6", "--format", "svg"],
    ["types"],
    # supplement
    ["supplement", "1,2,2,6,2,4,3,2,2,2,2"],
    ["supplement", "1,4", "--format", "json"],
    ["supplement", "1, 4"],
    ["supplement", "2,3,4"],
    ["supplement", "2,3,4", "--format", "json"],
    ["supplement", "1,a"],
    ["supplement", "1,1000001"],  # the supplement would pass the length limit
    ["supplement"],
    # extend
    ["extend", "1,3,3", "+", "1,3,4"],
    ["extend", "1,3,3", "1,3,4", "--format", "json"],
    ["extend", "1,3,3", "--format", "json"],
    ["extend", "2,2"],
    ["extend", "1,x"],
    ["extend", "1,3,1000003"],  # completed by a supplement past the limit
    ["extend"],
    # reduce
    ["reduce", "U^2*S*U*S"],
    ["reduce", "U^2*S*U*S", "--format", "json"],
    ["reduce", "U*S*U*S*U*S"],
    ["reduce", "U^2*S"],
    ["reduce", "U^2*S", "--format", "json"],
    ["reduce", "S*S"],
    ["reduce", "U^-3*S*U^5"],
    ["reduce", "U+S"],
    ["reduce", "U^x"],
    ["reduce", ""],
    ["reduce", "U^50001"],
    ["reduce", "U^40", "--format", "json"],
    ["reduce"],
    # tree
    ["tree", "1,2,2,1,3"],
    ["tree", "1,2,2,1,3", "--format", "json"],
    ["tree", "1,2,2,1,3", "--format", "dot"],
    ["tree", "1,1,1", "--format", "dot"],
    ["tree", FAN_12],
    ["tree", FAN_12, "--format", "json"],
    ["tree", FAN_12, "--format", "dot"],
    ["tree", "1,2,2,1,3", "--root", "2,3"],
    ["tree", "1,2,2,1,3", "--root", "0,4", "--format", "json"],
    ["tree", "1,2,2,1,3", "--root", "0,2"],
    ["tree", "1,2,2,1,3", "--root", "6,2"],
    ["tree", "1,2,2,1,3", "--root=-1,0"],
    ["tree", "1,2,2,1,3", "--root", "a,b"],
    ["tree", "1,2,2,1,3", "--root", "1,2,3"],
    ["tree", "1,2,2,1,3", "--root", ""],
    ["tree", "2,2,2"],
    ["tree", "2,2,2", "--format", "dot"],
    ["tree", "1,,2"],
    ["tree"],
    # tiling
    ["tiling", "--formula-paper", "--window=-2:2,-2:2"],
    ["tiling", "--formula-paper", "--window=-2:2,-2:2", "--format", "json"],
    ["tiling", "--formula-paper", "--window=0:0,0:0"],
    ["tiling", "--formula-paper", "--window=-500:500,-500:500"],  # 1001 x 1001 cells
    ["tiling", "--seed", "2,3,3,5", *SEED_FILES, "--window=-2:2,-2:2"],
    ["tiling", "--seed", "2,3,3,5", *SEED_FILES, "--window=-2:2,-2:2", "--format", "json"],
    ["tiling", "--seed=-1,0,0,-1", *SEED_FILES, "--window=-2:2,-2:2"],
    ["tiling", "--seed", "1,1,1,2", "--kfile", "ones.json", "--lfile", "ones.json",
     "--window=-3:4,-3:4"],
    ["tiling", "--seed", "1,1,1,2", "--kfile", "ones.json", "--lfile", "ones.json",
     "--window=-3:4,-3:4", "--format", "json"],
    ["tiling", "--seed", "1,2,3,4", *SEED_FILES, "--window=-2:2,-2:2"],
    ["tiling", "--seed", "2,3,3,5", *SEED_FILES, "--window=2:3,2:3"],
    ["tiling", "--seed", "1,1,1,2", "--kfile", "short.json", "--lfile", "twos.json",
     "--window=-2:4,-2:4"],
    ["tiling", "--seed", "2,3,3,5", "--kfile", "missing.json", "--lfile", "l.json",
     "--window=-2:2,-2:2"],
    ["tiling", "--seed", "2,3,3,5", "--kfile", "k.json", "--lfile", "text.json",
     "--window=-2:2,-2:2"],
    ["tiling", "--seed", "2,3,3,5", "--kfile", "list.json", "--lfile", "l.json",
     "--window=-2:2,-2:2"],
    ["tiling", "--seed", "2,3,3,5", "--kfile", "word.json", "--lfile", "l.json",
     "--window=-2:2,-2:2"],
    ["tiling", "--seed", "2,3,3,5", "--kfile", "float.json", "--lfile", "l.json",
     "--window=-2:2,-2:2"],
    ["tiling", "--seed", "2,3,3,5", "--kfile", "k.json", "--lfile", "bool.json",
     "--window=-2:2,-2:2"],
    ["tiling", "--seed", "2,3,3,5", "--kfile", "dup.json", "--lfile", "l.json",
     "--window=-2:2,-2:2"],
    ["tiling", "--seed", "2,3,3,5", "--kfile", "k.json", "--lfile", "indic.json",
     "--window=-2:2,-2:2"],
    ["tiling", "--seed", "2,3,3,5", "--kfile", "deep.json", "--lfile", "l.json",
     "--window=-2:2,-2:2"],
    ["tiling", "--seed", "2,3,3,5", "--kfile", "repeat.json", "--lfile", "l.json",
     "--window=-2:2,-2:2"],
    ["tiling", "--seed", "1,2,3", *SEED_FILES, "--window=-2:2,-2:2"],
    ["tiling", "--seed", "a,b,c,d", *SEED_FILES, "--window=-2:2,-2:2"],
    ["tiling", "--seed", "1,2,3,4,5", *SEED_FILES, "--window=-2:2,-2:2"],
    ["tiling", "--seed", "2,3,3,5", "--window=-2:2,-2:2"],
    ["tiling", "--window=0:1,0:1"],
    ["tiling", "--formula-paper", "--window=a"],
    ["tiling", "--formula-paper", "--window=0:1"],
    ["tiling", "--formula-paper", "--window=0:1:2,0:1"],
    ["tiling", "--formula-paper", "--window=0:x,0:1"],
    ["tiling", "--formula-paper", "--window=0:1,0:1,0:1"],
    ["tiling", "--formula-paper", "--window=2:1,0:1"],
    ["tiling", "--formula-paper", "--window=0:1,3:1"],
    ["tiling", "--formula-paper"],
    ["tiling", "--help"],
]


def run_case(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_factor_files(directory):
    for name, text in FACTOR_FILES.items():
        (Path(directory) / name).write_text(text, encoding="utf-8")


def record(directory):
    """Run every case in ``directory`` and return the golden records."""
    write_factor_files(directory)
    here = os.getcwd()
    os.chdir(directory)
    try:
        return [dict(zip(("argv", "code", "stdout", "stderr"), (argv, *run_case(argv))))
                for argv in CASES]
    finally:
        os.chdir(here)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_lists_every_case(golden):
    assert [g["argv"] for g in golden] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i]) or "<none>")
def test_cli_output_is_byte_identical(index, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_factor_files(tmp_path)
    want = golden[index]
    code, out, err = run_case(want["argv"])
    assert out == want["stdout"]
    assert err == want["stderr"]
    assert code == want["code"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        records = record(directory)
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}")
