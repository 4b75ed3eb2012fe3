"""Every Python file parses under the oldest grammar pyproject.toml allows.

``requires-python = ">=3.10"``: this checks the 3.10 grammar only (no
3.11 syntax such as ``except*``), not the library APIs a file uses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "perfbench", "demos")


def test_parses_as_python_3_10():
    files = sorted(p for d in DIRS for p in (ROOT / d).rglob("*.py"))
    assert any(p.name == "cli.py" for p in files)
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []


def test_newer_grammar_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
