"""Every function the benchmark tracer wraps still exists in the package.

``perfbench/tracer.py`` replaces the functions named in its ``TRACED`` table
by ``getattr`` on each ``quiddity`` module, so a renamed or deleted name
fails every traced benchmark run.  The tracer is loaded by path, as it is
not part of the package.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_is_a_function_of_its_module():
    traced = load_tracer().TRACED
    assert "supplements" in traced and "extend_superbasic" in traced["supplements"]
    missing = [
        f"quiddity.{short}.{name}"
        for short, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"quiddity.{short}"), name, None))
    ]
    assert missing == []

