"""Deliberately wrong answers, for the smoke check of the oracles.

``install_fake("similarity.count_types")`` replaces that package function
with one that returns a corrupted copy of the real answer.  Calls made
inside the package go through module attributes, so they get the fake too.
"""

from __future__ import annotations

import importlib


def corrupt(value):
    """A deliberately wrong answer of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, (tuple, list)) and value:
        return value[1:]
    return None


def install_fake(target: str) -> None:
    module_name, attr = target.split(".")
    module = importlib.import_module(f"quiddity.{module_name}")
    original = getattr(module, attr)
    setattr(module, attr, lambda *a, **k: corrupt(original(*a, **k)))
