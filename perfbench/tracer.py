"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` replaces module attributes such as
``quiddity.similarity.canonical_form`` with timing wrappers.  The package's
modules call each other through module globals or module attributes
(``similarity`` calls ``polygons.iter_quiddities`` and ``canonical_form``),
so calls made inside the package are caught too.  Generator functions are
timed on each ``next()``.

Every call is aggregated per (parent function, function): calls, total
time, self time (duration minus the time its child spans cover), yielded
items, work units and useful outcomes.  Explicit spans (id, parent id,
name, start, end) are kept only for the benchmark's operation spans and
the library calls made directly from them, up to SPAN_LIMIT, so memory
stays bounded over hundreds of thousands of inner calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

_clock = time.perf_counter

# Wrapped functions, per module of the package.  Public names only.
TRACED = {
    "sl2": ("eval_tokens", "element_order", "ts_normal_form", "eval_word"),
    "eta": ("is_eta", "is_eta_by_contraction"),
    "frieze": ("generate_frieze", "has_ones_row", "generate_matrix_frieze"),
    "tiling": ("formula_window", "extract_factors", "generate_tiling"),
    "polygons": ("iter_quiddities", "from_quiddity", "to_dual_tree", "tree_quiddity"),
    "supplements": ("supplement", "supplement_by_runs", "extend_superbasic", "is_embeddable"),
    "similarity": (
        "canonical_form", "canonicalize", "classify", "compose", "brute_type_set",
        "enumerate_types", "catalan", "case_count", "perfect_tripartitions",
        "count_types", "count_TSA", "count_TSA_brute",
    ),
    "cli": ("main",),
}
MODULES = tuple(TRACED)


def _frieze_cells(args, result, exc):
    """Diamond-rule cells computed: rows 3..n of an n-periodic frieze."""
    if exc is not None:
        row, col = getattr(exc, "row", None), getattr(exc, "col", None)
        n = len(args[0])
        return 0 if row is None else (row - 3) * n + col
    return (len(result.rows) - 3) * result.n


def _word_products(args, result, exc):
    """2x2 products of the word criterion: two per entry (U^c, then S).

    The word is only multiplied out when the sequence has the quiddity sum
    3n - 6; other inputs are rejected before any product.
    """
    seq = tuple(args[0])
    return 2 * len(seq) if sum(seq) == 3 * len(seq) - 6 else 0


# Work units counted from a call's arguments or result.
WORK = {
    "eta.is_eta": _word_products,
    "frieze.generate_frieze": _frieze_cells,
}

# Useful outcomes, for ratios of useful results to attempts.
USEFUL = {
    "eta.is_eta": lambda result: result is True,
    "supplements.is_embeddable": lambda result: result.embeddable is not None,
}

FIELDS = ("calls", "total_s", "self_s", "items", "work", "useful")
_CALLS, _TOTAL, _SELF, _ITEMS, _WORK, _USEFUL = range(len(FIELDS))
SPAN_LIMIT = 20000  # explicit spans kept per process; aggregates are one row per pair


class Tracer:
    """Collects spans and per-(parent, function) aggregates in memory."""

    def __init__(self):
        self.active = False
        # frame: [name, start, child_time, span_id]
        self._stack = [["run", 0.0, 0.0, 0]]
        self.aggregates = {}
        self.spans = []
        self._next_id = 1

    def install(self, modules=MODULES) -> None:
        """Wrap every function of TRACED in the given modules of quiddity."""
        for short in modules:
            module = importlib.import_module(f"quiddity.{short}")
            for attr in TRACED[short]:
                setattr(module, attr, self.wrap(f"{short}.{attr}", getattr(module, attr)))

    # -- recording --------------------------------------------------------

    def _push(self, name, start):
        stack = self._stack
        span_id = 0
        if len(stack) <= 2 and len(self.spans) < SPAN_LIMIT:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, start, 0.0, span_id]
        stack.append(frame)
        return frame

    def _pop(self, frame, end, items=0, work=0, useful=0, calls=1):
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        duration = end - frame[1]
        parent[2] += duration
        key = (parent[0], frame[0])
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [0, 0.0, 0.0, 0, 0, 0]
        agg[_CALLS] += calls
        agg[_TOTAL] += duration
        agg[_SELF] += duration - frame[2]
        agg[_ITEMS] += items
        agg[_WORK] += work
        agg[_USEFUL] += useful
        if frame[3]:
            self.spans.append((frame[3], parent[3], frame[0], frame[1], end))

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        useful = USEFUL.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._push(name, _clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._pop(frame, _clock(), work=work(args, None, exc) if work else 0)
                raise
            end = _clock()
            self._pop(
                frame,
                end,
                work=work(args, result, None) if work else 0,
                useful=1 if useful and useful(result) else 0,
            )
            return result

        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not self.active:
                return inner
            return self._drive(name, inner)

        return traced

    def _drive(self, name, inner):
        # The generator counts as one call; each next() is timed as a
        # separate activation whose parent is whoever asked for the item.
        first = True
        while True:
            frame = self._push(name, _clock())
            try:
                item = next(inner)
            except StopIteration:
                self._pop(frame, _clock(), calls=int(first))
                return
            except BaseException:
                self._pop(frame, _clock(), calls=int(first))
                raise
            self._pop(frame, _clock(), items=1, calls=int(first))
            first = False
            yield item

    # -- results ----------------------------------------------------------

    def export(self) -> dict:
        return {
            "aggregates": [
                {"parent": parent, "name": name, **dict(zip(FIELDS, agg))}
                for (parent, name), agg in sorted(self.aggregates.items())
            ],
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in self.spans
            ],
        }


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        if self.tracer.active:
            self.frame = self.tracer._push(self.name, _clock())
        return self

    def __exit__(self, *exc):
        if self.tracer.active:
            self.tracer._pop(self.frame, _clock())
        return False


def merge_aggregates(exports) -> dict:
    """Sum exported aggregate rows over several traced processes."""
    out = {}
    for export in exports:
        for row in export["aggregates"]:
            key = (row["parent"], row["name"])
            acc = out.setdefault(key, dict.fromkeys(FIELDS, 0))
            for field in acc:
                acc[field] += row[field]
    return out
