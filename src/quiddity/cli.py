"""Command-line front end.

One process, one command, deterministic output: identical invocations give
byte-identical text or JSON, so every command is golden-testable.  Exit
codes: 0 success, 1 the input is mathematically rejected (not a quiddity
sequence, not a positive tiling), 2 usage or malformed input.

Sequences are comma-separated without spaces (``2,1,3,1,2``); words use
``S`` and ``U^k`` tokens joined by ``*`` (``U^2*S*U*S``).

The subcommands are the rows of COMMANDS: name, handler, help line,
arguments and the formats offered besides text and json.  A handler
computes its answer and returns the JSON payload and a renderer (a
zero-argument callable) per other format; ``verify`` adds its exit code.
``main`` alone prints the requested format and turns errors into the
``error: ...`` line and exit code.

Modules load per command: this module imports only ``argparse``, ``sys``
and the exception types, and each handler imports the package modules it
runs, so ``quiddity tiling`` never loads the similarity or polygon code.
``json`` loads only for ``--format json`` and for reading factor files.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    InconsistentFactorsError,
    InvalidSequenceError,
    NotAPositiveTilingError,
    NotQuiddityError,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

DOMAIN_ERRORS = (NotQuiddityError, NotAPositiveTilingError, InconsistentFactorsError)


def _ints(text: str, count: int, message: str, sep: str = ",") -> tuple:
    """Exactly ``count`` integers separated by ``sep``, else InvalidSequenceError(message)."""
    try:
        values = tuple(int(x) for x in text.split(sep))
    except ValueError:
        values = ()
    if len(values) != count:
        raise InvalidSequenceError(message)
    return values


def _dumps(payload) -> str:
    import json  # loaded here, so text output never pays for it

    return json.dumps(payload)


def _flag(value: bool) -> str:
    return str(value).lower()


def cmd_verify(args):
    from . import eta, similarity

    seq = eta.parse_sequence(args.sequence)
    valid = eta.is_eta(seq)
    report = {"sequence": list(seq), "is_quiddity": valid, "n": len(seq),
              "period": None, "category": None, "canon": None, "orbit_size": None}
    lines = [f"is_quiddity: {_flag(valid)}", f"n: {len(seq)}"]
    if valid:
        cls = similarity.classify(seq)
        orbit = similarity.canonicalize(seq)
        report.update(period=cls.period, category=cls.category,
                      canon=list(orbit.canon), orbit_size=orbit.orbit_size)
        lines += [
            f"period: {cls.period}",
            f"category: {cls.category}",
            f"canon: {eta.format_sequence(orbit.canon)}",
            f"orbit_size: {orbit.orbit_size}",
        ]
    return report, {"text": lambda: "\n".join(lines)}, EXIT_OK if valid else EXIT_DOMAIN


def cmd_frieze(args):
    from . import eta, frieze

    seq = eta.parse_sequence(args.sequence)
    window = frieze.generate_frieze(seq)  # may raise NotQuiddityError with a cell
    if frieze.has_ones_row(window) != window.n - 1:
        raise NotQuiddityError(
            f"{eta.format_sequence(seq)} is not a quiddity sequence: no all-ones row at {window.n - 1}"
        )
    payload = {"n": window.n, "rows": [list(r) for r in window.rows]}
    return payload, {"text": lambda: frieze.render_frieze(window)}


def cmd_count(args):
    from . import similarity

    k = similarity.count_types(args.n, method=args.method, cap=args.cap)
    return {"n": args.n, "method": args.method, "K": k}, {"text": lambda: f"K={k}"}


def cmd_types(args):
    from . import eta, polygons, similarity

    reps = similarity.enumerate_types(args.n, cap=args.cap)
    return {"n": args.n, "K": len(reps), "types": [list(r) for r in reps]}, {
        "text": lambda: "\n".join([f"K={len(reps)}"] + [eta.format_sequence(r) for r in reps]),
        "dot": lambda: "\n".join(
            polygons.triangulation_to_dot(polygons.from_quiddity(r)) for r in reps
        ),
    }


def cmd_supplement(args):
    from . import eta, supplements

    seq = supplements.check_basic(eta.parse_sequence(args.sequence, min_length=1))
    supp = supplements.supplement(seq)
    valid = eta.is_eta(seq + supp)
    payload = {"input": list(seq), "supplement": list(supp), "concatenation_valid": valid}
    text = f"{eta.format_sequence(supp)}\nconcatenation is a quiddity sequence: {_flag(valid)}"
    return payload, {"text": lambda: text}


def cmd_extend(args):
    from . import eta, supplements

    blocks = [eta.parse_sequence(tok, min_length=1) for tok in args.blocks if tok != "+"]
    result = supplements.extend_superbasic(blocks)
    valid = eta.is_eta(result)
    payload = {"blocks": [list(b) for b in blocks], "quiddity": list(result), "valid": valid}
    text = (f"{eta.format_sequence(result)}\n"
            f"valid quiddity sequence of length {len(result)}: {_flag(valid)}")
    return payload, {"text": lambda: text}


def cmd_reduce(args):
    from . import sl2

    matrix = sl2.eval_tokens(args.word)
    order = sl2.element_order(matrix)
    form = sl2.ts_normal_form(matrix)
    payload = {"matrix": matrix.rows(), "order": order, "normal_form": str(form)}
    return payload, {"text": lambda: "\n".join([
        f"matrix: {matrix}",
        f"order: {order if order is not None else 'infinite'}",
        f"normal_form: {form}",
    ])}


def cmd_tree(args):
    from . import eta, polygons

    seq = eta.parse_sequence(args.sequence)
    t = polygons.from_quiddity(seq)
    root = None
    if args.root is not None:
        root = _ints(args.root, 2, f"--root wants 'u,v', got {args.root!r}")
    tree = polygons.to_dual_tree(t, root_side=root)
    payload = t.to_json_dict()
    payload["tree"] = polygons.bracket(tree)
    return payload, {
        # str() of a list of int pairs is its JSON text
        "text": lambda: f"diagonals: {payload['diagonals']}\ntree: {payload['tree']}",
        "dot": lambda: polygons.tree_to_dot(tree),
    }


def _parse_window(text: str):
    message = f"--window wants 'i0:i1,j0:j1', got {text!r}"
    ipart, _, jpart = text.partition(",")
    i0, i1 = _ints(ipart, 2, message, ":")
    j0, j1 = _ints(jpart, 2, message, ":")
    if i0 > i1 or j0 > j1:
        raise InvalidSequenceError(f"empty window {text!r}")
    return i0, i1, j0, j1


def _load_factors(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        for key, value in raw.items():
            if type(value) not in (int, str):  # int() would truncate 2.7 and take true as 1
                raise ValueError(f"factor {key!r} is {json.dumps(value)}, not an integer")
        return {int(key): int(value) for key, value in raw.items()}
    except (OSError, ValueError, AttributeError) as exc:
        raise InvalidSequenceError(f"cannot read factor file {path!r}: {exc}") from exc


def cmd_tiling(args):
    from . import tiling

    i0, i1, j0, j1 = _parse_window(args.window)
    if args.formula_paper:
        window = tiling.formula_window(i0, i1, j0, j1)
    else:
        if not (args.seed and args.kfile and args.lfile):
            raise InvalidSequenceError("need --seed, --kfile and --lfile (or --formula-paper)")
        a, b, c, d = _ints(args.seed, 4, f"--seed wants 'a,b,c,d', got {args.seed!r}")
        window = tiling.generate_tiling(
            ((a, b), (c, d)), _load_factors(args.kfile), _load_factors(args.lfile), i0, i1, j0, j1
        )
    payload = {"i0": window.i0, "i1": window.i1, "j0": window.j0, "j1": window.j1,
               "positive": window.is_positive, "values": [list(r) for r in window.values]}
    return payload, {"text": window.render}


def _arg(*flags, **options):
    return flags, options


SEQUENCE = _arg("sequence")
SIZE = _arg("--n", type=int, required=True)

# (name, handler, help, arguments, formats besides text and json)
COMMANDS = (
    ("verify", cmd_verify, "test a sequence and classify it", [SEQUENCE], ()),
    ("frieze", cmd_frieze, "print the frieze pattern of a quiddity sequence", [SEQUENCE], ()),
    ("count", cmd_count, "count similarity types K_n", [
        SIZE,
        _arg("--method", choices=("formula", "brute"), default="formula"),
        _arg("--cap", type=int, default=None, help="override the brute-force cap"),
    ], ()),
    ("types", cmd_types, "list one representative per similarity type",
     [SIZE, _arg("--cap", type=int, default=None)], ("dot",)),
    ("supplement", cmd_supplement, "supplement of a basic sequence", [SEQUENCE], ()),
    ("extend", cmd_extend, "extend super-basic blocks to a quiddity sequence",
     [_arg("blocks", nargs="+", help="sequences, optionally separated by +")], ()),
    ("reduce", cmd_reduce, "evaluate an S/U word: matrix, order, normal form", [_arg("word")], ()),
    ("tree", cmd_tree, "triangulation and dual tree of a quiddity sequence", [
        SEQUENCE,
        _arg("--root", default=None, help="root side as 'u,v' (default: n-1,0)"),
    ], ("dot",)),
    ("tiling", cmd_tiling, "fill a positive SL2-tiling window", [
        _arg("--seed", default=None, help="2x2 seed 'a,b,c,d' at cells (0..1, 0..1)"),
        _arg("--kfile", default=None, help="JSON file of column factors {j: k_j}"),
        _arg("--lfile", default=None, help="JSON file of row factors {i: l_i}"),
        _arg("--window", required=True, help="'i0:i1,j0:j1' inclusive"),
        _arg("--formula-paper", action="store_true", dest="formula_paper",
             help="use the built-in closed-form tiling instead of seed+factors"),
    ], ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiddity",
        description="Frieze patterns, quiddity sequences and their similarity types.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments, formats in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--format", choices=("text", "json") + formats, default="text")
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        payload, renderers, *code = args.func(args)
        text = _dumps(payload) if args.format == "json" else renderers[args.format]()
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return code[0] if code else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
