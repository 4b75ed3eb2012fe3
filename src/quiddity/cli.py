"""Command-line front end.

One process, one command, deterministic output: identical invocations give
byte-identical text or JSON, so every command is golden-testable.  Exit
codes: 0 success, 1 the input is mathematically rejected (not a quiddity
sequence, not a positive tiling), 2 usage or malformed input.

Sequences are comma-separated without spaces (``2,1,3,1,2``); words use
``S`` and ``U^k`` tokens joined by ``*`` (``U^2*S*U*S``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import eta, frieze, polygons, similarity, sl2, supplements, tiling
from .errors import (
    InconsistentFactorsError,
    InvalidSequenceError,
    NotAPositiveTilingError,
    NotQuiddityError,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _emit(payload):
    sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


def _seq_json(seq):
    return [int(x) for x in seq]


def cmd_verify(args) -> int:
    seq = eta.parse_sequence(args.sequence)
    valid = eta.is_eta(seq)
    report = {
        "sequence": _seq_json(seq),
        "is_quiddity": valid,
        "n": len(seq),
        "period": None,
        "category": None,
        "canon": None,
        "orbit_size": None,
    }
    if valid:
        cls = similarity.classify(seq)
        orbit = similarity.canonicalize(seq)
        report.update(
            period=cls.period,
            category=cls.category,
            canon=_seq_json(orbit.canon),
            orbit_size=orbit.orbit_size,
        )
    if args.format == "json":
        _emit(json.dumps(report))
    else:
        lines = [f"is_quiddity: {str(valid).lower()}", f"n: {report['n']}"]
        if valid:
            lines += [
                f"period: {report['period']}",
                f"category: {report['category']}",
                f"canon: {eta.format_sequence(report['canon'])}",
                f"orbit_size: {report['orbit_size']}",
            ]
        _emit("\n".join(lines))
    return EXIT_OK if valid else EXIT_DOMAIN


def cmd_frieze(args) -> int:
    seq = eta.parse_sequence(args.sequence)
    window = frieze.generate_frieze(seq)  # may raise NotQuiddityError with a cell
    if frieze.has_ones_row(window) != window.n - 1:
        raise NotQuiddityError(
            f"{eta.format_sequence(seq)} is not a quiddity sequence: no all-ones row at {window.n - 1}"
        )
    if args.format == "json":
        _emit(json.dumps({"n": window.n, "rows": [list(r) for r in window.rows]}))
    else:
        _emit(frieze.render_frieze(window))
    return EXIT_OK


def cmd_count(args) -> int:
    k = similarity.count_types(args.n, method=args.method, cap=args.cap)
    if args.format == "json":
        _emit(json.dumps({"n": args.n, "method": args.method, "K": k}))
    else:
        _emit(f"K={k}")
    return EXIT_OK


def cmd_types(args) -> int:
    reps = similarity.enumerate_types(args.n, cap=args.cap)
    if args.format == "json":
        _emit(json.dumps({"n": args.n, "K": len(reps), "types": [_seq_json(r) for r in reps]}))
    elif args.format == "dot":
        graphs = [polygons.triangulation_to_dot(polygons.from_quiddity(r)) for r in reps]
        _emit("\n".join(graphs))
    else:
        lines = [f"K={len(reps)}"] + [eta.format_sequence(r) for r in reps]
        _emit("\n".join(lines))
    return EXIT_OK


def cmd_supplement(args) -> int:
    seq = supplements.check_basic(eta.parse_sequence_loose(args.sequence))
    supp = supplements.supplement(seq)
    valid = eta.is_eta(seq + supp)
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "input": _seq_json(seq),
                    "supplement": _seq_json(supp),
                    "concatenation_valid": valid,
                }
            )
        )
    else:
        _emit(eta.format_sequence(supp) + f"\nconcatenation is a quiddity sequence: {str(valid).lower()}")
    return EXIT_OK


def cmd_extend(args) -> int:
    blocks = [eta.parse_sequence_loose(tok) for tok in args.blocks if tok != "+"]
    result = supplements.extend_superbasic(blocks)
    valid = eta.is_eta(result)
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "blocks": [_seq_json(b) for b in blocks],
                    "quiddity": _seq_json(result),
                    "valid": valid,
                }
            )
        )
    else:
        _emit(eta.format_sequence(result) + f"\nvalid quiddity sequence of length {len(result)}: {str(valid).lower()}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    try:
        matrix = sl2.eval_tokens(args.word)
    except ValueError as exc:
        raise InvalidSequenceError(str(exc)) from exc
    order = sl2.element_order(matrix)
    form = sl2.ts_normal_form(matrix)
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "matrix": matrix.rows(),
                    "order": order,
                    "normal_form": str(form),
                }
            )
        )
    else:
        _emit(
            "\n".join(
                [
                    f"matrix: {matrix}",
                    f"order: {order if order is not None else 'infinite'}",
                    f"normal_form: {form}",
                ]
            )
        )
    return EXIT_OK


def cmd_tree(args) -> int:
    seq = eta.parse_sequence(args.sequence)
    t = polygons.from_quiddity(seq)
    root = None
    if args.root:
        try:
            u, v = (int(x) for x in args.root.split(","))
        except ValueError as exc:
            raise InvalidSequenceError(f"--root wants 'u,v', got {args.root!r}") from exc
        root = (u, v)
    tree = polygons.to_dual_tree(t, root_side=root)
    if args.format == "json":
        payload = t.to_json_dict()
        payload["tree"] = polygons.bracket(tree)
        _emit(json.dumps(payload))
    elif args.format == "dot":
        _emit(polygons.tree_to_dot(tree))
    else:
        _emit(
            "\n".join(
                [
                    f"diagonals: {json.dumps([list(d) for d in t.diagonals])}",
                    f"tree: {polygons.bracket(tree)}",
                ]
            )
        )
    return EXIT_OK


def _parse_window(text: str):
    try:
        ipart, jpart = text.split(",")
        i0, i1 = (int(x) for x in ipart.split(":"))
        j0, j1 = (int(x) for x in jpart.split(":"))
    except ValueError as exc:
        raise InvalidSequenceError(f"--window wants 'i0:i1,j0:j1', got {text!r}") from exc
    if i0 > i1 or j0 > j1:
        raise InvalidSequenceError(f"empty window {text!r}")
    return i0, i1, j0, j1


def _load_factors(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return {int(key): int(value) for key, value in raw.items()}
    except (OSError, ValueError, AttributeError) as exc:
        raise InvalidSequenceError(f"cannot read factor file {path!r}: {exc}") from exc


def cmd_tiling(args) -> int:
    i0, i1, j0, j1 = _parse_window(args.window)
    if args.formula_paper:
        window = tiling.formula_window(i0, i1, j0, j1)
    else:
        if not (args.seed and args.kfile and args.lfile):
            raise InvalidSequenceError("need --seed, --kfile and --lfile (or --formula-paper)")
        try:
            a, b, c, d = (int(x) for x in args.seed.split(","))
        except ValueError as exc:
            raise InvalidSequenceError(f"--seed wants 'a,b,c,d', got {args.seed!r}") from exc
        window = tiling.generate_tiling(
            ((a, b), (c, d)), _load_factors(args.kfile), _load_factors(args.lfile), i0, i1, j0, j1
        )
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "i0": window.i0,
                    "i1": window.i1,
                    "j0": window.j0,
                    "j1": window.j1,
                    "positive": window.is_positive,
                    "values": [list(r) for r in window.values],
                }
            )
        )
    else:
        _emit(window.render())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiddity",
        description="Frieze patterns, quiddity sequences and their similarity types.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("verify", help="test a sequence and classify it")
    p.add_argument("sequence")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("frieze", help="print the frieze pattern of a quiddity sequence")
    p.add_argument("sequence")
    add_format(p)
    p.set_defaults(func=cmd_frieze)

    p = sub.add_parser("count", help="count similarity types K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("formula", "brute"), default="formula")
    p.add_argument("--cap", type=int, default=None, help="override the brute-force cap")
    add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("types", help="list one representative per similarity type")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    add_format(p, choices=("text", "json", "dot"))
    p.set_defaults(func=cmd_types)

    p = sub.add_parser("supplement", help="supplement of a basic sequence")
    p.add_argument("sequence")
    add_format(p)
    p.set_defaults(func=cmd_supplement)

    p = sub.add_parser("extend", help="extend super-basic blocks to a quiddity sequence")
    p.add_argument("blocks", nargs="+", help="sequences, optionally separated by +")
    add_format(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("reduce", help="evaluate an S/U word: matrix, order, normal form")
    p.add_argument("word")
    add_format(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("tree", help="triangulation and dual tree of a quiddity sequence")
    p.add_argument("sequence")
    p.add_argument("--root", default=None, help="root side as 'u,v' (default: n-1,0)")
    add_format(p, choices=("text", "json", "dot"))
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("tiling", help="fill a positive SL2-tiling window")
    p.add_argument("--seed", default=None, help="2x2 seed 'a,b,c,d' at cells (0..1, 0..1)")
    p.add_argument("--kfile", default=None, help="JSON file of column factors {j: k_j}")
    p.add_argument("--lfile", default=None, help="JSON file of row factors {i: l_i}")
    p.add_argument("--window", required=True, help="'i0:i1,j0:j1' inclusive")
    p.add_argument("--formula-paper", action="store_true", dest="formula_paper",
                   help="use the built-in closed-form tiling instead of seed+factors")
    add_format(p)
    p.set_defaults(func=cmd_tiling)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except InvalidSequenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotQuiddityError, NotAPositiveTilingError, InconsistentFactorsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
