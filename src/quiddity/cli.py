"""Command-line front end.

One process, one command, deterministic output: identical invocations give
byte-identical text or JSON, so every command is golden-testable.  Exit codes:
0 success, 1 the input is mathematically rejected (not a quiddity sequence, not
a positive tiling), 2 usage or malformed input.  Sequences are comma-separated
without spaces (``2,1,3,1,2``); words use ``S`` and ``U^k`` tokens joined by
``*`` (``U^2*S*U*S``).

The subcommands are the rows of COMMANDS: name, handler, help line, arguments
and the formats offered besides text and json.  A handler computes its answer
and returns the JSON payload and a renderer (a zero-argument callable) per
other format; ``verify`` adds its exit code.  ``main`` alone prints the
requested format and turns errors into the ``error: ...`` line and exit code.

Modules load per command: this module imports only ``sys`` and the exception
types, and each handler imports the package modules it runs, so ``quiddity
tiling`` never loads the similarity or polygon code, and a renderer that alone
needs a module imports it itself (``types --format dot`` loads the polygon
code, text ``types`` does not).  ``json`` loads only for ``--format json`` and
for reading factor files.

``_parse`` reads every line from the rows as the standard library's parser does
and writes usage, help and errors in that parser's 3.11 words at 80 columns,
whatever the terminal.  It refuses with exit 2, before reading on, ``--``, an
abbreviated option (``--met formula``) and ``-h`` with text glued on.
"""

import sys
from types import SimpleNamespace  # loaded at interpreter start

from .errors import (VERIFY_LENGTH_CAP, InconsistentFactorsError, InvalidSequenceError,
                     NotAPositiveTilingError, NotQuiddityError)

EXIT_OK, EXIT_DOMAIN, EXIT_USAGE = 0, 1, 2

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


def cmd_verify(args):
    from . import eta, similarity

    seq = eta.parse_sequence(args.sequence)
    if len(seq) > VERIFY_LENGTH_CAP:  # the orbit pass grows faster than n
        raise InvalidSequenceError(
            f"sequence of {len(seq)} entries, over the limit of {VERIFY_LENGTH_CAP}")
    valid = eta.is_eta(seq)
    report = {"sequence": list(seq), "is_quiddity": valid, "n": len(seq),
              "period": None, "category": None, "canon": None, "orbit_size": None}
    lines = [f"is_quiddity: {str(valid).lower()}", f"n: {len(seq)}"]
    if valid:
        cls, orbit = similarity._describe(seq)  # one dihedral pass for both
        report.update(period=cls.period, category=cls.category,
                      canon=list(orbit.canon), orbit_size=orbit.orbit_size)
        lines += [f"period: {cls.period}", f"category: {cls.category}",
                  f"canon: {eta.format_sequence(orbit.canon)}", f"orbit_size: {orbit.orbit_size}"]
    return report, {"text": lambda: "\n".join(lines)}, EXIT_OK if valid else EXIT_DOMAIN


def cmd_frieze(args):
    from . import eta, frieze

    seq = eta.parse_sequence(args.sequence)
    window = frieze.generate_frieze(seq)  # may raise NotQuiddityError with a cell
    if frieze.has_ones_row(window) != window.n - 1:
        raise NotQuiddityError(f"{eta.format_sequence(seq)} is not a quiddity sequence: "
                               f"no all-ones row at {window.n - 1}")
    payload = {"n": window.n, "rows": [list(r) for r in window.rows]}
    return payload, {"text": lambda: frieze.render_frieze(window)}


def cmd_count(args):
    from . import similarity

    k = similarity.count_types(args.n, method=args.method, cap=args.cap)
    return {"n": args.n, "method": args.method, "K": k}, {"text": lambda: f"K={k}"}


def cmd_types(args):
    from . import eta, similarity

    reps = similarity.enumerate_types(args.n, cap=args.cap)

    def dot():
        from . import polygons

        return "\n".join(polygons.triangulation_to_dot(polygons.from_quiddity(r)) for r in reps)

    return {"n": args.n, "K": len(reps), "types": [list(r) for r in reps]}, {
        "text": lambda: "\n".join([f"K={len(reps)}"] + [eta.format_sequence(r) for r in reps]),
        "dot": dot,
    }


def cmd_supplement(args):
    from . import eta, supplements

    seq = eta.parse_sequence(args.sequence, min_length=1)
    supp = supplements.supplement(seq)
    valid = eta.is_eta(seq + supp)
    payload = {"input": list(seq), "supplement": list(supp), "concatenation_valid": valid}
    text = (f"{eta.format_sequence(supp)}\n"
            f"concatenation is a quiddity sequence: {str(valid).lower()}")
    return payload, {"text": lambda: text}


def cmd_extend(args):
    from . import eta, supplements

    blocks = [eta.parse_sequence(tok, min_length=1) for tok in args.blocks if tok != "+"]
    result = supplements.extend_superbasic(blocks)
    valid = eta.is_eta(result)
    payload = {"blocks": [list(b) for b in blocks], "quiddity": list(result), "valid": valid}
    text = (f"{eta.format_sequence(result)}\n"
            f"valid quiddity sequence of length {len(result)}: {str(valid).lower()}")
    return payload, {"text": lambda: text}


def cmd_reduce(args):
    from . import sl2

    matrix = sl2.eval_tokens(args.word)
    order = sl2.element_order(matrix)
    form = sl2.ts_normal_form(matrix)
    payload = {"matrix": matrix.rows(), "order": order, "normal_form": str(form)}
    return payload, {"text": lambda: f"matrix: {matrix}\norder: "
                     f"{order if order is not None else 'infinite'}\nnormal_form: {form}"}


def cmd_tree(args):
    from . import eta, polygons

    seq = eta.parse_sequence(args.sequence)
    t = polygons.from_quiddity(seq)
    message = f"--root wants 'u,v', got {args.root!r}"
    root = None if args.root is None else _ints(args.root, 2, message)
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


def _refuse_repeated_keys(pairs) -> dict:
    """A JSON object as a dict; json alone would keep the last of two equal keys."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice")
        obj[key] = value
    return obj


def _load_factors(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_refuse_repeated_keys)
        for key, value in raw.items():
            if type(value) not in (int, str):  # int() would truncate 2.7 and take true as 1
                raise ValueError(f"factor {key!r} is {json.dumps(value)}, not an integer")
            if str(int(key)) != key:  # int() also reads "0_0", "+0", " 0" and "\u0660" as 0
                raise ValueError(f"factor index {key!r} is not written as a plain integer")
        return {int(key): int(value) for key, value in raw.items()}
    except RecursionError:
        raise InvalidSequenceError(f"cannot read factor file {path!r}: nested too deeply") from None
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
        window = tiling.generate_tiling(((a, b), (c, d)), _load_factors(args.kfile),
                                        _load_factors(args.lfile), i0, i1, j0, j1)
    payload = {"i0": window.i0, "i1": window.i1, "j0": window.j0, "j1": window.j1,
               "positive": window.is_positive, "values": [list(r) for r in window.values]}
    return payload, {"text": window.render}


def _arg(*flags, **options):
    """(flags, options) of an argument, with an option's dest; an optional one gives a default."""
    dest = {"dest": flags[-1][2:].replace("-", "_")} if flags[0][0] == "-" else {}
    return flags, {**dest, **options}


SEQUENCE = _arg("sequence")
SIZE = _arg("--n", type=int, required=True)

# (name, handler, help, arguments, formats besides text and json)
COMMANDS = (
    ("verify", cmd_verify, "test a sequence and classify it", [SEQUENCE], ()),
    ("frieze", cmd_frieze, "print the frieze pattern of a quiddity sequence", [SEQUENCE], ()),
    ("count", cmd_count, "count similarity types K_n", [
        SIZE, _arg("--method", choices=("formula", "brute"), default="formula"),
        _arg("--cap", type=int, default=None, help="override the brute-force cap")], ()),
    ("types", cmd_types, "list one representative per similarity type",
     [SIZE, _arg("--cap", type=int, default=None)], ("dot",)),
    ("supplement", cmd_supplement, "supplement of a basic sequence", [SEQUENCE], ()),
    ("extend", cmd_extend, "extend super-basic blocks to a quiddity sequence",
     [_arg("blocks", nargs="+", help="sequences, optionally separated by +")], ()),
    ("reduce", cmd_reduce, "evaluate an S/U word: matrix, order, normal form", [_arg("word")], ()),
    ("tree", cmd_tree, "triangulation and dual tree of a quiddity sequence",
     [SEQUENCE, _arg("--root", default=None, help="root side as 'u,v' (default: n-1,0)")],
     ("dot",)),
    ("tiling", cmd_tiling, "fill a positive SL2-tiling window", [
        _arg("--seed", default=None, help="2x2 seed 'a,b,c,d' at cells (0..1, 0..1)"),
        _arg("--kfile", default=None, help="JSON file of column factors {j: k_j}"),
        _arg("--lfile", default=None, help="JSON file of row factors {i: l_i}"),
        _arg("--window", required=True, help="'i0:i1,j0:j1' inclusive"),
        _arg("--formula-paper", action="store_true", default=False,
             help="use the built-in closed-form tiling instead of seed+factors")], ()),
)


_ROWS = {row[0]: row for row in COMMANDS}
_HELP = _arg("-h", "--help", action="help", help="show this help message and exit")
_TOP = [_HELP, _arg("command", choices=tuple(_ROWS), nargs="...")]  # "...": it reads the rest
DESCRIPTION = "Frieze patterns, quiddity sequences and their similarity types."


def _texts(prog, arguments):
    """(usage, help) of ``prog``, worded and wrapped as the standard parser writes them."""
    def fill(words, line, indent):  # break before a word that would pass column 78
        lines = []
        for word in words:
            if len(line) + 1 + len(word) > 78 and line.strip():
                lines, line = lines + [line], " " * (indent - 1)
            line += " " + word
        return lines + [line] if line.strip() else lines

    def entry(head, text):  # the help text from column 24, below a longer head
        start = [head, " " * 23] if len(head) > 22 else [head.ljust(23)]
        return start[:-1] + fill(text.split(), start[-1], 24) if text else [head]

    opts, pos, sections = [], [], {"positional arguments:": [], "options:": []}
    for flags, spec in arguments:
        meta = spec.get("dest", flags[0])
        meta = "{%s}" % ",".join(spec["choices"]) if "choices" in spec else meta
        if flags[0][0] == "-":
            meta = "" if "action" in spec else " " + (meta if "choices" in spec else meta.upper())
            opts += (flags[0] + meta).split() if spec.get("required") else [f"[{flags[0]}{meta}]"]
            sections["options:"] += entry("  " + ", ".join(flags) + meta, spec.get("help"))
            continue
        nargs = spec.get("nargs")
        pos += [meta] + {"+": [f"[{meta} ...]"], "...": ["..."]}.get(nargs, [])
        sections["positional arguments:"] += entry("  " + meta, spec.get("help")) + [
            line for row in COMMANDS if nargs == "..." for line in entry("    " + row[0], row[2])]
    usage = " ".join(["usage:", prog, *opts, *pos])
    if len(usage) > 78:  # the options, then the positionals, each wrapped below the name
        indent = len(prog) + 8
        usage = "\n".join(fill(opts, "usage: " + prog, indent)
                          + fill(pos, " " * (indent - 1), indent))
    blocks = [usage] + [DESCRIPTION] * (prog == "quiddity") + [
        head + "\n" + "\n".join(lines) for head, lines in sections.items() if lines]
    return usage, "\n\n".join(blocks) + "\n"


def _read(prog, arguments, tokens, values):
    """Fill ``values`` from ``tokens`` as the standard parser would; return the extras."""
    def fail(message):
        sys.stderr.write(f"{_texts(prog, arguments)[0]}\n{prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)

    def check(flags, spec, text):  # the type and choices checks
        name, kind, choices = "/".join(flags), spec.get("type", str), spec.get("choices")
        try:
            text = kind(text)
        except ValueError:
            fail(f"argument {name}: invalid {kind.__name__} value: {text!r}")
        if choices and text not in choices:
            listed = ", ".join(map(repr, choices))
            fail(f"argument {name}: invalid choice: {text!r} (choose from {listed})")
        return text

    def value(token):  # the standard rule: no option, or a negative number or text with a space
        return token.partition("=")[0] not in options and (len(token) < 2 or token[0] != "-"
            or " " in token or token[1:].replace(".", "", 1).isdecimal() and token[-1] != ".")

    options = {flag: (flags, spec) for flags, spec in arguments if flags[0][0] == "-"
               for flag in flags}
    positional = next(((flags, spec) for flags, spec in arguments if flags[0][0] != "-"), None)
    nargs, extras, run, closed = positional and positional[1].get("nargs"), [], [], False
    values.update((spec["dest"], spec["default"]) for _, spec in arguments if "default" in spec)
    for token in tokens:  # refused before anything is read, as 3.11 refuses an ambiguous option
        flag = token.partition("=")[0]
        if flag not in options and (flag[:2] == "-h" or flag[:2] == "--"
                                    and any(name.startswith(flag) for name in options)):
            fail(f"{flag} is not read: write options in full, values starting with - as --opt=value")
        if nargs == "..." and value(token):
            break
    tokens = iter(tokens)
    for token in tokens:
        if value(token) and positional and not (run and (closed or nargs != "+")):
            run.append(check(*positional, token))
            values[positional[0][0]] = run if nargs == "+" else run[0]
            if nargs == "...":  # the command reads the rest of the line
                name, values["func"], _, rows, formats = _ROWS[token]
                fmt = _arg("--format", choices=("text", "json") + formats, default="text")
                extras += _read(f"{prog} {name}", [_HELP, *rows, fmt], list(tokens), values)
            continue
        flag, eq, text = token.partition("=")
        closed = bool(run)
        if flag not in options:
            extras.append(token)
            continue
        flags, spec = options[flag]
        action = spec.get("action")
        if action and eq:
            fail(f"argument {'/'.join(flags)}: ignored explicit argument {text!r}")
        if action == "help":
            sys.stdout.write(_texts(prog, arguments)[1])
            raise SystemExit(EXIT_OK)
        if not (action or eq or value(text := next(tokens, "--"))):
            fail(f"argument {'/'.join(flags)}: expected one argument")
        values[spec["dest"]] = True if action else check(flags, spec, text)
    missing = ["/".join(flags) for flags, spec in arguments if spec.get("dest", flags[0])
               not in values and spec.get("required", flags[0][0] != "-")]
    if missing:
        fail("the following arguments are required: " + ", ".join(missing))
    if extras and nargs == "...":
        fail("unrecognized arguments: " + " ".join(extras))
    return extras


def _parse(argv):
    """The namespace of a command line; help and errors are written, then SystemExit."""
    values = {}
    _read("quiddity", _TOP, list(argv), values)
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0 (no limit) before 3.10.7
    try:
        payload, renderers, *code = args.func(args)
        if digits:  # the input was read under Python's limit; the answer may pass it
            sys.set_int_max_str_digits(0)
        if args.format == "json":
            import json  # loaded here, so text output never pays for it
        text = json.dumps(payload) if args.format == "json" else renderers[args.format]()
    except (*DOMAIN_ERRORS, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, DOMAIN_ERRORS) else EXIT_USAGE
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
    sys.stdout.write(text + "\n")
    return code[0] if code else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
