"""One repetition of a workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload queries --seed 1 --work-dir DIR

Imports the package from ``src/`` (``PYTHONPATH`` is set by run.py),
generates the seeded inputs, runs the whole input set once and checks every
answer against the oracles.  Prints one JSON object on stdout.  A fresh
process per repetition means a cache inside the package can help only
within one pass over the inputs, which is what one CLI user gets.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
# The package is imported first, so that the stdlib modules it needs are
# loaded (and timed) by its own import, as in a user's fresh process.
import quiddity  # noqa: E402
from quiddity import (  # noqa: E402
    errors, eta, frieze, polygons, similarity, sl2, supplements, tiling,
)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from fakes import install_fake  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, Tracer, merge_aggregates  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLI_TIMEOUT_S = 60


def check_package_source():
    src = (ROOT / "src").resolve()
    if Path(quiddity.__file__).resolve().parent.parent != src:
        raise SystemExit(f"quiddity imported from {quiddity.__file__}, not from {src}")


# -- library calls, one op each -----------------------------------------------

def run_library_op(op):
    """The op's library calls; returns what the checks need.

    Calls go through module attributes, so the tracer's wrappers see them.
    """
    kind = op["type"]
    if kind == "sweep":
        n = op["n"]
        return (similarity.count_types(n, method="brute"), similarity.enumerate_types(n),
                similarity.count_TSA_brute(n))
    if kind == "k_n":
        n = op["n"]
        return (similarity.count_types(n), similarity.count_TSA(n),
                similarity.perfect_tripartitions(n))
    if kind == "verify":
        seq = op["seq"]
        valid = eta.is_eta(seq)
        by_contraction = eta.is_eta_by_contraction(seq)
        if not valid:
            return valid, by_contraction, None, None
        return valid, by_contraction, similarity.classify(seq), similarity.canonicalize(seq)
    if kind == "frieze":
        window = frieze.generate_frieze(op["seq"])
        ones = frieze.has_ones_row(window)
        matrix = None
        if ones == window.n - 1 and window.n <= workloads.MATRIX_FRIEZE_MAX_N:
            matrix = frieze.generate_matrix_frieze(op["seq"])
        return window, ones, matrix
    if kind == "tree":
        n = op["n"]
        t = polygons.from_quiddity(op["seq"])
        tree = polygons.to_dual_tree(t, root_side=(op["root"], (op["root"] + 1) % n))
        return polygons.tree_quiddity(tree)
    if kind == "reduce":
        m = sl2.eval_tokens(op["word"])
        return m, sl2.element_order(m), sl2.ts_normal_form(m)
    if kind == "supplement":
        return supplements.supplement(op["basic"])
    if kind == "extend":
        return supplements.extend_superbasic(op["blocks"])
    if kind == "tiling":
        i0, i1, j0, j1 = op["window"]
        window = tiling.formula_window(i0, i1, j0, j1)
        factors = tiling.extract_factors(window)
        seed = ((window.value(0, 0), window.value(0, 1)), (window.value(1, 0), window.value(1, 1)))
        return window, factors, tiling.generate_tiling(seed, factors.k, factors.l, i0, i1, j0, j1)
    if kind == "embed":
        return supplements.is_embeddable(op["query"])
    raise ValueError(f"unknown op type {kind!r}")


# Rejections the package documents for invalid input; anything else raised
# by an op is a failure.
REJECTED_WHEN_INVALID = {"frieze", "tree"}


def check_library_op(op, result):
    """None when the answer is right, else a one-line reason."""
    kind = op["type"]
    n = op.get("n")
    if kind == "sweep":
        k, types, tsa = result
        if k != oracles.burnside_k(n):
            return f"brute K_{n}={k}"
        if len(types) != oracles.burnside_k(n):
            return f"{len(types)} types for n={n}"
        if any(a >= b for a, b in zip(types, types[1:])):
            return "types not strictly sorted"
        for rep in types:
            if not oracles.is_quiddity(rep) or oracles.dihedral_canon(rep)[0] != rep:
                return f"{rep} is not a canonical quiddity sequence"
        # T_n of the brute count is the number of iter_quiddities items
        return None if tuple(tsa) == oracles.tsa(n) else f"TSA_{n}={tsa}"
    if kind == "k_n":
        k, tsa, tripartitions = result
        if k != oracles.burnside_k(n):
            return f"K_{n}={k}"
        if tuple(tsa) != oracles.tsa(n):
            return f"TSA_{n}={tsa}"
        parts = [tp.parts() for tp in tripartitions]
        expected = oracles.perfect_tripartitions(n)
        return None if len(parts) == len(expected) and set(parts) == expected else "tripartitions"
    if kind == "verify":
        valid, by_contraction, cls, orbit = result
        if valid != op["valid"] or by_contraction != op["valid"]:
            return f"is_eta={valid} contraction={by_contraction} for {op['seq']}"
        if valid:
            canon, size = oracles.dihedral_canon(op["seq"])
            if cls.period != oracles.least_period(op["seq"]):
                return f"period {cls.period}"
            if (orbit.canon, orbit.orbit_size) != (canon, size):
                return f"canonicalize {orbit}"
        return None
    if kind == "frieze":
        window, ones, matrix = result
        if not op["valid"]:
            return None if ones != n - 1 else "invalid sequence has a frieze"
        if ones != n - 1 or window.rows[2] != op["seq"]:
            return f"ones row {ones} for n={n}"
        if matrix is not None:
            seq = op["seq"]
            for i in range(1, n + 1):
                for j in range(n):
                    word = oracles.IDENTITY
                    for t in range(i):  # U^{a_{i+j-1}} S ... S U^{a_j}
                        if t:
                            word = oracles.mul(word, oracles.S)
                        word = oracles.mul(word, oracles.u_pow(seq[(i + j - 1 - t) % n]))
                    cell = matrix.cells[i][j]
                    if (cell.a, cell.b, cell.c, cell.d) != word:
                        return f"matrix frieze cell ({i},{j})"
        return None
    if kind == "tree":
        start = (op["root"] + 1) % n
        expected = op["seq"][start:] + op["seq"][:start]
        return None if op["valid"] and result == expected else f"tree round trip {result}"
    if kind == "reduce":
        m, order, form = result
        value = (m.a, m.b, m.c, m.d)
        if value != oracles.eval_tokens(op["word"]):
            return f"eval_tokens {m}"
        if not oracles.order_ok(value, order):
            return f"order {order} of {m}"
        if oracles.eval_normal_form(str(form)) != value:
            return f"normal form {form} of {m}"
        return None
    if kind == "supplement":
        basic = op["basic"]
        if not oracles.is_quiddity(basic + result):
            return f"supplement {result} of {basic}"
        if supplements.supplement(result) != basic:
            return "supplement is not an involution"
        if supplements.supplement_by_runs(basic) != result:
            return "supplement_by_runs disagrees"
        return None
    if kind == "extend":
        head = sum((tuple(b) for b in op["blocks"]), ())
        ok = result[: len(head)] == head and oracles.is_quiddity(result)
        return None if ok else f"extend {result}"
    if kind == "tiling":
        window, factors, regenerated = result
        i0, i1, j0, j1 = op["window"]
        grid = tuple(tuple(oracles.formula_tiling(i, j) for j in range(j0, j1 + 1))
                     for i in range(i0, i1 + 1))
        k = {j: oracles.tiling_factor(j) for j in range(j0 + 1, j1)}
        l = {i: oracles.tiling_factor(i) for i in range(i0 + 1, i1)}
        if window.values != grid or regenerated.values != grid:
            return "tiling values"
        return None if (factors.k, factors.l) == (k, l) else "tiling factors"
    if kind == "embed":
        if result.embeddable is not op["embeddable"]:
            return f"is_embeddable={result.embeddable} for {op['query']}"
        if result.embeddable:
            w, q = result.witness, op["query"]
            if w[: len(q)] != q or len(w) < len(q) + 2 or not oracles.is_quiddity(w):
                return f"bad witness {w}"
        return None
    return f"unknown op type {kind!r}"


def check_outcome(op, outcome):
    """None when the op's outcome is right, else a one-line reason."""
    if "argv" in op:
        return check_cli(op["argv"], Path(op["reference"]), *outcome)
    status, value = outcome
    if status == "ok":
        return check_library_op(op, value)
    return None if status == "rejected" else value


# -- CLI processes -------------------------------------------------------------

def run_cli(argv, trace_out=None, fake=None):
    """Exit code and stdout of one CLI process.

    Traced and faked runs start cli_shim.py with ``-m`` too, so both pay for
    runpy and the difference from the plain command is the tracing alone.
    A faked process answers wrongly the same way as the in-process
    reference, so only an oracle can catch it.
    """
    env = None
    cmd = [sys.executable, "-m", "quiddity.cli", *argv]
    if trace_out is not None or fake is not None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.environ["PYTHONPATH"], str(BENCH_DIR)]))
        options = []
        if trace_out is not None:
            options += ["--trace", str(trace_out)]
        if fake is not None:
            options += ["--fake", fake]
        cmd = [sys.executable, "-m", "cli_shim", *options, "--", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def in_process_cli(argv, path):
    """Exit code and stdout of main(argv) in process.

    Computed by the first repetition of a run and kept in ``path`` for the
    later ones, which then spend their time on the measured processes.
    """
    if path.is_file():
        ref = json.loads(path.read_text())
        return ref["code"], ref["stdout"].encode()
    from quiddity import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    path.write_text(json.dumps({"code": code, "stdout": out.getvalue()}))
    return code, out.getvalue().encode()


def seq_of(text):
    return tuple(int(x) for x in text.split(","))


def check_cli(argv, reference, code, stdout):
    """The process must print what main() prints in process, and be right."""
    want_code, want = in_process_cli(argv, reference)
    if (code, stdout) != (want_code, want):
        return f"stdout/exit differ from in-process main (exit {code} vs {want_code})"
    return check_cli_output(argv, code, stdout.decode())


def check_cli_output(argv, code, text):
    """Oracle checks on what a CLI command printed."""
    cmd = argv[0]
    lines = text.splitlines()
    first = lines[0] if lines else ""
    if cmd == "verify":
        seq = seq_of(argv[1])
        valid = oracles.is_quiddity(seq)
        if code != (0 if valid else 1):
            return f"exit {code}"
        if "--format" in argv:
            return None if json.loads(text)["is_quiddity"] == valid else "verify json"
        canon = ",".join(map(str, oracles.dihedral_canon(seq)[0]))
        return None if f"canon: {canon}" in lines else "verify canon"
    if code != 0:
        return f"exit {code}"
    if cmd == "frieze":
        n = len(seq_of(argv[1]))
        ok = len(lines) == n - 1 and set(lines[-1].split()) == {"1"}
        return None if ok else "frieze rows"
    if cmd == "count":
        n = int(argv[2])
        k = json.loads(text)["K"] if "--format" in argv else int(first.split("=")[1])
        return None if k == oracles.burnside_k(n) else f"K_{n}={k}"
    if cmd == "types":
        k = oracles.burnside_k(int(argv[2]))
        return None if first == f"K={k}" and len(lines) == k + 1 else "types"
    if cmd == "supplement":
        return None if oracles.is_quiddity(seq_of(argv[1]) + seq_of(first)) else "supplement"
    if cmd == "extend":
        w = seq_of(first)
        head = seq_of(argv[1]) + seq_of(argv[3])
        return None if w[: len(head)] == head and oracles.is_quiddity(w) else "extend"
    if cmd == "reduce":
        a, b, c, d = oracles.eval_tokens(argv[1])
        return None if first == f"matrix: [[{a},{b}],[{c},{d}]]" else "reduce matrix"
    if cmd == "tree":
        return None if first.startswith("digraph") else "tree dot"
    if cmd == "tiling":
        i0, i1, j0, j1 = workloads.parse_window(argv)
        grid = [[oracles.formula_tiling(i, j) for j in range(j0, j1 + 1)]
                for i in range(i0, i1 + 1)]
        got = [[int(x) for x in line.split()] for line in lines]
        return None if got == grid else "tiling values"
    return f"unknown command {cmd!r}"


# -- per-layer metrics -----------------------------------------------------------

def layer_metrics(merged, cli_stats):
    """Per-layer metrics from merged (parent, function) aggregates."""
    fn = {}
    for (_, name), row in merged.items():
        acc = fn.setdefault(name, dict.fromkeys(row, 0))
        for field, v in row.items():
            acc[field] += v

    def get(name, field):
        return fn.get(name, {}).get(field, 0)

    def per_call(name, scale):
        calls = get(name, "calls")
        return get(name, "total_s") / calls * scale if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("sl2.eval_tokens", "sl2.element_order", "sl2.ts_normal_form",
                 "eta.is_eta", "eta.is_eta_by_contraction", "frieze.generate_frieze",
                 "frieze.generate_matrix_frieze", "tiling.extract_factors",
                 "tiling.generate_tiling", "polygons.from_quiddity", "polygons.to_dual_tree",
                 "supplements.supplement", "supplements.extend_superbasic"):
        m[f"{name}.us_per_call"] = per_call(name, 1e6)
    m["sl2.products_computed"] = get("eta.is_eta", "work")
    m["eta.is_eta.calls"] = get("eta.is_eta", "calls")
    m["eta.is_eta.self_s"] = get("eta.is_eta", "self_s")
    m["eta.is_eta.valid_ratio"] = ratio(get("eta.is_eta", "useful"), get("eta.is_eta", "calls"))
    m["frieze.generate_frieze.cells_per_s"] = ratio(get("frieze.generate_frieze", "work"),
                                                   get("frieze.generate_frieze", "total_s"))
    items = get("polygons.iter_quiddities", "items")
    m["polygons.iter_quiddities.items"] = items
    m["polygons.iter_quiddities.self_s"] = get("polygons.iter_quiddities", "self_s")
    m["polygons.iter_quiddities.ns_per_item"] = ratio(
        get("polygons.iter_quiddities", "self_s") * 1e9, items)
    m["supplements.is_embeddable.self_s"] = get("supplements.is_embeddable", "self_s")
    m["supplements.is_embeddable.candidates"] = merged.get(
        ("supplements.is_embeddable", "eta.is_eta"), {}).get("calls", 0)
    m["supplements.is_embeddable.decided_ratio"] = ratio(
        get("supplements.is_embeddable", "useful"), get("supplements.is_embeddable", "calls"))
    m["similarity.canonical_form.calls"] = get("similarity.canonical_form", "calls")
    m["similarity.canonical_form.self_s"] = get("similarity.canonical_form", "self_s")
    m["similarity.canonical_form.ns_per_call"] = per_call("similarity.canonical_form", 1e9)
    for name in ("compose", "brute_type_set", "enumerate_types", "case_count",
                 "perfect_tripartitions", "count_types"):
        m[f"similarity.{name}.self_s"] = get(f"similarity.{name}", "self_s")
    m["similarity.catalan.calls"] = get("similarity.catalan", "calls")
    for module in MODULES:
        m[f"{module}.self_s"] = sum(row["self_s"] for name, row in fn.items()
                                    if name.startswith(module + "."))
    m["cli.import_ms"] = statistics.fmean(cli_stats["import_s"]) * 1e3 if cli_stats else 0.0
    m["cli.main_ms"] = statistics.fmean(cli_stats["main_s"]) * 1e3 if cli_stats else 0.0
    return m


# -- main ------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fake", default=None, help="module.function to answer wrongly")
    parser.add_argument("--work-dir", required=True, help="scratch directory for files")
    args = parser.parse_args(argv)
    # a CLI child is killed and reaped if this worker is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    check_package_source()
    t = time.perf_counter()
    ops, properties = workloads.generate(args.workload, args.seed, args.scale)
    if args.workload == "cli":
        work = Path(args.work_dir)
        work.mkdir(parents=True, exist_ok=True)
        paths = {"{kfile}": work / "k.json", "{lfile}": work / "l.json"}
        for i, op in enumerate(ops):
            op["reference"] = str(work / f"reference-{i}.json")
            if "{kfile}" in op["argv"]:
                k, l = workloads.factor_files(op["argv"])
                paths["{kfile}"].write_text(json.dumps(k))
                paths["{lfile}"].write_text(json.dumps(l))
            op["argv"] = [str(paths.get(a, a)) for a in op["argv"]]
    out = {"setup_s": IMPORT_S + time.perf_counter() - t, "import_s": IMPORT_S}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.fake:
        install_fake(args.fake)
    tracer = Tracer()
    if args.trace and args.workload != "cli":
        tracer.install(modules=[m for m in MODULES if m != "cli"])
    tracer.active = bool(args.trace)

    # Each op is checked right after it is timed, with tracing paused, and
    # its result is then dropped: checks stay out of wall_s, and results
    # kept for checking do not pile up in the peak memory.
    latencies, failures = [], []
    clock = time.perf_counter
    cli_stats = trace_out = None
    if args.workload == "cli":
        cli_stats = {"import_s": [], "main_s": [], "exports": []}
        if args.trace:
            trace_out = Path(args.work_dir) / "shim.json"
    for op in ops:
        if trace_out is not None:
            trace_out.unlink(missing_ok=True)
        with tracer.span("op." + op["type"]):
            t = clock()
            if cli_stats is not None:
                outcome = run_cli(op["argv"], trace_out, args.fake)
            else:
                try:
                    outcome = ("ok", run_library_op(op))
                except Exception as exc:  # every op failure is counted, none stops the run
                    rejected = (op["type"] in REJECTED_WHEN_INVALID and not op["valid"]
                                and isinstance(exc, errors.NotQuiddityError))
                    outcome = ("rejected" if rejected else "error", repr(exc))
            latencies.append(clock() - t)
        tracer.active = False
        reason = check_outcome(op, outcome)
        outcome = None
        if reason is not None:
            failures.append(f"{op['type']}: {reason}")
        if trace_out is not None:
            shim = json.loads(trace_out.read_text())
            for key in ("import_s", "main_s"):
                cli_stats[key].append(shim[key])
            cli_stats["exports"].append(shim["trace"])
        tracer.active = bool(args.trace)
    tracer.active = False
    who = resource.RUSAGE_CHILDREN if cli_stats is not None else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss

    out.update(
        wall_s=sum(latencies),
        latencies_ms=[x * 1e3 for x in latencies],
        units=sum(op["units"] for op in ops),
        attempted=len(ops),
        failed=len(failures),
        failures=failures[:10],
        peak_rss_mb=peak_kb / 1024,
        properties=properties,
    )
    if args.trace:
        own = tracer.export()
        merged = merge_aggregates([own] + (cli_stats["exports"] if cli_stats else []))
        out["layer"] = layer_metrics(merged, cli_stats)
        out["trace"] = {
            "aggregates": [{"parent": p, "name": n, **row} for (p, n), row in sorted(merged.items())],
            "spans": own["spans"],
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
