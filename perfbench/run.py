"""The quiddity benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` with no install.  Each repetition of the workload's input set runs
in a fresh interpreter (perfbench/worker.py), one at a time, until
``--seconds`` are used up.  With ``--trace 0`` the last stdout line is the
end-to-end result; with ``--trace 1`` repetitions alternate untraced and
traced, and the last line holds the per-layer metrics and trace.overhead_s.
Every answer is checked against an independent oracle.  A full record
(environment, workload properties, metrics, spans) is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

WORKER_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 9
INTERPRETER_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {"calls": "count", "items": "count", "candidates": "count",
                   "products_computed": "count", "valid_ratio": "ratio",
                   "decided_ratio": "ratio", "cells_per_s": "1/s", "self_s": "s",
                   "overhead_s": "s", "us_per_call": "us", "ns_per_call": "ns",
                   "ns_per_item": "ns", "import_ms": "ms", "main_ms": "ms",
                   "interpreter_ms": "ms"}


def per_layer_unit(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("FRIEZE_BRUTE_CAP", None)  # measure the shipped caps
    return env


def run_worker(args, work_dir, trace, setup_only=False):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--trace", str(trace),
           "--work-dir", str(work_dir)]
    if setup_only:
        cmd.append("--setup-only")
    if args.fake:
        cmd += ["--fake", args.fake]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def interpreter_start_ms():
    """Fastest start of ``python -c pass``: the floor under every CLI call."""
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        samples.append((time.perf_counter() - t) * 1e3)
    return min(samples)


def stop_on_sigterm():
    """Turn SIGTERM into SystemExit, so subprocess.run kills and reaps its child."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def git_sha():
    """HEAD of the checkout, read from .git without leaving it; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure(args, work_dir):
    """Repetitions until --seconds are used; returns the worker outputs."""
    plain, traced = [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        trace = 1 if args.trace and len(traced) < len(plain) else 0
        t = time.perf_counter()
        (traced if trace else plain).append(run_worker(args, work_dir, trace))
        last = max(last, time.perf_counter() - t)
        done = time.perf_counter() - start + last > args.seconds
        if done and (not args.trace or traced):
            break
    return plain, traced


def best_latencies(reps):
    """Each op's fastest time over repetitions of the same input set, in ms.

    The CPU of a shared machine slows down by up to half for seconds at a
    time.  As timeit takes the best of its repeats, an op's fastest
    repetition is its latency with that interference filtered out.
    """
    return [min(lat) for lat in zip(*(out["latencies_ms"] for out in reps))]


def summarize(plain, traced, setups):
    """End-to-end and per-layer metrics from the repetitions of one run.

    wall_s is the input set's time with each op at its fastest repetition;
    op_p50_ms and op_p90_ms are percentiles of those per-op latencies.
    """
    best = best_latencies(plain)
    wall = sum(best) / 1e3
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": plain[0]["units"] / wall,
        "op_p50_ms": percentile(best, 50),
        "op_p90_ms": percentile(best, 90),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in plain),
    }
    layer = {}
    if traced:
        for name in traced[0]["layer"]:
            layer[name] = statistics.median(out["layer"][name] for out in traced)
        layer["trace.overhead_s"] = sum(best_latencies(traced)) / 1e3 - wall
    return e2e, layer, len(best)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one quiddity benchmark workload.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                        help="input size; 'tiny' is for the smoke check")
    parser.add_argument("--fake", default=None,
                        help="module.function to answer wrongly (smoke check only)")
    args = parser.parse_args(argv)
    stop_on_sigterm()

    if not (ROOT / "src" / "quiddity" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'quiddity'}", file=sys.stderr)
        return 2

    results_dir = BENCH_DIR / "results"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = results_dir / f"work-{tag}-{os.getpid()}"
    try:
        interp_ms = interpreter_start_ms()
        plain, traced = measure(args, work_dir)
        setups = [out["setup_s"] for out in plain + traced]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_worker(args, work_dir, 0, setup_only=True)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e, layer, ops = summarize(plain, traced, setups)
    if traced:
        layer["cli.interpreter_ms"] = interp_ms
    runs = plain + traced
    attempted = sum(out["attempted"] for out in runs)
    failed = sum(out["failed"] for out in runs)
    failures = sorted({f for out in runs for f in out["failures"]})[:20]
    props = runs[0]["properties"]

    print(f"workload {args.workload} (seed {args.seed}): {props['why']}")
    print(f"  repetitions: {len(plain)} untraced, {len(traced)} traced; latency percentiles "
          f"over {ops} ops, each its fastest of {len(plain)}; ops unit: {props['ops_unit']}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {e2e[name]:.6g} {unit}")
    print(f"  error_rate   {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    for failure in failures:
        print(f"    failed: {failure}")
    if traced:
        print(f"  trace.overhead_s {layer['trace.overhead_s']:.6g} s; self time per module:")
        for module in ("sl2", "eta", "frieze", "tiling", "polygons", "supplements",
                       "similarity", "cli"):
            print(f"    {module:<12} {layer[module + '.self_s']:.6g} s")
        for name, value in layer.items():
            print(f"  {name} {value:.6g} {per_layer_unit(name)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "interpreter_start_ms": interp_ms,
        },
        "properties": props,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "op_latency_samples": ops,
        "end_to_end": e2e,
        "error_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "per_layer": layer,
        "trace": traced[-1]["trace"] if traced else None,
    }
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))

    chosen = layer if args.trace else e2e
    metrics = {name: {"value": value,
                      "unit": per_layer_unit(name) if args.trace else END_TO_END[name]}
               for name, value in chosen.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
