"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny size, untraced and traced, and asserts that
every metric named in BENCHMARK.json is printed with its unit and that no
op fails.  Then substitutes a fake that answers wrongly for one package
function per workload and asserts that the wrong answers are counted as
failed ops.  On cli the fake runs inside the CLI processes (through
cli_shim.py) and in the in-process reference, so an oracle has to catch
the wrong printed answer.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# One function per workload whose wrong answer an oracle must catch.
FAKES = {
    "enumerate": "similarity.count_types",
    "formula": "similarity.count_types",
    "queries": "eta.is_eta",
    "cli": "similarity.count_types",
}


def require(condition, *context):
    if not condition:
        raise AssertionError(" ".join(map(str, context)))


def run(workload, trace, fake=None):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if fake:
        cmd += ["--fake", fake]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    require(proc.returncode == 0, " ".join(cmd), "exited", proc.returncode, proc.stderr[-1000:])
    lines = proc.stdout.strip().splitlines()
    reasons = [line.split("failed: ", 1)[1] for line in lines if line.startswith("    failed: ")]
    return json.loads(lines[-1]), reasons


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in FAKES:
        for trace, metrics in expected.items():
            result, _ = run(workload, trace)
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
            require(result["correct"] and result["failed"] == 0, workload, trace, result)
            require(result["attempted"] >= 1, workload, trace, result)
            for metric in metrics:
                got = result["metrics"].get(metric["name"])
                require(got is not None, workload, f"trace={trace}:", metric["name"], "missing")
                require(got["unit"] == metric["unit"], metric, got)
                require(isinstance(got["value"], (int, float)), metric, got)
            names = {m["name"] for m in metrics}
            require(set(result["metrics"]) == names, set(result["metrics"]) ^ names)
        faked, reasons = run(workload, 0, fake=FAKES[workload])
        require(faked["failed"] >= 1 and not faked["correct"], workload, faked)
        # the fake answers wrongly in the CLI process and in the in-process
        # reference alike, so an oracle, not the comparison, must catch it
        require(reasons and not any("in-process" in r for r in reasons), workload, reasons)
        print(f"ok  {workload}: metrics present, {faked['failed']} of "
              f"{faked['attempted']} ops failed under a fake {FAKES[workload]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
