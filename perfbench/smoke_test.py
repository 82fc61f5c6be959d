#!/usr/bin/env python3
"""Tiny-scale smoke run of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload briefly on small inputs (--tiny), untraced and
traced, and checks that each prints every metric BENCHMARK.json names,
with its unit, as a well-formed result line. Then checks that the gates
run: a truncated answer and a removed id reported as returned must each
fail the run with a nonzero exit and no result line. Exits nonzero on
the first failure.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# remote-update is not in the measured set (see README.md) but keeps its gates.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["remote-update"]


def run(workload, trace, inject=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def check_result(workload, trace):
    proc = run(workload, trace)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    rows = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for m in rows:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            sys.exit(f"FAIL {workload} trace={trace}: metric {m['name']} missing or malformed")
    if result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {workload} trace={trace}: {result['failed']} of "
                 f"{result['attempted']} operations failed")
    print(f"ok   {workload} trace={trace}: {len(rows)} metrics, "
          f"{result['attempted']} operations")


def check_gate(workload, inject):
    proc = run(workload, 0, inject)
    printed = any(line.startswith("{") for line in proc.stdout.splitlines())
    if proc.returncode == 0 or printed or "GATE FAILED" not in proc.stderr:
        sys.exit(f"FAIL {workload} --inject {inject}: the gate did not stop the run")
    print(f"ok   {workload} --inject {inject}: rejected")


def main():
    for w in WORKLOADS:
        for trace in (0, 1):
            check_result(w, trace)
    for w in WORKLOADS:
        check_gate(w, "truncate")
        check_gate(w, "removed")
    print("smoke test passed")


if __name__ == "__main__":
    main()
