#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload batch-mem --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark (perfbench/, a CMake
project on top of the library in the parent directory) is built into
$CARGO_TARGET_DIR (default .bench_build) on first use. The last line of
standard output is the result: one JSON object with every end-to-end
metric named in BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1). A failed correctness gate, a missing metric, or a workload
that did not run exits nonzero and prints no result.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch-mem", "serve-cssd", "remote-update")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build incrementally. Build output goes to stderr."""
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4",
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the smoke test only")
    ap.add_argument("--inject", choices=("truncate", "removed"),
                    help="corrupt an observed answer: the gates must fail")
    args = ap.parse_args()

    # The benchmark builds the library from the checkout it sits in.
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {HERE.name}/ (expected {ROOT}/src)", 2)
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found", 2)
    os.chdir(ROOT)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    build_dir = build_dir if build_dir.is_absolute() else ROOT / build_dir
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative: a UNIX socket path must stay under 108 bytes.
           "--work-dir", os.path.relpath(work_dir, ROOT)]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last line is not a JSON result")
    want = expected_metrics(args.trace == 1)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, wrong unit {wrong}")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            result["correct"] is not True or result["attempted"] < 1:
        fail("malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
