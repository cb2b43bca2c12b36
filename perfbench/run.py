#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper16 --seed 1 --seconds 35 --trace 0

Builds perfbench/ (the simulator sources plus the benchmark program in bench.cc)
under $CARGO_TARGET_DIR (default .bench_build), runs one workload, and
prints its report. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its
per_layer ones. Exits non-zero, without a result line, when the build or
the run fails or the result does not carry exactly those metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKLOADS = ("paper16", "serve64", "scale256")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-G", "Ninja",
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    )
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    build(build_dir)

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--reference", str(HERE / "reference")]
    if args.trace:
        cmd += ["--spans", str(build_dir / f"spans-{args.workload}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"perfbench exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        fail("perfbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}")

    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
