#!/usr/bin/env python3
"""Builds the benchmark from source (first use) and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fit-text --seed 1 --seconds 12 --trace 0

The build goes to .bench_build/ at the repository root. The last line of
standard output is the result JSON; see perfbench/README.md.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fit-text", "fit-image", "serve-mixed", "tune-grid")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"{what} failed (exit {proc.returncode})")


def build(root):
    """Configures and builds perfbench/ into .bench_build/perfbench."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no keystone sources under {root / 'src'}")
    build_dir = root / ".bench_build" / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    # Serializes concurrent runs in one checkout around the build.
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").is_file():
            run_quiet(["cmake", "-S", str(root / "perfbench"),
                       "-B", str(build_dir)], "cmake configure")
        jobs = str(len(os.sched_getaffinity(0)))
        run_quiet(["cmake", "--build", str(build_dir), "-j", jobs],
                  "cmake build")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(binary.parent / "scratch")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"{args.workload} exited with {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
