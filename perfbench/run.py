#!/usr/bin/env python3
"""Build and run the revec end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_flow|fast_compile|svc_stream \
        --seed N --seconds S --trace 0|1 [--tiny]

Configures and builds perfbench/ (the revec libraries from src/ plus the
revec_perfbench binary, Release) into the build directory, then runs the
binary with the same arguments. The build directory is $CARGO_TARGET_DIR
when set, else .bench_build; build output goes to standard error, so the
last line of standard output is the binary's JSON result. Exits non-zero
without a result when the build or the run fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "revec_perfbench"


def build(build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", BINARY, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, BINARY)


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    # The determinism check compares a run with earlier same-seed runs of
    # the same binary only: a code change may change the exact counters.
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    state_dir = os.path.join(build_dir, "perfbench-state", build_id)
    os.makedirs(state_dir, exist_ok=True)
    sys.stdout.flush()
    result = subprocess.run([binary] + sys.argv[1:] + ["--state-dir", state_dir])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
