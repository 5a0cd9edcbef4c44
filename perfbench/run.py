#!/usr/bin/env python3
"""Build and run the TaskCheck benchmark.

    python3 perfbench/run.py --workload <live-1w|live-4w|batch-4w> \
        --seed N --seconds S --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the repository's
src/ libraries) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs only rebuild what changed. Build output goes to stderr.

The benchmark binary prints context lines starting with "# " and, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. This script passes that output through, checks the
last line's shape, and exits with the binary's code: 0 when every verdict
was right, non-zero otherwise. It exits non-zero without printing a result
when the sources are missing or the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("live-1w", "live-4w", "batch-4w")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    source = os.path.join(root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(source):
            shutil.rmtree(build_dir)  # configured from another checkout
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", source, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j4",
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(step)}", 3)
    return os.path.join(build_dir, "perfbench")


def check_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"TaskCheck sources not found under {root}/src", 2)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    binary = build(root, build_dir)
    work_dir = os.path.join(build_dir, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = run.stdout.splitlines()
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode == 0 and not (lines and check_result(lines[-1])):
        fail("benchmark output does not end in a result line", 5)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
