#!/usr/bin/env python3
"""Build and run the perfbench driver from the root of a posg checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver is configured in Release with POSG_DCHECKS off into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and rebuilt
incrementally on every call. Build output goes to stderr, so the last line
of stdout is the driver's JSON result. Exits non-zero, without a result,
when the posg sources are missing or the build fails.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "posg_scheduler.hpp")):
        fail(f"no posg source tree next to {BENCH_DIR}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release", "-DPOSG_DCHECKS=OFF"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    try:
        result = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
