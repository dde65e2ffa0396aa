#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and compiles the program from ../src together with
the benchmark program (perfbench/CMakeLists.txt) into .bench_build/perfbench;
later runs rebuild incrementally.  Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.  Every argument is passed
through to the benchmark program; see README.md for the workloads and
metrics.

Exit status: the benchmark program's status, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    def step(cmd):
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        return res.returncode == 0

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return step(["cmake", "--build", BUILD, "-j", jobs])


def main():
    try:
        built = build()
    except OSError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    res = subprocess.run([os.path.join(BUILD, "perfbench")] + sys.argv[1:], cwd=ROOT)
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
