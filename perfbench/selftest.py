#!/usr/bin/env python3
"""Self-test of the repository benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. A tiny-size pass runs every workload once untraced and once traced and
   checks that each run is correct and reports exactly the metrics
   BENCHMARK.json names, each with its unit.
2. Every workload is run again with one output value corrupted
   (--corrupt): the run must exit non-zero, count the failed job in
   `failed` (and in `error_rate` on the traced run) and report
   `correct: false`.
3. The benchmark is copied without the program sources into a scratch
   directory under the build directory; there it must exit non-zero
   without printing a result.

Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    res = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                         cwd=cwd, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return res.returncode, result, res.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        base = ["--workload", wl, "--seed", "1", "--tiny"]
        for trace in (0, 1):
            code, res, err = run(base + ["--seconds", "1", "--trace", str(trace)])
            tag = f"{wl} --trace {trace}"
            check(code == 0 and res is not None, f"{tag}: exits 0 with a result")
            if res is None:
                sys.stderr.write(err)
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result has exactly the four result keys")
            check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{tag}: correct, nothing failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == expected[trace], f"{tag}: every listed metric, with its unit")
            missing = set(expected[trace]) - set(got)
            extra = set(got) - set(expected[trace])
            if missing or extra:
                print(f"     missing {sorted(missing)} extra {sorted(extra)}")

        for trace in (0, 1):
            code, res, _ = run(base + ["--seconds", "1", "--trace", str(trace), "--corrupt"])
            tag = f"{wl} --trace {trace} --corrupt"
            check(code != 0, f"{tag}: exits non-zero")
            check(res is not None and res["correct"] is False and res["failed"] >= 1,
                  f"{tag}: the corrupted job is counted as failed")
            if trace == 1 and res is not None:
                check(res["metrics"]["error_rate"]["value"] > 0,
                      f"{tag}: error_rate counts the corrupted job")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, res, _ = run(["--workload", "solver-barrier", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
    check(code != 0 and res is None, "without the program sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
