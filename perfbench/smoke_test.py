#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json through `run.py --smoke` with
--trace 0 and --trace 1 and checks that the gates pass and that the result
line names exactly the metrics BENCHMARK.json declares, with their units.
Then checks that run.py fails without a result in a directory that holds
only BENCHMARK.json and the benchmark's own files. Exits 1 on the first
failure. Takes about a minute after the first build.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def check_result(spec, workload, trace, proc):
    if proc.returncode != 0:
        fail("%s trace=%d exited %d: %s" %
             (workload, trace, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True:
        fail("%s trace=%d: correctness gate failed:\n%s" %
             (workload, trace, proc.stdout))
    if result["attempted"] < 1 or result["failed"] != 0:
        fail("%s: attempted=%d failed=%d" %
             (workload, result["attempted"], result["failed"]))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail("%s trace=%d: metrics differ from BENCHMARK.json: extra %s, "
             "missing %s" % (workload, trace, sorted(set(got) - set(want)),
                             sorted(set(want) - set(got))))
    for name, metric in got.items():
        if metric["unit"] != want[name]:
            fail("%s: %s has unit %s, declared %s" %
                 (workload, name, metric["unit"], want[name]))
        if not math.isfinite(metric["value"]):
            fail("%s: %s is not finite" % (workload, name))
        if not trace and metric["value"] <= 0:
            fail("%s: end-to-end metric %s is %r" %
                 (workload, name, metric["value"]))
    if not any(line.startswith("# machine: nproc=") for line in lines):
        fail("%s: no machine line" % workload)


def check_fails_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "lip_hard", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        fail("run.py succeeded without the library sources")
    if proc.stdout.strip().splitlines()[-1:] and \
            proc.stdout.strip().splitlines()[-1].startswith("{"):
        fail("run.py printed a result without the library sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(spec, workload, trace, run(ROOT, workload, trace))
            print("ok  %s trace=%d" % (workload, trace))
    check_fails_without_sources()
    print("ok  fails without the library sources")


if __name__ == "__main__":
    main()
