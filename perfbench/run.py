#!/usr/bin/env python3
"""Builds the benchmark program (xbench) from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
                             [--smoke]

Run it from the root of a checkout. xbench is configured with CMake
into $CARGO_TARGET_DIR (default .bench_build) and rebuilt incrementally on
every call; the first call compiles the library and takes about a minute
on 4 cores. Build output goes to stderr. xbench's "# ..." lines and
its final JSON line ({correct, attempted, failed, metrics}) are passed
through to stdout; the JSON line is always last. Exits non-zero, without
printing a result, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("batch_fixed_dtd", "daemon_authoring", "lip_hard")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds; set-up, probes and teardown stay well
# inside this.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "spec_session.h")):
        fail("library sources not found under %s" % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    compile_ = subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr)
    if compile_.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "xbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, same workloads and gates")
    args = parser.parse_args()

    os.chdir(ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    work_dir = os.path.join(build_root, "run")
    os.makedirs(work_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
    if args.smoke:
        command.append("--smoke")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("xbench ran past %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail("xbench exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("xbench's last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys %s" % sorted(result))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
