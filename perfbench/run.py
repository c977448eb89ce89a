#!/usr/bin/env python3
"""Builds the benchmark from source (first run only) and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest [--seed <n>]

The build goes to .bench_build/perfbench (CMake, Release) and compiles
prefrep's src/ together with perfbench/src/.  Build output is kept in
.bench_build/perfbench/build.log; a failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
JOBS = "4"


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    cmds = [["cmake", "--build", BUILD, "-j", JOBS]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                        BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "a") as log:
        for cmd in cmds:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
                return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "model", "context.h")):
        sys.stderr.write("perfbench: prefrep sources (src/) not found\n")
        return 1
    if not build():
        return 1
    return subprocess.call([BINARY] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
