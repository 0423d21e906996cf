#!/usr/bin/env python3
"""Builds the service benchmark from this checkout and runs it.

    python3 servicebench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>
    python3 servicebench/run.py --self-test

The tcdp library and the benchmark program are built in Release under
.bench_build/servicebench: configured on the first call, then brought up
to date on every call. Build output goes to stderr, so the benchmark's
standard output, whose last line is the result object, passes through
unchanged. The exit code is the benchmark's, or 2 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servicebench")


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    args = sys.argv[1:]
    self_test = args == ["--self-test"]
    target = "servicebench_selftest" if self_test else "servicebench"
    if not build(target):
        print("servicebench: build failed", file=sys.stderr)
        return 2
    command = [os.path.join(BUILD, target)] + ([] if self_test else args)
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
