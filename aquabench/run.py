#!/usr/bin/env python3
"""Builds the aqua benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 aquabench/run.py --workload <link|rx_replay|harbor> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/aquabench when that variable is set,
else to .bench_build/aquabench; a relative directory is taken from the
checkout root. Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. Exits non-zero, without a result, when the
build fails or the benchmark cannot run.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "aquabench")


def run(cmd):
    # Child output goes to stderr: stdout carries only the benchmark report.
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", out,
                "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            print("aquabench: configure failed", file=sys.stderr)
            return 1
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", out, "--target", "aquabench",
            "-j", jobs]) != 0:
        print("aquabench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(out, "aquabench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
