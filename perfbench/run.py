#!/usr/bin/env python3
"""Build and run the CSOD host-cost benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exec-heartbleed --seed 1 \
        --seconds 20 --trace 0

The benchmark program (perfbench/perfbench.ml) is built from source with
dune into .bench_build/, then run with the same arguments.  Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.  Exits non-zero, printing no result, when the
build fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"


def main():
    # The shared dune cache lives outside the checkout: keep it off.
    build = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache=disabled", TARGET,
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
