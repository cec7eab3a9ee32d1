#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

All arguments go to perfbench/main.exe (see perfbench/README.md). The
build and the run happen in the checkout this script sits in; the
exit code is the build's when it fails, else the benchmark's.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "--display=quiet", "perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
