#!/usr/bin/env python3
"""Build the router benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 vbench/run.py --workload fulltable --seed 1 --seconds 12 --trace 0

The executable is built with dune (release profile, shared cache off) into
.bench_build/ inside the checkout, then run with the same arguments plus the
processor count this process may use. A traced run (--trace 1) writes its
spans to .bench_build/vbench/spans-<workload>-<seed>.tsv. The exit code is
the benchmark's; a failed build exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "vbench", "main.exe")


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args()

    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune is not on PATH", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--profile", "release",
             "--build-dir", BUILD_DIR, "--cache", "disabled",
             "./vbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 2

    extra = ["--nproc", str(len(os.sched_getaffinity(0)))]
    if known.trace == "1":
        out = os.path.join(BUILD_DIR, "vbench")
        os.makedirs(out, exist_ok=True)
        extra += ["--spans", os.path.join(
            out, "spans-%s-%s.tsv" % (known.workload, known.seed))]
    try:
        run = subprocess.run([EXE] + sys.argv[1:] + extra, timeout=175)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
