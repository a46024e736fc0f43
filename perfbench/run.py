#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload batch-knn --seed 1 --seconds 10 --trace 0

Workloads: batch-knn, allknn-join, stream-churn. The first run configures and
builds perfbench/ (which compiles ../src) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero without a result when the build
or the run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch-knn", "allknn-join", "stream-churn")


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    generated = any(os.path.exists(os.path.join(build_dir, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    # A SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the build or benchmark process it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--spans-dir", os.path.join(build_root, "perfbench-spans")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
