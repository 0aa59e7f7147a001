#!/usr/bin/env python3
"""Build the VisualPrint end-to-end benchmark and run one workload.

    python3 vpbench/run.py --workload walk_fix|venue_load|venue_arrivals \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is built from source into
the build directory (CARGO_TARGET_DIR when set, else .bench_build) with its
own CMake package, vpbench/CMakeLists.txt, which compiles the program's
libraries from the checkout. Build output goes to stderr; the benchmark's
stdout is passed through, and its last line is the JSON result.

Venues and the venue_load fingerprint pool are cached under
<build>/cache/<hash of the benchmark binary>/, so they are rebuilt whenever
the program changes. Per-layer span traces go to <build>/out/.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "vpbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # A failed configure must not leave a cache that skips it next time.
            shutil.rmtree(cmake_dir, ignore_errors=True)
            sys.exit("vpbench: build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "vpbench")


def cache_dir_for(binary, build_dir):
    digest = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    root = os.path.join(build_dir, "cache")
    key = digest.hexdigest()[:16]
    if os.path.isdir(root):
        for old in os.listdir(root):
            if old != key:
                shutil.rmtree(os.path.join(root, old), ignore_errors=True)
    return os.path.join(root, key)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=["walk_fix", "venue_load", "venue_arrivals"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", cache_dir_for(binary, build_dir),
           "--out-dir", os.path.join(build_dir, "out")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("vpbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
