#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/README.md).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scheme-grid --seed 1 --seconds 25 --trace 0

The benchmark binary is built from source with CMake into the directory
named by $CARGO_TARGET_DIR (default .bench_build), then run with the same
arguments. Build output goes to stderr; the last stdout line is the result
JSON. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    # ndc-perfbench checks the values itself (workload names, seed, seconds).
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        p.add_argument(flag, required=True)
    return p.parse_args(argv)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "ndc-perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "ndc-perfbench")


def main(argv):
    args = parse_args(argv)
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(root, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--reference", os.path.join(HERE, "reference.json"),
           "--scratch", build_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
