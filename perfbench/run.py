#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR when set, else to .bench_build/ (both
relative to the current directory).  The benchmark binary prints its result
JSON as the last stdout line; build output goes to stderr.  Scratch files
(the server socket, the span dump of a traced run) go to the build
directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep-paper", "sweep-demand", "serve-mix")
# A run measures at most a minute plus set-up; anything longer is a hang.
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def run_bounded(command):
    """Runs command; past the timeout it is asked to stop (SIGTERM lets it
    remove its socket), then killed, and always waited for."""
    child = subprocess.Popen(command)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.terminate()
        try:
            child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        if args.selftest:
            binary = build(build_dir, "perfbench_tests")
            return run_bounded([binary])
        binary = build(build_dir, "perfbench")
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace,
                   "--scratch", build_dir]
        return run_bounded(command)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
