#!/usr/bin/env python3
"""Build and run the CQoS call benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the checkout's src/) into
.bench_build/perfbench; later runs only rebuild what changed. Each run then
checks the span-attribution arithmetic (--self-test) and runs the workload.
The last line of standard output is the run's JSON result. The exit code is
nonzero when the build, the self-test or a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cqos_perfbench")
WORKLOADS = ["secured-corba-1k", "plain-rmi-inproc", "replicated-rmi-3"]
RUN_TIMEOUT_S = 170


def build():
    """Configure (until it has succeeded once) and build; build output goes
    to stderr."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
        subprocess.run([BINARY, "--self-test"], stdout=sys.stderr,
                       check=True, timeout=60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build or self-test failed: {e}", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S * (
            len(WORKLOADS) if args.workload == "all" else 1))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
