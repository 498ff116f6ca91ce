#!/usr/bin/env python3
"""Build and run one workload of the consensus40 benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark binary and the library it
measures are built from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the build's own output goes to stderr, so the last
line of stdout is the binary's JSON result. The exit code is the binary's:
0 when every output check passed.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kv-batched", "txn-contended", "sweep", "chain")


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build(bdir):
    """Configures and builds incrementally; serialized by a lock."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    args = p.parse_args()
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
