#!/usr/bin/env python3
"""Repo benchmark entry point (see perfbench/README.md).

Builds the vbsperf program from the sources next to this directory and runs
one workload:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build), relative to the
current directory; scratch files (task library, journals, Chrome traces) go
to its work/ subdirectory. Build output is sent to stderr so that the last
line of stdout is vbsperf's JSON result. Exits non-zero without a result
when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compile", "serve_hot", "serve_cold")


def build(build_dir):
    """Configures and builds vbsperf; returns its path or None on failure."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4", "--target", "vbsperf"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "vbsperf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="serve trace seed")
    ap.add_argument("--netlist-seed", type=int, default=1,
                    help="compile netlist and flow seed (held-out checks)")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--netlist-seed", str(args.netlist_seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
