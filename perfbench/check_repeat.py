#!/usr/bin/env python3
"""Count-repeat test of the benchmark.

Runs the traced compile workload twice with the same netlist seed and
fails unless every deterministic count (placer moves, router heap pops and
iterations, VBS and raw bits at every cluster size, decoder node
expansions and entries) is identical, non-zero, and both runs pass their
output checks. Within each traced run the second pass must already
reproduce the first pass's counts and streams exactly.

    python3 perfbench/check_repeat.py [--netlist-seed N]
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS = [
    "place.moves", "route.heap_pops", "route.iterations",
    "encode.vbs_bits_c1", "encode.vbs_bits_c2", "encode.vbs_bits_c4",
    "encode.vbs_bits_c8", "encode.raw_bits", "devirt.nodes", "devirt.entries",
]


def traced_compile(netlist_seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "compile",
           "--netlist-seed", str(netlist_seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description="benchmark count-repeat test")
    ap.add_argument("--netlist-seed", type=int, default=1)
    args = ap.parse_args()
    runs = [traced_compile(args.netlist_seed) for _ in range(2)]
    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    for name in COUNTS:
        a, b = (r["metrics"][name]["value"] for r in runs)
        same = a == b and a > 0
        ok = ok and same
        print(f"{name:22s} {a:>14.0f} {b:>14.0f} {'ok' if same else 'MISMATCH'}")
    print("count repeat:", "ok" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
