#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each end-to-end metric's
median and quartile spread (IQR / median) against its bound.

    python3 perfbench/spread.py --workload scan --seeds 1-10 [--trace 0]

Run from the root of a checkout.  Exits 1 if any run fails or any spread
exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    key = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    values = {name: [] for name in bounds}
    ok = True
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        row = []
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
            row.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    for name, vs in values.items():
        if len(vs) < 4:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        flag = ""
        if bound is not None and spread > bound:
            flag, ok = "  OVER BOUND", False
        print(f"{name:40s} median {med:12.5g}  spread {spread:6.3f}  bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
