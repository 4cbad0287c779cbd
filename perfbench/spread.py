#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: runs the benchmark once per
seed on each named workload and prints, per metric, the median and the
distance between the first and third quartiles (Python's
statistics.quantiles, n=4) as a share of the median, next to the metric's
bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads pagerank-social,serve-mixed --seeds 1-10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def relative_iqr(values):
    """Distance between the first and third quartiles (Python's
    statistics.quantiles, n=4) as a share of the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="also write every run's result here (JSON)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    results = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            ok &= result["correct"]
            runs.append(result)
            steal = next((l.split(":")[1].strip() for l in lines if "stolen" in l), "?")
            print("%s seed %d: %s steal=%s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()), steal),
                flush=True)
        results[workload] = runs
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            spread = relative_iqr(values)
            print("  %-12s median %-12.5g spread %.3f  bound %.2f%s" % (
                m["name"], med, spread, m["bound"],
                "" if spread <= m["bound"] / 3 else "  (above a third of the bound)"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
