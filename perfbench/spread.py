#!/usr/bin/env python3
"""Spread report: the run-to-run evidence behind each bound in BENCHMARK.json.

    python3 perfbench/spread.py [--runs K]

Run it from the repository root. It runs every workload of BENCHMARK.json
K times (default 10) with seeds 1, 2, ..., K, each run as long as
BENCHMARK.json's `run_seconds`, interleaving the workloads so that a drift
in the host's speed falls on all of them alike. It then runs each workload
once more with seed 1 and checks that `steps` repeats exactly.
For every end-to-end metric it prints the median, the first and third
quartiles (Python's `statistics.quantiles(values, n=4)`), their distance
as a share of the median, and the metric's bound. It also checks that the
share of failed ops is the same in every run. Exit code 1 if a spread
exceeds its bound, a repeat differs, or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        sys.exit(f"spread: {workload} seed {seed} exited {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"spread: {workload} seed {seed} reported incorrect output")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for r in range(args.runs):
        for w in workloads:
            res = run(w, FIRST_SEED + r, seconds)
            results[w].append(res)
            print(f"run {r + 1}/{args.runs} {w}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)

    ok = True
    print()
    print(f"{'workload':9} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        runs = results[w]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok"
            if spread > bound:
                verdict, ok = "OVER", False
            elif spread > bound / 3:
                verdict = "wide"
            print(f"{w:9} {name:12} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {bound:6.2f} {verdict}")
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        print(f"{w:9} failed share {sorted(str(s) for s in shares)}"
              + ("" if len(shares) == 1 else "  DIFFERS"))
        ok &= len(shares) == 1
        again = run(w, FIRST_SEED, seconds)
        same = again["metrics"]["steps"]["value"] == runs[0]["metrics"]["steps"]["value"]
        print(f"{w:9} steps with seed {FIRST_SEED} repeated: "
              f"{again['metrics']['steps']['value']:.0f} vs {runs[0]['metrics']['steps']['value']:.0f}"
              + (" identical" if same else "  DIFFERS"))
        ok &= same
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
