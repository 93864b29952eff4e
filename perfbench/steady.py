#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload (or those named with --workloads) in two sets of
--runs runs, each run with its own seed, and prints for every end-to-end
metric each set's median and quartiles, the spread (interquartile
distance as a share of the median) and whether the sets agree within the
metric's bound from BENCHMARK.json:

  * each set's spread is within the bound, setup_s included;
  * the second set's median is not worse than the first's by more than
    the bound;
  * both sets fail the same share of their operations.

Run from the root of the checkout:

  python3 perfbench/steady.py --runs 10
  python3 perfbench/steady.py --runs 5 --sets 1 --workloads serve-clone

Raw results are written to .bench_build/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return res


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    raw = {}
    seed = args.first_seed
    for s in range(args.sets):
        for w in workloads:
            for _ in range(args.runs):
                res = run_once(bench["command"], w, seed, bench["run_seconds"])
                raw.setdefault(w, [[] for _ in range(args.sets)])[s].append({"seed": seed, **res})
                seed += 1
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
                print(f"set {s + 1} {w} seed {seed - 1}: {vals}", flush=True)

    os.makedirs(".bench_build", exist_ok=True)
    with open(".bench_build/steady.json", "w") as f:
        json.dump(raw, f, indent=1)

    ok = True
    for w in workloads:
        sets = raw[w]
        print(f"\n{w}")
        print(f"  {'metric':16} {'bound':>6} " + " ".join(
            f"{'median' + str(i + 1):>12} {'q1':>12} {'q3':>12} {'spread':>7}" for i in range(len(sets))) + "  verdict")
        shares = {r["failed"] / r["attempted"] for st in sets for r in st}
        if len(shares) != 1:
            ok = False
            print(f"  failed share differs between runs: {sorted(shares)}")
        for name, m in bounds.items():
            cols, meds, verdict = [], [], []
            for st in sets:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in st])
                meds.append(med)
                cols.append(f"{med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f}")
                if spread > m["bound"]:
                    verdict.append("spread>bound")
                elif spread > m["bound"] / 3:
                    verdict.append("spread>bound/3")
            if len(meds) == 2:
                change = (meds[1] - meds[0]) / meds[0]
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    verdict.append(f"median worse by {worse:.3f}")
            if any(v == "spread>bound" or v.startswith("median") for v in verdict):
                ok = False
            print(f"  {name:16} {m['bound']:6.2f} " + " ".join(cols) + "  " + (", ".join(verdict) or "ok"))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
