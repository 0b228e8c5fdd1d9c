#!/usr/bin/env python3
"""Run each workload N times and report every metric's spread against
its bound.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py [--runs 10] [--seed 1] [--same-seed]
                                    [--workloads a,b] [--seconds s]

Each run is `perfbench/run.py` with its own seed (`--seed`, `--seed`+1,
...), one after another. For every metric it prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread: the
distance between the quartiles as a share of the median. End-to-end
spreads are compared with their bound from `BENCHMARK.json`; a spread
above the bound fails, except for `setup_s`, whose bound applies only
between medians. With `--same-seed` every run uses the same seed, and
the modeled metrics must then read exactly the same in every run.

Exits 1 if any run fails, reports an incorrect result, or any spread
exceeds its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Metrics computed from the simulator alone: identical on every run of
# the same seed and code.
MODELED = ["virtual_lb_ms", "messages_per_call", "final_max_over_avg", "migrations",
           "modeled_makespan_s", "success_ratio", "report:final_imbalance"]


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of `values`."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


# A report line such as `lb_wall_ms.best_p50 = 36.265 ms (n=...)`: the
# wall-clock metrics the run prints but leaves out of its JSON result.
REPORT_LINE = re.compile(r"^([A-Za-z0-9_.]+) = ([0-9.]+) ")


def run_once(workload, seed, seconds):
    """The run's JSON result, with its report lines added to the metrics
    under a `report:` prefix."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        m = REPORT_LINE.match(line)
        if m:
            result["metrics"]["report:" + m.group(1)] = {"value": float(m.group(2))}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    ok = True
    for workload in names:
        results = []
        for i in range(args.runs):
            seed = args.seed if args.same_seed else args.seed + i
            r = run_once(workload, seed, seconds)
            if not r["correct"] or r["failed"]:
                print(f"{workload} seed {seed}: {r['failed']} of {r['attempted']} calls failed")
                ok = False
            results.append(r)
        print(f"\n{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            if any(name not in r["metrics"] for r in results):
                continue
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, s = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                if s > bound and name != "setup_s":
                    verdict, ok = "OVER", False
                elif s > bound / 3:
                    verdict = "> bound/3"
            if args.same_seed and name in MODELED and len(set(values)) > 1:
                verdict, ok = "NOT EXACT", False
            print(f"  {name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.2%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
