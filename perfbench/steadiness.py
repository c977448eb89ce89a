#!/usr/bin/env python3
"""Steadiness harness: runs workloads over several seeds and reports,
for every metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), next to the
metric's bound from BENCHMARK.json.  End-to-end bounds are set from
these figures; a spread above a third of its bound is flagged.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--seconds S] [--trace 0|1] [--json F]

Runs from the root of a checkout; every run goes through run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0 or not out.stdout.strip():
                sys.stderr.write("run failed: %s\n%s" % (" ".join(cmd), out.stderr))
                ok = False
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results.append(result)
            sys.stderr.write("%s seed %d: %s\n" % (
                workload, seed, json.dumps({k: v["value"] for k, v in
                                            result["metrics"].items()})))
        runs[workload] = results
        if not results:
            continue
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        print("\n%s: %d runs, correct in %d, failed/attempted %s" % (
            workload, len(results), sum(r["correct"] for r in results),
            ", ".join("%d/%d" % s for s in shares)))
        print("  %-28s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) >= 2:
                q1, med, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = med = q3 = values[0]
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print("  %-28s %12.6g %12.6g %12.6g %8.4f %6s%s" % (
                name, med, q1, q3, spread,
                "" if bound is None else "%.2f" % bound, flag))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
