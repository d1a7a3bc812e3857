#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread, to set and check its bounds.

Runs the benchmark command from BENCHMARK.json once per workload and seed
1 to 10, twice over, and reports for every end-to-end metric each set's
median and spread: the distance between the first and third quartile of
the set's values (statistics.quantiles(values, n=4)) as a share of their
median. Run from the repository root:

    python3 bench/calibrate.py --out bench/calibration.json

The JSON written to --out holds every run's metrics, so a later change can
recompute anything from it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
SETS = 2


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: incorrect output:\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="", help="write every run and the summary here as JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    runs = []
    for k in range(SETS):
        for w in names:
            for seed in SEEDS:
                metrics = run_once(bench, w, seed)
                runs.append({"set": k, "workload": w, "seed": seed, "metrics": metrics})
                print(f"set {k} {w} seed {seed}: " + " ".join(f"{n}={v:.4g}" for n, v in metrics.items()), flush=True)

    summary = {}
    for w in names:
        for m in bench["end_to_end"]:
            rows = []
            for k in range(SETS):
                vals = [r["metrics"][m["name"]] for r in runs if r["workload"] == w and r["set"] == k]
                rows.append({"median": statistics.median(vals), "spread": spread(vals)})
            drift = rows[-1]["median"] / rows[0]["median"] - 1
            if m["better"] == "higher":
                drift = -drift
            summary.setdefault(w, {})[m["name"]] = {"sets": rows, "drift": drift, "bound": m["bound"]}
            flag = "" if max(r["spread"] for r in rows) < m["bound"] / 3 and drift <= m["bound"] else "  <-- check"
            print(f"{w:13s} {m['name']:17s} bound {m['bound']:.2f} " +
                  " ".join(f"med {r['median']:.4g} spread {r['spread']:.3f}" for r in rows) +
                  f" drift {drift:+.3f}{flag}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"cpus": len(os.sched_getaffinity(0)), "run_seconds": bench["run_seconds"],
                       "runs": runs, "summary": summary}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
