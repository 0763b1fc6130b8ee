#!/usr/bin/env python3
"""Measures the steadiness of the benchmark the way its driver does.

Runs BENCHMARK.json's command on every workload once per seed (untraced),
and prints and stores, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median. Run from the repository root:

    python3 cmd/wsbench/baseline/measure.py [--seeds 1-10] [--out cmd/wsbench/baseline/seed.json]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

ap = argparse.ArgumentParser()
ap.add_argument("--seeds", default="1-10")
ap.add_argument("--out", default="")
ap.add_argument("--trace", default="0")
args = ap.parse_args()
lo, hi = (int(x) for x in args.seeds.split("-"))
bench = json.load(open("BENCHMARK.json"))

values = {}  # workload -> metric -> [value per seed]
for seed in range(lo, hi + 1):
    for wl in bench["workloads"]:
        cmd = bench["command"] + ["--workload", wl["name"], "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        t0 = time.time()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"{' '.join(cmd)}: incorrect run\n{proc.stderr[-4000:]}")
        for name, m in res["metrics"].items():
            values.setdefault(wl["name"], {}).setdefault(name, []).append(m["value"])
        print(f"seed {seed} {wl['name']}: {time.time() - t0:.1f} s", file=sys.stderr, flush=True)

doc = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
for wl, metrics in values.items():
    rows = {}
    for name, vs in sorted(metrics.items()):
        row = {"median": statistics.median(vs), "values": vs}
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / row["median"] if row["median"] else 0.0)
            print(f"{wl:24s} {name:34s} median {row['median']:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {row['spread'] * 100:6.2f}%")
        rows[name] = row
    doc["workloads"][wl] = rows
if args.out:
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
