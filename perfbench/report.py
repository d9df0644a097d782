#!/usr/bin/env python3
"""Every benchmark metric, by name and unit, for all four workloads.

    python3 perfbench/report.py [--seeds 1] [--write PATH]

For each workload, runs ``run.py --trace 0`` once per seed and
``run.py --trace 1`` on the first seed, each in a fresh interpreter for
BENCHMARK.json's ``run_seconds``, and prints one table per workload.  With several seeds each end-to-end metric
shows its median, its quartiles and the quartile distance as a share of
the median, the spread BENCHMARK.json bounds.  ``--write`` stores the
summary with the host stamp and every run's checksum, as in
``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-s{seed}-t{trace}"
    with open(os.path.join(BENCH, "out", f"result-{tag}.json"),
              encoding="utf-8") as fh:
        detail = json.load(fh)
    return result, detail


def _summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1",
                    help="comma list of seeds for the untraced runs")
    ap.add_argument("--write", metavar="PATH",
                    help="store the summary as JSON")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    summary = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        plain = [_run(name, s, seconds, 0) for s in seeds]
        traced, traced_detail = _run(name, seeds[0], seconds, 1)
        results = [r for r, _ in plain] + [traced]
        end_to_end = {m: _summary([r["metrics"][m]["value"]
                                   for r, _ in plain]) for m in bounds}
        summary["host"] = traced_detail["host"]
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "checksums": {str(d["seed"]): d["checksum"] for _, d in plain},
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
        }
        entry = summary["workloads"][name]
        print(f"== {name}: correct={entry['correct']} "
              f"attempted={entry['attempted']} failed={entry['failed']}")
        for m in spec["end_to_end"]:
            s = end_to_end[m["name"]]
            line = f"  {m['name']:<48} {s['median']:>12.6g} {m['unit']}"
            if "spread" in s:
                line += (f"  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread "
                         f"{s['spread']:.3f} of bound {m['bound']}]")
            print(line)
        for m in spec["per_layer"]:
            value = traced["metrics"][m["name"]]["value"]
            print(f"  {m['name']:<48} {value:>12.6g} {m['unit']}")
        sys.stdout.flush()

    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
