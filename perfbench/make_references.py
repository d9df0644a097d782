#!/usr/bin/env python3
"""Record the reference values the statistical output checks compare with.

    python3 perfbench/make_references.py

Runs the importance-wide and ldp-probe studies once at thirty and twenty
times their benchmark size, on a seed the benchmark does not use, and
writes ``perfbench/references.json``.  The file is recorded once and
committed; re-recording it to make a failing check pass defeats the check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEED = 2**31 - 1


def _run(cli, argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"reference run {argv} exited {code}")
    print(f"{' '.join(argv)}: {time.perf_counter() - t0:.1f} s",
          file=sys.stderr)
    return buf.getvalue()


def _sized(args, replicates):
    args = list(args)
    args[args.index("--replicates") + 1] = str(replicates)
    return args + ["--seed", str(SEED)]


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import polymerlab.cli as cli

    imp = workloads.WORKLOADS["importance-wide"]
    out = workloads._json_tail(_run(cli, _sized(imp.args, 60_000)))
    importance = {"Q_mean": {"value": out["Q_mean"], "se": out["Q_se"]},
                  "run": {"replicates": out["n"], "ess": out["ess"],
                          "seed": SEED}}

    ldp = workloads.WORKLOADS["ldp-probe"]
    samples = 40_000_000
    rows = workloads._csv_rows(_run(cli, _sized(ldp.args, samples)))
    probe = next(r for r in rows if r["T"])
    p = math.exp(-int(probe["T"]) * float(probe["empirical"]))
    exceedance = {"exceedance": {"value": p,
                                 "se": math.sqrt(p * (1.0 - p) / samples)},
                  "run": {"samples": samples, "seed": SEED}}

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    refs = {"recorded_at_commit": commit or None,
            "importance-wide": importance, "ldp-probe": exceedance}
    path = os.path.join(BENCH, "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
