#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written as one JSON file.

    python3 tools/bench_pairs.py --base COMMIT --out BENCH_<n>.json \\
        --pairs importance-wide=10 tails-metropolis=3 scaling-free=6 \\
        ldp-probe=3 [--tier1 2] [--note TEXT]

Each side runs in a new temporary directory: the parent is a ``git
archive`` of ``--base``, the change a copy of the working tree's tracked
and untracked files that git does not ignore, uncommitted edits
included.  ``--base`` is the parent commit: ``HEAD`` while the change is
uncommitted, ``HEAD~1`` once it is committed.  Pair i of a workload runs
seed i of ``perfbench/baseline.json`` through each side's own
``perfbench/run.py --trace 0`` for BENCHMARK.json's ``run_seconds``; the
parent goes first in even pairs and the change in odd ones, so that a
drift of the host falls on both sides alike.  Each side's end-to-end
metrics, output checksum, op count and failed ops are kept per pair, and
a summary gives each metric's medians, the parent's quartiles and the
pairs the change won, and the count of pairs whose two sides' checksums
are equal.  ``--tier1 N`` adds N alternating pairs of the Tier-1 suite,
``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``,
with its wall time, each acceptance criterion's time and the outcome
counts.  The file is rewritten after every pair, so an interrupted run
keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def git(root: str, *argv: str) -> bytes:
    return subprocess.run(["git", *argv], cwd=root, capture_output=True,
                          check=True).stdout


def unpack(root: str, base: str, dest: str) -> None:
    tar = git(root, "archive", "--format=tar", base)
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)


def copy_tree(root: str, dest: str) -> None:
    names = git(root, "ls-files", "-z", "--cached", "--others",
                "--exclude-standard").decode().split("\0")
    for name in filter(None, names):
        src, dst = os.path.join(root, name), os.path.join(dest, name)
        # a tracked file deleted in the working tree is left out
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)


def bench(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py call: its metrics, checksum and op counts."""
    # each side imports its own sources, never a PYTHONPATH entry
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.splitlines()[-1])
    path = os.path.join(root, "perfbench", "out",
                        f"result-{workload}-s{seed}-t0.json")
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    return {"metrics": {name: round(m["value"], 6)
                        for name, m in summary["metrics"].items()},
            "checksum": result["checksum"], "ops": summary["attempted"],
            "failed": summary["failed"], "host": result["host"]}


def tier1(root: str) -> dict:
    """One Tier-1 run: pytest's wall time, criterion times and counts."""
    proc = subprocess.run([sys.executable, *TIER1], cwd=root,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": "src"})
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    wall = re.search(r" in ([\d.]+)s", last)
    return {"wall_s": float(wall.group(1)) if wall else None,
            "criteria_s": {int(n): float(s) for n, s in re.findall(
                r"^\[criterion (\d+)\] \w+ ([\d.]+) s$", proc.stdout, re.M)},
            "counts": {kind.rstrip("s"): int(n) for n, kind in re.findall(
                r"(\d+) (passed|failed|skipped|errors?)", last)}}


def order(i: int) -> tuple:
    """The two sides in pair i's running order: the parent first in even
    pairs, the change first in odd ones."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def summarize(entry: dict, spec: list) -> dict:
    """Per metric: both medians, the parent's quartiles and the pairs in
    which the change was better, by BENCHMARK.json's sense of better;
    and the pairs whose two sides gave equal output checksums."""
    out = {"checksums_equal": sum(
        p == c for p, c in zip(entry["parent"]["checksums"],
                               entry["change"]["checksums"]))}
    for m in spec:
        par, chg = entry["parent"][m["name"]], entry["change"][m["name"]]
        sign = 1 if m["better"] == "lower" else -1
        q1, _, q3 = (statistics.quantiles(par, n=4) if len(par) > 1
                     else (par[0], None, par[0]))
        out[m["name"]] = {
            "parent_median": statistics.median(par),
            "change_median": statistics.median(chg),
            "parent_q1": q1, "parent_q3": q3,
            "change_better": sum(sign * (c - p) < 0
                                 for p, c in zip(par, chg)),
            "pairs": len(par)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", nargs="+", required=True,
                    metavar="WORKLOAD=N", help="pairs per workload")
    ap.add_argument("--base", required=True,
                    help="commit of the parent side: HEAD for an "
                         "uncommitted change, HEAD~1 for a committed one")
    ap.add_argument("--tier1", type=int, default=0, metavar="N",
                    help="alternating pairs of the Tier-1 suite")
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench_spec = json.load(fh)
    spec, seconds = bench_spec["end_to_end"], bench_spec["run_seconds"]
    with open(os.path.join(root, "perfbench", "baseline.json"),
              encoding="utf-8") as fh:
        seeds = json.load(fh)["seeds"]
    workloads = [w["name"] for w in bench_spec["workloads"]]
    plan = []
    for item in args.pairs:
        name, _, n = item.partition("=")
        if not n.isdigit() or not 0 < int(n) <= len(seeds):
            ap.error(f"--pairs wants WORKLOAD=N with 1 <= N <= {len(seeds)}")
        if name not in workloads:
            ap.error(f"--pairs: unknown workload {name!r}; BENCHMARK.json "
                     f"has {', '.join(workloads)}")
        # a second entry would overwrite the first one's pairs in the file
        if name in dict(plan):
            ap.error(f"--pairs: workload {name!r} given twice")
        plan.append((name, int(n)))
    base = git(root, "rev-parse", args.base).decode().strip()

    doc = {"pairs": {
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0, parent and change "
                   f"alternating which runs first, seed i of "
                   f"perfbench/baseline.json in pair i",
        "note": args.note, "parent_commit": base,
        "change": "copy of the working tree", "host": None, "workloads": {}}}

    def write():
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        os.mkdir(roots["parent"])
        unpack(root, base, roots["parent"])
        copy_tree(root, roots["change"])
        for name, n in plan:
            entry = {"seeds": seeds[:n], "first": [],
                     **{side: {m["name"]: [] for m in spec} | {
                         "checksums": [], "ops": [], "failed_ops": 0}
                        for side in SIDES}}
            doc["pairs"]["workloads"][name] = entry
            for i, seed in enumerate(seeds[:n]):
                entry["first"].append(order(i)[0])
                for side in order(i):
                    got = bench(roots[side], name, seed, seconds)
                    doc["pairs"]["host"] = doc["pairs"]["host"] or {
                        k: v for k, v in got["host"].items()
                        if k != "git_commit"}
                    for key, value in got["metrics"].items():
                        entry[side][key].append(value)
                    entry[side]["checksums"].append(got["checksum"])
                    entry[side]["ops"].append(got["ops"])
                    entry[side]["failed_ops"] += got["failed"]
                    print(f"{name} seed {seed} {side}: "
                          f"op_s_p50 {got['metrics'].get('op_s_p50')}",
                          file=sys.stderr, flush=True)
                entry["summary"] = summarize(entry, spec)
                write()
        if args.tier1:
            runs = {side: [] for side in SIDES}
            doc["tier1"] = {"command": "PYTHONPATH=src python "
                            + " ".join(TIER1),
                            "first": [], **runs}
            for i in range(args.tier1):
                doc["tier1"]["first"].append(order(i)[0])
                for side in order(i):
                    runs[side].append(tier1(roots[side]))
                    print(f"tier1 {side}: {runs[side][-1]['counts']} in "
                          f"{runs[side][-1]['wall_s']} s",
                          file=sys.stderr, flush=True)
                write()
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
