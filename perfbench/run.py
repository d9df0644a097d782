#!/usr/bin/env python3
"""polymerlab benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a fixed CLI study that is
run repeatedly in this process through ``polymerlab.cli.main`` with the
same arguments, derived from ``--seed``; every op's output is checked and
its SHA-256 recorded.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, with cold starts for ``setup_s`` between the ops;
``--trace 1`` runs a warm-up op, then alternates untraced and traced ops
and reports the per-layer metrics.  The last line of standard output is
one JSON object; a result file with the host, every op and its checksum
goes to ``perfbench/out/``.  The benchmark is a single closed-loop client: one
op at a time, no threads of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracer
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_STARTS = 7

# a cold interpreter's import of the CLI plus its parser build
SETUP_CODE = ("import sys, time\n"
              "t0 = time.perf_counter()\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import polymerlab.cli\n"
              "polymerlab.cli.build_parser()\n"
              "print(time.perf_counter() - t0)\n")


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def host_stamp() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    for index in range(8):
        d = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size = _read(f"{d}/level"), _read(f"{d}/size")
        if level and size and level.strip() in ("2", "3"):
            caches[f"L{level.strip()}"] = size.strip()
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, **caches,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": commit}


def measure_setup(starts: int) -> list:
    times = []
    for _ in range(starts):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return times


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "polymerlab", "cli.py")):
        raise RuntimeError(f"no polymerlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import polymerlab.cli
    if not os.path.abspath(polymerlab.cli.__file__).startswith(SRC):
        raise RuntimeError(f"imported {polymerlab.cli.__file__}, "
                           f"not the sources under {SRC}")
    return polymerlab.cli


def run_op(cli, workload, argv, out_dir, refs) -> dict:
    """One timed CLI call, then its output check and checksum."""
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except (Exception, SystemExit):
        code = None
        stderr.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0

    text = stdout.getvalue()
    files = {name: _read(os.path.join(out_dir, name))
             for name in workload.report_files}
    digest = hashlib.sha256(text.encode())
    for name, body in files.items():
        digest.update(f"\0{name}\0{body}".encode())
    if code != 0:
        problems = [f"exit code {code}"]
    elif None in files.values():
        problems = ["missing report file"]
    else:
        try:
            problems = workload.check(text, files, refs)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    return {"wall_s": wall, "cpu_s": cpu, "exit": code,
            "sha256": digest.hexdigest(), "problems": problems,
            "stdout": text, "files": files, "stderr": stderr.getvalue()}


def negative_control(workload, op, refs) -> bool:
    """The check must flag a corrupted copy of a good op's output."""
    stdout, files = workload.corrupt(op["stdout"], op["files"], refs)
    return bool(workload.check(stdout, files, refs))


def tail_percentile(walls: list):
    """Highest whole percentile with at least ten ops beyond it."""
    n = len(walls)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    ordered = sorted(walls)
    return pct, ordered[min(n - 1, max(0, -(-pct * n // 100) - 1))]


def run(workload, seed, seconds, trace) -> dict:
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    refs = _load_json(os.path.join(BENCH, "references.json"))
    refs = refs.get(workload.name, {})
    cli = import_cli()

    tag = f"{workload.name}-s{seed}-t{trace}"
    out_dir = os.path.join(OUT, tag)
    argv = workload.argv(seed, out_dir)
    tr = tracer.Tracer() if trace else None
    ops, spans, setup = [], [], []
    # a traced run alternates untraced and traced ops after a warm-up op
    min_ops = 3 if trace else 1
    busy = 0.0
    while len(ops) < min_ops or (
            busy + statistics.median(o["wall_s"] for o in ops) <= seconds):
        traced = bool(trace) and len(ops) % 2 == 1
        if traced:
            tr.install()
        try:
            op = run_op(cli, workload, argv, out_dir, refs)
        finally:
            if traced:
                tr.uninstall()
        op["traced"] = traced
        if traced:
            taken = tr.take()
            op["layers"] = tracer.summarize(taken)
            spans.extend(taken)
        ops.append(op)
        busy += op["wall_s"]
        # cold starts go between ops, so that they and the ops sample the
        # host over the same stretch of time
        if not trace:
            per_gap = math.ceil(SETUP_STARTS * ops[0]["wall_s"] / seconds)
            setup += measure_setup(min(per_gap, SETUP_STARTS - len(setup)))
    if not trace:
        setup += measure_setup(SETUP_STARTS - len(setup))

    first_ok = next((o for o in ops if not o["problems"]), None)
    for op in ops:
        if first_ok is not None and op["sha256"] != first_ok["sha256"]:
            op["problems"].append("checksum differs within the run")
    failed = [o for o in ops if o["problems"]]
    control = first_ok is not None and negative_control(workload, first_ok,
                                                        refs)
    for op in failed[:3]:
        print(f"op failed: {op['problems']}\n{op['stderr'][-2000:]}",
              file=sys.stderr)

    plain = [o for o in ops[1 if trace else 0:] if not o["traced"]]
    walls = [o["wall_s"] for o in plain]
    if not trace:
        values = {
            "op_s_p50": statistics.median(walls),
            "samples_per_s": workload.samples_per_op * len(walls)
            / sum(walls),
            "cpu_s_per_op": statistics.median(o["cpu_s"] for o in plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        wanted = spec["end_to_end"]
    else:
        layered = [o["layers"] for o in ops if o["traced"]]
        values = {key: statistics.median(lay[key] for lay in layered)
                  for key in layered[0]}
        traced_p50 = statistics.median(o["wall_s"] for o in ops
                                       if o["traced"])
        values["trace.overhead_s"] = traced_p50 - statistics.median(walls)
        values["ess_per_s"] = statistics.median(
            _ess(o) / o["wall_s"] for o in plain)
        values["fail_frac"] = len(failed) / len(ops)
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    os.makedirs(OUT, exist_ok=True)
    if spans:
        tracer.write_spans(spans, os.path.join(OUT, f"spans-{tag}.csv"))
    tail = tail_percentile(walls)
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "argv": argv, "host": host_stamp(),
        "setup_s": setup, "negative_control_flagged": control,
        "checksum": first_ok["sha256"] if first_ok else None,
        "tail_percentile": None if tail is None else
        {"percentile": tail[0], "op_s": tail[1], "ops": len(walls)},
        "ops": [{k: o[k] for k in ("wall_s", "cpu_s", "exit", "sha256",
                                   "problems", "traced")} for o in ops],
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    print(f"{workload.name} seed={seed} trace={trace}: {len(ops)} ops, "
          f"{len(failed)} failed, negative control "
          f"{'flagged' if control else 'NOT flagged'}, "
          f"checksum {result['checksum']}")
    if tail is not None:
        print(f"  op_s_p{tail[0]} = {tail[1]:.6g} s over {len(walls)} ops")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not failed and control, "attempted": len(ops),
            "failed": len(failed), "metrics": metrics}


def _ess(op) -> float:
    try:
        return float(json.loads(op["stdout"].splitlines()[-1])["ess"])
    except (IndexError, KeyError, ValueError, TypeError):
        return 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     args.trace)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
