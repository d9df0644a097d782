"""Span tracer for the per-layer numbers of a traced benchmark run.

The tracer rebinds public polymerlab functions from outside the package:
each traced function is replaced by a wrapper in every ``polymerlab.*``
namespace that holds it by name.  Rebinding only the defining module is
not enough, because ``cli``, ``gibbs`` and ``experiments`` import with
``from .x import f`` and call their own binding.

Spans live in memory as ``[name, start, end, parent, thread, child_s,
info]`` lists.  The parent is the enclosing traced span on the same
thread (each thread keeps its own stack); a span opened on a pool worker
therefore has no parent.  ``child_s`` accumulates the durations of the
span's direct children, so self time is ``end - start - child_s`` within
one thread.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

NAME, START, END, PARENT, THREAD, CHILD_S, INFO = range(7)


def _rows(args, kwargs, out, cpu_s):
    rows = args[0] if args else kwargs["rows"]
    shape = getattr(rows, "shape", None)
    if not shape:
        return 1
    return (rows.size // shape[-1]) if shape[-1] else 0


def _report_bytes(args, kwargs, out, cpu_s):
    return os.path.getsize(out)


def _metropolis(args, kwargs, out, cpu_s):
    # one sweep proposes a row and an entry move per time row, plus an
    # initial-vector move under stationary initialization
    T = args[1] if len(args) > 1 else kwargs["T"]
    init = kwargs.get("init", args[9] if len(args) > 9 else "zero")
    proposals = out.diagnostics["sweeps"] * (2 * T + (init == "stationary"))
    return proposals, out.diagnostics["acceptance_rate"] * proposals


def _ess_ratio(args, kwargs, out, cpu_s):
    return out["ess"] / out["n"]


def _cpu(args, kwargs, out, cpu_s):
    return cpu_s


# (module, function, hook that reads counts off the call; _cpu marks the
# spans that also record process CPU time)
TARGETS = (
    ("cli", "main", None),
    ("experiments", "run_scaling_study", _cpu),
    ("experiments", "run_tail_probes", _cpu),
    ("experiments", "emit_report", _report_bytes),
    ("gibbs", "metropolis_sampler", _metropolis),
    ("gibbs", "sample_ensemble", None),
    ("gibbs", "estimate_measure", _ess_ratio),
    ("observables", "intersection_counts_batch", _rows),
    ("dynamics", "neumann_laplacian", None),
    ("dynamics", "counter_rng", None),
    ("spectral", "build_basis", None),
    ("ar1", "tail_probe", _cpu),
    ("ar1", "rate_function", None),
)


class Tracer:
    """Install with ``install()``, run traced work, ``take()`` the spans
    recorded since the last take, and ``uninstall()`` to restore every
    original binding."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._bound = []          # (module, attribute, original)

    def _wrap(self, name, fn, info):
        cpu = info is _cpu
        local = self._local
        spans = self.spans
        clock = time.perf_counter
        cpu_clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            rec = [name, 0.0, 0.0, parent, threading.get_ident(), 0.0, None]
            stack.append(rec)
            spans.append(rec)
            c0 = cpu_clock() if cpu else 0.0
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD_S] += rec[END] - rec[START]
            if info is not None:
                rec[INFO] = info(args, kwargs, out,
                                 cpu_clock() - c0 if cpu else None)
            return out
        return traced

    def install(self):
        if self._bound:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "polymerlab" or n.startswith("polymerlab.")]
        for mod_name, fn_name, info in TARGETS:
            original = getattr(sys.modules[f"polymerlab.{mod_name}"],
                               fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, info)
            for mod in modules:
                if vars(mod).get(fn_name) is original:
                    setattr(mod, fn_name, wrapper)
                    self._bound.append((mod, fn_name, original))

    def uninstall(self):
        for mod, fn_name, original in reversed(self._bound):
            setattr(mod, fn_name, original)
        self._bound = []

    def take(self) -> list:
        """Spans recorded since the previous take, in start order."""
        taken = self.spans[:]
        del self.spans[:len(taken)]
        return taken


def summarize(spans: list) -> dict:
    """Per-layer numbers for the spans of one op."""
    calls, total, self_s, cpu = {}, {}, {}, {}
    rows = report_bytes = proposals = accepted = 0
    ess_ratios = []
    for rec in spans:
        name = rec[NAME]
        dur = rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - rec[CHILD_S]
        info = rec[INFO]
        if info is None:
            continue
        if name == "observables.intersection_counts_batch":
            rows += info
        elif name == "experiments.emit_report":
            report_bytes += info
        elif name == "gibbs.metropolis_sampler":
            proposals += info[0]
            accepted += info[1]
        elif name == "gibbs.estimate_measure":
            ess_ratios.append(info)
        else:
            cpu[name] = cpu.get(name, 0.0) + info

    def cpu_per_wall(name):
        return cpu[name] / total[name] if total.get(name) else 0.0

    icb = "observables.intersection_counts_batch"
    return {
        f"{icb}.calls": calls.get(icb, 0),
        f"{icb}.rows": rows,
        f"{icb}.total_s": total.get(icb, 0.0),
        f"{icb}.us_per_row": 1e6 * total[icb] / rows if rows else 0.0,
        "gibbs.metropolis_sampler.self_s":
            self_s.get("gibbs.metropolis_sampler", 0.0),
        "gibbs.metropolis_sampler.total_s":
            total.get("gibbs.metropolis_sampler", 0.0),
        "gibbs.metropolis_sampler.proposals": proposals,
        "gibbs.metropolis_sampler.accept_ratio":
            accepted / proposals if proposals else 0.0,
        "gibbs.sample_ensemble.self_s":
            self_s.get("gibbs.sample_ensemble", 0.0),
        "gibbs.sample_ensemble.total_s":
            total.get("gibbs.sample_ensemble", 0.0),
        "gibbs.estimate_measure.total_s":
            total.get("gibbs.estimate_measure", 0.0),
        "gibbs.estimate_measure.ess_ratio":
            sum(ess_ratios) / len(ess_ratios) if ess_ratios else 0.0,
        "dynamics.neumann_laplacian.calls":
            calls.get("dynamics.neumann_laplacian", 0),
        "dynamics.neumann_laplacian.total_s":
            total.get("dynamics.neumann_laplacian", 0.0),
        "dynamics.counter_rng.calls": calls.get("dynamics.counter_rng", 0),
        "experiments.run_scaling_study.self_s":
            self_s.get("experiments.run_scaling_study", 0.0),
        "experiments.run_scaling_study.cpu_per_wall":
            cpu_per_wall("experiments.run_scaling_study"),
        "experiments.emit_report.total_s":
            total.get("experiments.emit_report", 0.0),
        "experiments.emit_report.bytes": report_bytes,
        "experiments.run_tail_probes.self_s":
            self_s.get("experiments.run_tail_probes", 0.0),
        "experiments.run_tail_probes.cpu_per_wall":
            cpu_per_wall("experiments.run_tail_probes"),
        "ar1.tail_probe.total_s": total.get("ar1.tail_probe", 0.0),
        "ar1.tail_probe.cpu_per_wall": cpu_per_wall("ar1.tail_probe"),
        "ar1.rate_function.total_s": total.get("ar1.rate_function", 0.0),
        "spectral.build_basis.calls": calls.get("spectral.build_basis", 0),
        "spectral.build_basis.total_s":
            total.get("spectral.build_basis", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }


def write_spans(spans: list, path: str):
    """One CSV line per span; parent is the parent's line index."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    t0 = spans[0][START] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent,thread\n")
        for i, rec in enumerate(spans):
            parent = rec[PARENT]
            fh.write(f"{i},{rec[NAME]},{rec[START] - t0:.9f},"
                     f"{rec[END] - t0:.9f},"
                     f"{'' if parent is None else index[id(parent)]},"
                     f"{rec[THREAD]}\n")
