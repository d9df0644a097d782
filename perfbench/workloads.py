"""The four benchmark workloads: CLI arguments, output checks and the
corruption each check must catch.  README.md says why each one exists.

A check returns a list of problems; an empty list passes.  ``stdout`` is
what one op printed and ``files`` maps each report file name to its text.
Statistical checks compare against ``references.json``, recorded once by
``make_references.py`` from a long run, so they survive changes that alter
the random stream but not the distribution.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass


def _json_tail(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _csv_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _agree(value, se, ref, k=5.0):
    """True when value and its reference differ by at most k combined
    standard errors."""
    return abs(value - ref["value"]) <= k * math.hypot(se, ref["se"])


def _closed_form_rate(rho: float, x: float) -> float:
    """Unit-variance AR(1) rate function, written out independently of
    polymerlab.ar1."""
    root = math.sqrt(4.0 * rho * rho * x * x + 1.0)
    return (-0.5 * math.log(2.0 * x / (1.0 + root))
            + 0.5 * ((rho * rho + 1.0) * x - root))


# -- tails-metropolis -------------------------------------------------------

def _check_tails(stdout, files, refs):
    problems = []
    verdict = _json_tail(stdout)
    for side in ("lower_nonincreasing", "upper_nonincreasing"):
        if verdict.get(side) is not True:
            problems.append(f"{side} is {verdict.get(side)!r}")
    rows = _csv_rows(files["tails.csv"])
    if sorted(int(r["T"]) for r in rows) != [32, 128]:
        problems.append(f"horizons {[r['T'] for r in rows]}")
    for r in rows:
        rate = float(r["ESS_or_acceptance"])
        if r["sampler"] != "metropolis" or not 0.05 <= rate <= 0.95:
            problems.append(f"T={r['T']}: {r['sampler']} acceptance {rate}")
    return problems


def _corrupt_tails(stdout, files, refs):
    return stdout.replace('"upper_nonincreasing":true',
                          '"upper_nonincreasing":false'), files


# -- importance-wide --------------------------------------------------------

def _importance_se(out, refs):
    """The op's standard error of Q_mean, at least the one the reference
    run implies at the op's size.  With few effective samples the op's own
    estimate is low exactly when the sample missed the rare large weights,
    which also pulls Q_mean low."""
    typical = refs["Q_mean"]["se"] * math.sqrt(refs["run"]["replicates"]
                                               / out["n"])
    return max(out["Q_se"], typical)


def _check_importance(stdout, files, refs):
    out = _json_tail(stdout)
    if out.get("n") != 2000 or out.get("base_measure") != "P_T":
        return [f"n={out.get('n')} base={out.get('base_measure')}"]
    se = _importance_se(out, refs)
    if _agree(out["Q_mean"], se, refs["Q_mean"]):
        return []
    return [f"Q_mean {out['Q_mean']} +- {se} vs reference {refs['Q_mean']}"]


def _corrupt_importance(stdout, files, refs):
    # move Q_mean ten combined standard errors further from the reference,
    # on the side it already lies, so the error always exceeds the tolerance
    out = _json_tail(stdout)
    ref = refs["Q_mean"]
    side = 1.0 if out["Q_mean"] >= ref["value"] else -1.0
    out["Q_mean"] += side * 10.0 * math.hypot(_importance_se(out, refs),
                                              ref["se"])
    return json.dumps(out) + "\n", files


# -- scaling-free -----------------------------------------------------------

def _check_scaling(stdout, files, refs):
    problems = []
    exponent = _json_tail(stdout)["fitted_exponent"]
    if not 0.9 < exponent < 1.1:
        problems.append(f"fitted exponent {exponent}")
    rows = _csv_rows(files["scaling.csv"])
    if [int(r["J"]) for r in rows] != [8, 16, 32, 64]:
        problems.append(f"widths {[r['J'] for r in rows]}")
    for r in rows:
        rel = abs(float(r["R_mean"]) / float(r["R_exact"]) - 1.0)
        if r["flagged"] != "false" or not rel <= 0.02:
            problems.append(f"J={r['J']}: R_mean off R_exact by {rel:.3%}")
    return problems


def _corrupt_scaling(stdout, files, refs):
    rows = _csv_rows(files["scaling.csv"])
    rows[-1]["R_mean"] = repr(float(rows[-1]["R_mean"]) * 1.05)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return stdout, {**files, "scaling.csv": buf.getvalue()}


# -- ldp-probe --------------------------------------------------------------

def _check_ldp(stdout, files, refs):
    problems = []
    rows = _csv_rows(stdout)
    rates = [r for r in rows if not r["T"]]
    if sorted(float(r["x_or_K"]) for r in rates) != [1.0, 2.0, 4.0]:
        problems.append(f"rate rows at {[r['x_or_K'] for r in rates]}")
    for r in rates:
        want = _closed_form_rate(0.6, float(r["x_or_K"]))
        if not abs(float(r["value"]) - want) <= 1e-9 * abs(want):
            problems.append(f"I({r['x_or_K']}) = {r['value']}, "
                            f"closed form {want}")
    probes = [r for r in rows if r["T"]]
    if len(probes) != 1:
        return problems + [f"{len(probes)} probe rows"]
    T, n = int(probes[0]["T"]), int(probes[0]["samples"])
    p = math.exp(-T * float(probes[0]["empirical"]))
    se = math.sqrt(p * (1.0 - p) / n)
    if (T, n) != (50, 2_000_000) or not _agree(p, se, refs["exceedance"]):
        problems.append(f"P(S_T > 3) = {p} +- {se} at T={T}, n={n} vs "
                        f"reference {refs['exceedance']}")
    return problems


def _corrupt_ldp(stdout, files, refs):
    lines = stdout.splitlines()
    cells = lines[-1].split(",")
    cells[4] = repr(float(cells[4]) * 0.9)
    return "\n".join(lines[:-1] + [",".join(cells)]) + "\n", files


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple           # CLI arguments, without --seed and --out
    samples_per_op: int   # replicates delivered by one op
    report_files: tuple   # files the op writes under --out
    check: object
    corrupt: object

    def argv(self, seed: int, out_dir: str) -> list:
        argv = [*self.args, "--seed", str(seed)]
        return argv + ["--out", out_dir] if self.report_files else argv


WORKLOADS = {w.name: w for w in (
    Workload("tails-metropolis",
             ("tails", "--J", "8", "--T-list", "32,128", "--beta", "0.02",
              "--epsilon", "0.5", "--K1", "0.2", "--K2", "0.3",
              "--replicates", "40"),
             40 * 2, ("tails.csv", "tails.jsonl"),
             _check_tails, _corrupt_tails),
    Workload("importance-wide",
             ("gibbs", "--J", "128", "--T", "64", "--beta", "0.0002",
              "--epsilon", "0.5", "--replicates", "2000",
              "--sampler", "importance"),
             2000, (), _check_importance, _corrupt_importance),
    Workload("scaling-free",
             ("scaling", "--J", "8,16,32,64", "--T", "512",
              "--replicates", "2000", "--convention", "paper"),
             2000 * 4, ("scaling.csv", "scaling_summary.jsonl"),
             _check_scaling, _corrupt_scaling),
    Workload("ldp-probe",
             ("ldp", "--rho", "0.6", "--x", "1,2,4", "--K", "3", "--T", "50",
              "--replicates", "2000000"),
             2_000_000, (), _check_ldp, _corrupt_ldp),
)}
