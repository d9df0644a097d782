"""Command-line front end.

Subcommands: spectra, simulate, variance-scan, gibbs, ldp, scaling,
tails, validate.  Exit codes: 0 success, 1 invariant failure, 2
configuration error (argparse uses the same code for bad flags), 3
sampler degeneracy.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .ar1 import AR1Params, rate_function, tail_probe
from .dynamics import (sample_noise, simulate_recursion, trajectory_to_csv,
                       write_trajectory_binary)
from .experiments import (ConfigError, StudyConfig, _json_line, load_config,
                          quantize12, rows_to_csv, run_scaling_study,
                          run_tail_probes, run_validation_suite)
from .gibbs import SamplerDegeneracyError, estimate_measure, sample_measure
from .increments import variance_scaling_scan
from .spectral import build_basis, cosecant_square_sum, normalizing_constant_c0

_SCAN_FIELDS = ("J", "i", "j", "d", "convention", "variance", "ratio",
                "reflected_i", "reflected_j", "reflected_variance")
_LDP_FIELDS = ("rho", "sigma2", "x_or_K", "value", "empirical", "T",
               "samples")


def _shared_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH",
                   help="flat key=value study file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", metavar="DIR", help="report directory")
    p.add_argument("--convention", choices=("literal", "paper"))
    p.add_argument("--sampler", choices=("importance", "metropolis", "auto"))
    p.add_argument("--J", help="string width, or comma list for scans")
    p.add_argument("--T", type=int, help="time horizon")
    p.add_argument("--beta", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--drift", type=float)
    p.add_argument("--replicates", type=int)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polymerlab",
        description="moving-polymer simulation laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectra", help="eigenvalue and weight table")
    _shared_flags(p)
    p.add_argument("--kappa", type=float, default=0.5)

    p = sub.add_parser("simulate", help="one free trajectory")
    _shared_flags(p)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--format", choices=("csv", "binary"), default="csv")

    p = sub.add_parser("variance-scan",
                       help="increment variances across widths")
    _shared_flags(p)

    p = sub.add_parser("gibbs", help="reweighted ensemble estimate")
    _shared_flags(p)

    p = sub.add_parser("ldp", help="rate-function table and tail probe")
    _shared_flags(p)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--x", default="0.5,1,2,5",
                   help="comma list of rate-function arguments")
    p.add_argument("--K", type=float, help="tail threshold; adds a probe row")

    p = sub.add_parser("scaling", help="gyration radius versus width")
    _shared_flags(p)

    p = sub.add_parser("tails", help="R tail probabilities across horizons")
    _shared_flags(p)
    p.add_argument("--K1", type=float, default=0.2)
    p.add_argument("--K2", type=float, default=0.3)
    p.add_argument("--T-list", dest="T_list",
                   help="comma list of horizons")

    p = sub.add_parser("validate", help="run every invariant check")
    _shared_flags(p)
    return ap


def _config_from(args) -> StudyConfig:
    overrides = {"seed": getattr(args, "seed", None),
                 "convention": getattr(args, "convention", None),
                 "sampler": getattr(args, "sampler", None),
                 "J_list": getattr(args, "J", None),
                 "T": getattr(args, "T", None),
                 "T_list": getattr(args, "T_list", None),
                 "beta": getattr(args, "beta", None),
                 "epsilon": getattr(args, "epsilon", None),
                 "drift": getattr(args, "drift", None),
                 "replicates": getattr(args, "replicates", None),
                 "output_dir": getattr(args, "out", None)}
    if getattr(args, "kappa", None) is not None:
        overrides["kappa"] = args.kappa
    return load_config(getattr(args, "config", None), overrides)


def _write_or_print(text: str, out_dir, filename: str):
    if out_dir is None:
        sys.stdout.write(text)
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _cmd_spectra(args) -> int:
    cfg = _config_from(args)
    J = cfg.J_list[0]
    basis = build_basis(J, cfg.kappa)
    rows = [{"m": m, "rho": quantize12(basis.rho[m]),
             "weight": quantize12(basis.a[m])} for m in range(J)]
    _write_or_print(rows_to_csv(("m", "rho", "weight"), rows),
                    cfg.output_dir, "spectra.csv")
    err = abs(cosecant_square_sum(J) - (J * J - 1) / 3.0)
    print(_json_line({"J": J, "kappa": cfg.kappa,
                      "c0": normalizing_constant_c0(J) if J >= 2 else None,
                      "csc2_identity_error": err}), file=sys.stderr)
    return 0 if err < 1e-9 else 1


def _cmd_simulate(args) -> int:
    cfg = _config_from(args)
    J = cfg.J_list[0]
    noise = sample_noise(cfg.seed, cfg.T, J, cfg.drift)
    traj = simulate_recursion(np.zeros(J), noise, cfg.kappa)
    if args.format == "csv":
        _write_or_print(trajectory_to_csv(traj), cfg.output_dir,
                        "trajectory.csv")
    else:
        if cfg.output_dir is None:
            raise ConfigError("binary output needs --out")
        os.makedirs(cfg.output_dir, exist_ok=True)
        path = os.path.join(cfg.output_dir, "trajectory.bin")
        write_trajectory_binary(traj, path)
        print(f"wrote {path}")
    return 0


def _cmd_variance_scan(args) -> int:
    cfg = _config_from(args)
    result = variance_scaling_scan(cfg.J_list, cfg.convention, cfg.kappa)
    rows = []
    for r in result.rows:
        rows.append({"J": r.J, "i": r.i, "j": r.j, "d": r.d,
                     "convention": r.convention.value,
                     "variance": quantize12(r.variance),
                     "ratio": quantize12(r.ratio),
                     "reflected_i": r.reflected_i,
                     "reflected_j": r.reflected_j,
                     "reflected_variance": quantize12(r.reflected_variance)})
    _write_or_print(rows_to_csv(_SCAN_FIELDS, rows), cfg.output_dir,
                    "variance_scan.csv")
    print(_json_line({"convention": result.convention.value,
                      "min_ratio": result.min_ratio,
                      "max_ratio": result.max_ratio}), file=sys.stderr)
    return 0


def _cmd_gibbs(args) -> int:
    cfg = _config_from(args)
    if cfg.drift != 0.0:
        raise ConfigError("gibbs takes no drift: a uniform drift changes "
                          "neither R nor the pair counts")
    J = cfg.J_list[0]
    ens = sample_measure(build_basis(J, cfg.kappa), cfg.T, cfg.beta,
                         cfg.epsilon, cfg.replicates, cfg.seed, cfg.sampler,
                         cfg.ess_floor, conv=cfg.convention)
    est = estimate_measure(ens, "R", ess_floor=cfg.ess_floor)
    out = {"J": J, "T": cfg.T, "beta": cfg.beta, "epsilon": cfg.epsilon,
           "base_measure": ens.base_measure, **est}
    out.update({k: quantize12(v) for k, v in ens.diagnostics.items()
                if isinstance(v, float)})
    print(_json_line(out))
    return 0


def _cmd_ldp(args) -> int:
    cfg = _config_from(args)
    params = AR1Params(rho=args.rho, sigma2=args.sigma2)
    rows = []
    for x in (float(p) for p in args.x.split(",") if p.strip()):
        rows.append({"rho": params.rho, "sigma2": params.sigma2,
                     "x_or_K": quantize12(x),
                     "value": quantize12(rate_function(params, x))})
    if args.K is not None:
        probe = tail_probe(params, cfg.T, args.K, cfg.replicates, cfg.seed)
        rows.append({"rho": params.rho, "sigma2": params.sigma2,
                     "x_or_K": quantize12(args.K),
                     "value": quantize12(probe["rate_at_K"]),
                     "empirical": quantize12(
                         probe["empirical_log_prob_over_T"]),
                     "T": cfg.T, "samples": cfg.replicates})
    _write_or_print(rows_to_csv(_LDP_FIELDS, rows), cfg.output_dir,
                    "ldp.csv")
    return 0


def _cmd_scaling(args) -> int:
    cfg = _config_from(args)
    report = run_scaling_study(cfg)
    print(_json_line({"fitted_exponent": report.fitted_exponent,
                      "exponent_se": report.exponent_se,
                      "n_used": report.n_used,
                      "convention": report.convention.value}))
    return 0


def _cmd_tails(args) -> int:
    cfg = _config_from(args)
    result = run_tail_probes(cfg, args.K1, args.K2)
    print(_json_line({"K1": result["K1"], "K2": result["K2"],
                      "lower_nonincreasing": result["lower_nonincreasing"],
                      "upper_nonincreasing": result["upper_nonincreasing"]}))
    return 0


def _cmd_validate(args) -> int:
    cfg = _config_from(args)
    report = run_validation_suite(cfg)
    for check in report.checks:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}: {check['detail']}")
    print(f"{sum(c['passed'] for c in report.checks)}/"
          f"{len(report.checks)} checks passed")
    return 0 if report.passed else 1


_DISPATCH = {
    "spectra": _cmd_spectra,
    "simulate": _cmd_simulate,
    "variance-scan": _cmd_variance_scan,
    "gibbs": _cmd_gibbs,
    "ldp": _cmd_ldp,
    "scaling": _cmd_scaling,
    "tails": _cmd_tails,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SamplerDegeneracyError as exc:
        print(f"sampler degeneracy: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
