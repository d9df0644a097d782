"""Command-line front end.

Subcommands: spectra, simulate, variance-scan, gibbs, ldp, scaling,
tails, validate.  Each accepts only the flags it reads (`_COMMANDS`;
`polymerlab <cmd> --help`).  Exit codes: 0 success, 1 invariant
failure, 2 configuration error, unknown or misspelt flag (argparse) or
unwritable path, 3 sampler degeneracy.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .ar1 import AR1Params, rate_function, tail_probe
from .dynamics import sample_noise, simulate_recursion, write_trajectory_binary
from .experiments import (_FIELD_PARSERS, ConfigError, _json_line,
                          _parse_list, load_config, quantize12, rows_to_csv,
                          run_scaling_study, run_tail_probes,
                          run_validation_suite)
from .gibbs import (SAMPLERS, SamplerDegeneracyError, estimate_measure,
                    sample_measure)
from .increments import SCAN_FIELDS, SCAN_MIN_J, variance_scaling_scan
from .spectral import build_basis, cosecant_square_sum, normalizing_constant_c0

_LDP_FIELDS = ("rho", "sigma2", "x_or_K", "value", "empirical", "T",
               "samples")

# Every flag, declared once.  A flag whose dest is a StudyConfig key
# overrides that key of the config file and has no default of its own;
# the others are read off the parsed arguments by their one command.
_FLAGS = {
    "--config": dict(metavar="PATH", help="flat key=value study file"),
    "--J": dict(dest="J_list", metavar="J",
                help="string width; a comma list for scaling and "
                     "variance-scan"),
    "--T": dict(type=int, help="time horizon"),
    "--T-list": dict(dest="T_list", help="comma list of horizons"),
    "--seed": dict(type=int),
    "--kappa": dict(type=float),
    "--beta": dict(type=float),
    "--epsilon": dict(type=float),
    "--sampler": dict(choices=SAMPLERS),
    "--convention": dict(choices=("literal", "paper")),
    "--replicates": dict(type=int),
    "--out": dict(dest="output_dir", metavar="DIR", help="report directory"),
    "--drift": dict(type=float, default=0.0, help="mean of the noise"),
    "--format": dict(choices=("csv", "binary"), default="csv"),
    "--rho": dict(type=float, default=0.0),
    "--sigma2": dict(type=float, default=1.0),
    "--x": dict(default="0.5,1,2,5",
                help="comma list of rate-function arguments"),
    "--K": dict(type=float, help="tail threshold; adds a probe row"),
    "--K1": dict(type=float, default=0.2),
    "--K2": dict(type=float, default=0.3),
}

# study defaults of the commands that run one width: J = 8 unless the
# config file or --J names another
_ONE_WIDTH = {"J_list": (8,)}


def _write_or_print(text: str, out_dir, filename: str):
    if out_dir is None:
        sys.stdout.write(text)
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _cmd_spectra(cfg, args) -> int:
    J = cfg.one_width()
    basis = build_basis(J, cfg.kappa)
    rows = [{"m": m, "rho": quantize12(basis.rho[m]),
             "weight": quantize12(basis.a[m])} for m in range(J)]
    _write_or_print(rows_to_csv(("m", "rho", "weight"), rows),
                    cfg.output_dir, "spectra.csv")
    err = abs(cosecant_square_sum(J) - (J * J - 1) / 3.0)
    print(_json_line({"J": J, "kappa": cfg.kappa,
                      "c0": normalizing_constant_c0(J),
                      "csc2_identity_error": err}), file=sys.stderr)
    return 0 if err < 1e-9 else 1


def _cmd_simulate(cfg, args) -> int:
    J = cfg.one_width()
    if not np.isfinite(args.drift):
        raise ConfigError(f"--drift must be finite, got {args.drift}")
    noise = sample_noise(cfg.seed, cfg.T, J, args.drift)
    traj = simulate_recursion(np.zeros(J), noise, cfg.kappa)
    if args.format == "csv":
        rows = ({"t": t, "n": n, "u": u} for t, row in enumerate(traj.u)
                for n, u in enumerate(row))
        _write_or_print(rows_to_csv(("t", "n", "u"), rows), cfg.output_dir,
                        "trajectory.csv")
    else:
        if cfg.output_dir is None:
            raise ConfigError("binary output needs --out")
        os.makedirs(cfg.output_dir, exist_ok=True)
        path = os.path.join(cfg.output_dir, "trajectory.bin")
        write_trajectory_binary(traj, path)
        print(f"wrote {path}")
    return 0


def _cmd_variance_scan(cfg, args) -> int:
    if min(cfg.J_list) < SCAN_MIN_J:
        raise ConfigError(f"variance-scan needs widths J >= {SCAN_MIN_J}, "
                          f"got {min(cfg.J_list)}")
    result = variance_scaling_scan(cfg.J_list, cfg.convention, cfg.kappa)
    _write_or_print(rows_to_csv(SCAN_FIELDS, result.rows), cfg.output_dir,
                    "variance_scan.csv")
    print(_json_line({"convention": result.convention.value,
                      "min_ratio": result.min_ratio,
                      "max_ratio": result.max_ratio}), file=sys.stderr)
    return 0


def _cmd_gibbs(cfg, args) -> int:
    J = cfg.one_width()
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


def _cmd_ldp(cfg, args) -> int:
    xs = _parse_list(args.x, float)
    if not np.isfinite(xs).all():
        raise ConfigError(f"--x values must be finite, got {args.x!r}")
    if args.K is not None and not np.isfinite(args.K):
        raise ConfigError(f"--K must be finite, got {args.K}")
    # AR1Params, the zero-variance check and tail_probe's threshold check
    # reject rho, sigma2 and K from the flags: bad configuration
    try:
        params = AR1Params(rho=args.rho, sigma2=args.sigma2)
        values = [rate_function(params, x) for x in xs]
        probe = (None if args.K is None else
                 tail_probe(params, cfg.T, args.K, cfg.replicates, cfg.seed))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [{"rho": params.rho, "sigma2": params.sigma2,
             "x_or_K": quantize12(x), "value": quantize12(v)}
            for x, v in zip(xs, values)]
    if probe is not None:
        rows.append({"rho": params.rho, "sigma2": params.sigma2,
                     "x_or_K": quantize12(args.K),
                     "value": quantize12(probe["rate_at_K"]),
                     "empirical": quantize12(
                         probe["empirical_log_prob_over_T"]),
                     "T": cfg.T, "samples": cfg.replicates})
    _write_or_print(rows_to_csv(_LDP_FIELDS, rows), cfg.output_dir,
                    "ldp.csv")
    return 0


def _cmd_scaling(cfg, args) -> int:
    meta = run_scaling_study(cfg).meta
    print(_json_line({k: meta[k] for k in ("fitted_exponent", "exponent_se",
                                           "n_used", "convention")}))
    return 0


def _cmd_tails(cfg, args) -> int:
    print(_json_line(run_tail_probes(cfg, args.K1, args.K2).meta))
    return 0


def _cmd_validate(cfg, args) -> int:
    report = run_validation_suite(cfg)
    for check in report.rows:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}: {check['detail']}")
    print(f"{sum(c['passed'] for c in report.rows)}/"
          f"{report.meta['n_checks']} checks passed")
    return 0 if report.meta["passed"] else 1


# subcommand -> (handler, help, the flags it reads, study defaults)
_COMMANDS = {
    "spectra": (_cmd_spectra, "eigenvalue and weight table",
                "--config --J --kappa --out", _ONE_WIDTH),
    "simulate": (_cmd_simulate, "one free trajectory",
                 "--config --J --T --seed --kappa --drift --format --out",
                 _ONE_WIDTH),
    "variance-scan": (_cmd_variance_scan,
                      "increment variances across widths",
                      "--config --J --convention --out", None),
    "gibbs": (_cmd_gibbs, "reweighted ensemble estimate",
              "--config --J --T --beta --epsilon --seed --sampler "
              "--convention --replicates", _ONE_WIDTH),
    "ldp": (_cmd_ldp, "rate-function table and tail probe",
            "--config --T --seed --replicates --out --rho --sigma2 --x --K",
            None),
    "scaling": (_cmd_scaling, "gyration radius versus width",
                "--config --J --T --beta --epsilon --seed --sampler "
                "--convention --replicates --out", None),
    "tails": (_cmd_tails, "R tail probabilities across horizons",
              "--config --J --T-list --beta --epsilon --seed --convention "
              "--replicates --out --K1 --K2", _ONE_WIDTH),
    "validate": (_cmd_validate, "run every invariant check",
                 "--config --seed --out", None),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polymerlab",
        description="moving-polymer simulation laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, text, flags, _) in _COMMANDS.items():
        # no prefix matching: tails would take --T for --T-list
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, _, defaults = _COMMANDS[args.command]
    overrides = {k: v for k, v in vars(args).items() if k in _FIELD_PARSERS}
    try:
        return handler(load_config(args.config, overrides, defaults), args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except SamplerDegeneracyError as exc:
        print(f"sampler degeneracy: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
