"""Experiment drivers and report plumbing.

Everything here is batch-oriented and deterministic: a study config
(flat key=value file plus overrides) fully determines the output bytes.
Random streams are derived per cell from the base seed with fixed tags,
so thread scheduling cannot reorder randomness, and report assembly is
single-threaded in declared order.

A Report holds its rows and meta as its files hold them: building it
rounds every float to 12 significant digits, so emission reproduces the
stored values exactly and a re-parsed file equals the Report.
"""

from __future__ import annotations

import csv
import io
import json
import os
import typing
from dataclasses import dataclass, replace

import numpy as np

from .ar1 import (AR1Params, legendre_rate, mode_decompose, rate_function,
                  reconstruct_centered, square_sums)
from .dynamics import (counter_rng, free_modes, map_costliest_first,
                       sample_noise, simulate_recursion, solution_formula)
from .gibbs import (SAMPLERS, SamplerDegeneracyError, _checked_weights,
                    jensen_lower_bound, sample_measure)
from .increments import monte_carlo_increment_check
from .observables import local_inequality_check, radius_of_gyration
from .spectral import (MAX_J, Basis, Convention, build_basis,
                       cosecant_square_sum, green_function,
                       normalizing_constant_c0, transition_matrix_power)

SCHEMA_VERSION = "1.0"


class ConfigError(ValueError):
    """Bad key, bad value, or unreadable study configuration."""


def _parse_list(s, kind=int):
    """A comma list (or a sequence) of `kind`, as a tuple."""
    try:
        if isinstance(s, (tuple, list)):
            return tuple(kind(p) for p in s)
        return tuple(kind(p) for p in str(s).split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad {kind.__name__} list {s!r}") from exc


def _parse_convention(s):
    if isinstance(s, Convention):
        return s
    try:
        return Convention(str(s).lower())
    except ValueError as exc:
        raise ConfigError(f"unknown convention {s!r}") from exc


@dataclass(frozen=True)
class StudyConfig:
    """Validated experiment parameters.

    `replicates` is the per-cell sample count; `T_list` carries the
    horizons for tail probes (scaling uses the single `T`).
    `output_dir=None` means drivers return reports without writing.
    """

    J_list: tuple = (8, 16, 32, 64)
    T: int = 512
    T_list: tuple = None
    kappa: float = 0.5
    beta: float = 0.0
    epsilon: float = 0.5
    convention: Convention = Convention.LITERAL
    sampler: str = "importance"
    seed: int = 0
    replicates: int = 1000
    ess_floor: float = 50.0
    output_dir: str = None

    def __post_init__(self):
        object.__setattr__(self, "J_list", tuple(self.J_list))
        if self.T_list is not None:
            object.__setattr__(self, "T_list", tuple(self.T_list))
        object.__setattr__(self, "convention",
                           _parse_convention(self.convention))
        if not self.J_list or any(int(J) < 2 for J in self.J_list):
            raise ConfigError("J_list needs entries >= 2")
        if any(int(J) > MAX_J for J in self.J_list):
            raise ConfigError(f"J_list entries must not exceed MAX_J = "
                              f"{MAX_J}")
        if self.T < 1:
            raise ConfigError("T must be positive")
        if self.T_list is not None and any(t < 1 for t in self.T_list):
            raise ConfigError("T_list entries must be positive")
        # a repeated width or horizon would count one cell twice in a fit
        # or a trend
        for name in ("J_list", "T_list"):
            values = getattr(self, name) or ()
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats an entry: "
                                  + ",".join(map(str, values)))
        if not 0.0 < self.kappa <= 0.5:
            raise ConfigError("kappa must lie in (0, 1/2]")
        if not 0.0 <= self.beta < np.inf:
            raise ConfigError("beta must be finite and nonnegative")
        if not 0.0 < self.epsilon < np.inf:
            raise ConfigError("epsilon must be finite and positive")
        if self.sampler not in SAMPLERS:
            raise ConfigError(f"sampler must be one of {SAMPLERS}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.replicates < 1:
            raise ConfigError("replicates must be positive")
        if self.ess_floor <= 0.0:
            raise ConfigError("ess_floor must be positive")

    def one_width(self) -> int:
        """The width of a driver that runs one: J_list's only entry."""
        if len(self.J_list) > 1:
            raise ConfigError("one width expected, got J_list = "
                              + ",".join(map(str, self.J_list)))
        return self.J_list[0]


# one parser per StudyConfig key, read off the field's annotation
_FIELD_PARSERS = {
    name: {tuple: _parse_list, int: int, float: float, str: str,
           Convention: _parse_convention}[kind]
    for name, kind in typing.get_type_hints(StudyConfig).items()}


def _parse_field(key: str, val, where: str):
    """One config value through its key's parser; any failure is a
    ConfigError whose message starts with `where`."""
    if key not in _FIELD_PARSERS:
        raise ConfigError(f"{where}unknown key {key!r}")
    try:
        return _FIELD_PARSERS[key](val)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}bad value for {key}: {val!r}") from exc


def parse_config_text(text: str) -> dict:
    """Flat key=value lines; '#' starts a comment; unknown keys are hard
    errors because a silently dropped beta or epsilon corrupts a study."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got "
                              f"{raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        out[key] = _parse_field(key, val.strip(), f"line {lineno}: ")
    return out


def load_config(path: str = None, overrides: dict = None,
                defaults: dict = None) -> StudyConfig:
    """Defaults, then the config file, then overrides, then validation."""
    values = dict(defaults or {})
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = _parse_field(key, val, "override: ")
    try:
        return StudyConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def quantize12(x):
    """Round a float to 12 significant digits, the storage precision of
    every report float; emitting and re-parsing such a value is lossless.
    Any other value is returned as it is."""
    return float(f"{x:.12g}") if isinstance(x, float) else x


@dataclass(frozen=True)
class Report:
    """One study's result, in the form its files hold it.

    `kind` names the study and its files, `fields` orders the row
    columns, `rows` holds one dict per row over exactly `fields`, in
    field order, and `meta` holds the JSONL header keys that follow
    schema_version and kind.  Building a Report stores them so: a missing
    field becomes None, every float is rounded by quantize12, and a row
    key outside `fields` raises ValueError.
    """

    kind: str
    fields: tuple
    rows: tuple
    meta: dict

    def __post_init__(self):
        for row in self.rows:
            extra = sorted(set(row) - set(self.fields))
            if extra:
                raise ValueError(f"{self.kind} row keys {extra} are not "
                                 f"among its fields")
        object.__setattr__(self, "rows", tuple(
            {k: quantize12(row.get(k)) for k in self.fields}
            for row in self.rows))
        object.__setattr__(self, "meta", {k: quantize12(v)
                                          for k, v in self.meta.items()})


# ---------------------------------------------------------------------------
# scaling study


def scaling_exact_r2(basis: Basis, T: int,
                     conv: Convention = Convention.LITERAL,
                     init: str = "stationary") -> float:
    """Closed-form E[R^2] of the free string.

    Parseval reduces R^2 to (1/(T J)) sum_m sum_t Var X_t^(m), which
    FreeModes.variance_sum gives per mode.
    """
    var_sum = free_modes(basis, conv, init).variance_sum(T)
    return float(var_sum.sum() / (T * basis.J))


def _stationary_mode_r(basis: Basis, T: int, reps: int, rng,
                       conv: Convention) -> np.ndarray:
    """Per-replicate gyration radius of stationary free trajectories:
    an exact stationary draw of the modes m >= 1, stepped by
    ar1.square_sums, which keeps memory O(reps*J) for any T."""
    modes = free_modes(basis, conv, "stationary")
    return np.sqrt(square_sums(rng, modes.rho, modes.sig,
                               modes.start(rng, reps), T) / (T * basis.J))


def _weighted_rms_quantiles(R: np.ndarray, w: np.ndarray):
    """Quadratic mean and 5 %/95 % quantiles of R under the weights w."""
    wn = w / w.sum()
    rms = float(np.sqrt(np.dot(wn, R ** 2)))
    order = np.argsort(R)
    cum = np.cumsum(wn[order])
    return rms, [float(R[order][np.searchsorted(cum, q)])
                 for q in (0.05, 0.95)]


def _stationary_cell_r(config: StudyConfig, basis: Basis, T: int, key: int,
                       tag: int, sampler: str):
    """Gyration radii of one study cell started from the stationary law:
    sampled directly at beta=0, through sample_measure otherwise.
    Returns (R, max-shifted weights or None, ESS or acceptance, sampler
    label, why AUTO fell back to the chain or None)."""
    reps, conv = config.replicates, config.convention
    if config.beta == 0.0:
        rng = counter_rng(config.seed, tag, key)
        return (_stationary_mode_r(basis, T, reps, rng, conv), None,
                float(reps), "direct", None)
    ens = sample_measure(basis, T, config.beta, config.epsilon, reps,
                         config.seed * 1000003 + key, sampler,
                         config.ess_floor, "stationary", conv)
    R = ens.obs["R"]
    if ens.base_measure == "P_T":
        return (R, *_checked_weights(ens, config.ess_floor), "importance",
                None)
    return (R, None, ens.diagnostics["acceptance_rate"], "metropolis",
            ens.diagnostics.get("fallback"))


def _scaling_cell(config: StudyConfig, J: int) -> dict:
    """One J row; a sampler degeneracy flags the row instead of failing
    the study and leaves its R cells empty, and a frozen string, whose
    modes m >= 1 have no innovation (J = 2 under PAPER at kappa = 1/2),
    flags its row too: its R is 0, and log R has no place in the fit.
    `detail` says why a row is flagged, or why AUTO fell back to the
    chain."""
    basis = build_basis(J, config.kappa)
    exact = np.sqrt(scaling_exact_r2(basis, config.T, config.convention))
    row = {"J": J, "beta": config.beta, "flagged": False, "R_exact": exact}
    if not free_modes(basis, config.convention, "stationary").sig.any():
        row.update({"R_mean": 0.0, "R_q05": 0.0, "R_q95": 0.0,
                    "ESS_or_acceptance": 0.0, "sampler": "none",
                    "flagged": True, "detail": "frozen string"})
        return row
    try:
        R, w, diag, label, detail = _stationary_cell_r(
            config, basis, config.T, J, 10, config.sampler)
    except SamplerDegeneracyError as exc:
        row.update({"ESS_or_acceptance": 0.0, "sampler": config.sampler,
                    "flagged": True, "detail": str(exc)})
        return row

    if w is None:
        rms = float(np.sqrt(np.mean(R ** 2)))
        q05, q95 = np.quantile(R, [0.05, 0.95])
    else:
        rms, (q05, q95) = _weighted_rms_quantiles(R, w)
    row.update({"R_mean": rms, "R_q05": q05, "R_q95": q95,
                "ESS_or_acceptance": diag, "sampler": label,
                "detail": detail})
    return row


_SCALING_FIELDS = ("J", "beta", "R_mean", "R_q05", "R_q95",
                   "ESS_or_acceptance", "sampler", "flagged", "R_exact",
                   "detail")
# rows the log-log fit needs: a slope and a residual degree of freedom
_FIT_MIN_ROWS = 3


def _slope_with_se(x: np.ndarray, y: np.ndarray):
    """Least-squares slope and its standard error, on at least
    _FIT_MIN_ROWS points."""
    n = len(x)
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    se = float(np.sqrt(np.dot(resid, resid) / (n - 2) / np.dot(xc, xc)))
    return slope, se


def run_scaling_study(config: StudyConfig) -> Report:
    """Gyration radius versus string width, as a "scaling" Report.

    Cells run on one thread per usable CPU, widest first since a cell's
    cost grows with J, each from its own seed stream; rows are
    assembled in J_list order, so the bytes do not depend on the
    number of workers.  R_mean is the quadratic mean of R over
    replicates, matched against the closed-form column R_exact.  The
    log-log slope is fitted over unflagged rows: fewer than
    _FIT_MIN_ROWS widths is a configuration error, raised before any cell
    runs, and fewer unflagged rows raises the degeneracy error.  `meta`
    holds convention, T, beta, fitted_exponent, exponent_se and n_used.
    With output_dir set, creates it before any cell runs and writes
    scaling.csv and scaling_summary.jsonl.
    """
    if len(config.J_list) < _FIT_MIN_ROWS:
        raise ConfigError(f"scaling needs at least {_FIT_MIN_ROWS} widths "
                          f"for the exponent fit, got {len(config.J_list)}")
    if config.output_dir is not None:
        os.makedirs(config.output_dir, exist_ok=True)
    report = Report("scaling", _SCALING_FIELDS, map_costliest_first(
        lambda J: _scaling_cell(config, J), config.J_list,
        cost=lambda J: J), {})
    used = [r for r in report.rows if not r["flagged"]]
    if len(used) < _FIT_MIN_ROWS:
        raise SamplerDegeneracyError(
            f"only {len(used)} usable rows; the exponent fit needs "
            f"{_FIT_MIN_ROWS}")
    x = np.log([r["J"] for r in used])
    y = np.log([r["R_mean"] for r in used])
    slope, se = _slope_with_se(x, y)
    report = replace(report, meta={
        "convention": config.convention.value, "T": config.T,
        "beta": config.beta, "fitted_exponent": slope, "exponent_se": se,
        "n_used": len(used)})
    if config.output_dir is not None:
        emit_report(report, "csv", config.output_dir)
        emit_report(report, "jsonl", config.output_dir)
    return report


# ---------------------------------------------------------------------------
# tail probes


def _tail_cell(config: StudyConfig, T: int, K1: float, K2: float) -> dict:
    J = config.one_width()
    basis = build_basis(J, config.kappa)
    R, _, diag, label, _ = _stationary_cell_r(config, basis, T, T, 20,
                                              "metropolis")
    n = len(R)
    lo_count = int(np.count_nonzero(R < K1 * J))
    hi_count = int(np.count_nonzero(R > K2 * J))

    def se(count):
        # add-one smoothing keeps the error bar positive at zero counts
        p = (count + 1.0) / (n + 2.0)
        return float(np.sqrt(p * (1.0 - p) / n))

    return {"T": T, "lower_prob": lo_count / n, "lower_se": se(lo_count),
            "lower_count": lo_count, "upper_prob": hi_count / n,
            "upper_se": se(hi_count), "upper_count": hi_count,
            "lower_underpowered": lo_count < 20,
            "upper_underpowered": hi_count < 20,
            "sampler": label, "ESS_or_acceptance": diag}


_TAIL_FIELDS = ("T", "lower_prob", "lower_se", "lower_count", "upper_prob",
                "upper_se", "upper_count", "lower_underpowered",
                "upper_underpowered", "sampler", "ESS_or_acceptance")


def run_tail_probes(config: StudyConfig, K1: float, K2: float) -> Report:
    """P(R < K1*J) and P(R > K2*J) across the horizons in T_list, as a
    "tails" Report whose `meta` holds K1, K2 and a nonincreasing-in-T
    verdict per tail at three combined standard errors.  Sampling is
    stationary-start (direct at beta=0, Metropolis otherwise) so horizon
    comparisons are not confounded by the burn-in transient.  An
    output_dir is created before sampling, and tails.csv and tails.jsonl
    are written to it.

    The horizons run in increasing order in the calling thread.  Each is
    a mostly pure-Python Metropolis chain that holds the interpreter
    lock, so a thread per horizon only added lock hand-offs, and took
    more CPU and wall time than this loop."""
    if not 0.0 <= K1 < K2 < np.inf:
        raise ConfigError("need finite 0 <= K1 < K2")
    if config.T_list is None or len(config.T_list) < 2:
        raise ConfigError("tail probes need T_list with at least two "
                          "horizons")
    if config.output_dir is not None:
        os.makedirs(config.output_dir, exist_ok=True)
    report = Report("tails", _TAIL_FIELDS,
                    [_tail_cell(config, T, K1, K2)
                     for T in sorted(config.T_list)], {"K1": K1, "K2": K2})
    rows = report.rows

    def nonincreasing(side):
        for prev, cur in zip(rows, rows[1:]):
            slack = 3.0 * float(np.hypot(prev[f"{side}_se"],
                                         cur[f"{side}_se"]))
            if cur[f"{side}_prob"] > prev[f"{side}_prob"] + slack:
                return False
        return True

    report = replace(report, meta={
        **report.meta, "lower_nonincreasing": nonincreasing("lower"),
        "upper_nonincreasing": nonincreasing("upper")})
    if config.output_dir is not None:
        emit_report(report, "csv", config.output_dir)
        emit_report(report, "jsonl", config.output_dir)
    return report


# ---------------------------------------------------------------------------
# validation suite

_CHECKS = []


def validation_check(name):
    def deco(fn):
        _CHECKS.append((name, fn))
        return fn
    return deco


def validation_manifest() -> tuple:
    """Check names in execution order, generated from the registry."""
    return tuple(name for name, _ in _CHECKS)


@validation_check("trig_identity")
def _check_trig(config):
    worst = max(abs(cosecant_square_sum(J) - (J * J - 1) / 3.0)
                for J in range(2, 129))
    return (worst < 1e-9, f"max |sum csc^2 - (J^2-1)/3| = {worst:.3g}")


@validation_check("normalizing_constant")
def _check_c0(config):
    worst = 0.0
    for J in (2, 3, 8, 17, 64):
        basis = build_basis(J)
        s = float(np.sum(1.0 / (1.0 - basis.rho[1:] ** 2)))
        worst = max(worst, abs(normalizing_constant_c0(J) * s - 1.0))
    return (worst < 1e-9, f"max |c0 * sum 1/(1-rho^2) - 1| = {worst:.3g}")


@validation_check("kernel_oracle")
def _check_kernel(config):
    worst = 0.0
    for J in (2, 5, 16):
        basis = build_basis(J)
        for t in (0, 1, 7, 16):
            G = green_function(basis, t)
            P = transition_matrix_power(J, t)
            worst = max(worst, float(np.abs(G - P).max()))
    return (worst < 1e-10, f"max |G_t - P^t| = {worst:.3g}")


@validation_check("kernel_negative_control")
def _check_kernel_negative(config):
    # corrupted exponent must be caught by the oracle comparison
    basis = build_basis(8)
    G_bad = green_function(basis, 8)
    P = transition_matrix_power(8, 7)
    diff = float(np.abs(G_bad - P).max())
    return (diff > 1e-6,
            f"corrupted-exponent kernel differs from P^t by {diff:.3g}")


@validation_check("solution_vs_recursion")
def _check_solution(config):
    basis = build_basis(8)
    worst = 0.0
    for s in range(3):
        noise = sample_noise(1234 + s, 16, 8)
        u0 = np.zeros(8)
        a = simulate_recursion(u0, noise)
        b = solution_formula(u0, noise, basis)
        worst = max(worst, float(np.abs(a.u - b.u).max()))
    return (worst < 1e-9, f"max |recursion - formula| = {worst:.3g}")


@validation_check("mean_mode_split")
def _check_mean_split(config):
    # the site average moves as a pure noise average: P preserves row sums
    noise = sample_noise(99, 32, 8)
    u0 = np.linspace(-1.0, 1.0, 8)
    traj = simulate_recursion(u0, noise)
    ubar = traj.u.mean(axis=1)
    walk = u0.mean() + np.concatenate(
        [[0.0], np.cumsum(noise.xi.mean(axis=1))])
    worst = float(np.abs(ubar - walk).max())
    return (worst < 1e-12, f"max |ubar - noise walk| = {worst:.3g}")


@validation_check("mean_variance_growth")
def _check_mean_variance(config):
    t, J, n = 4, 8, 100_000
    rng = counter_rng(config.seed, 31)
    steps = rng.standard_normal((n, t, J)).mean(axis=2).sum(axis=1)
    var = float(steps.var(ddof=1))
    rel = abs(var - t / J) / (t / J)
    return (rel < 0.05, f"Var[ubar(t)-ubar(0)] rel err {rel:.3%} at t={t}")


@validation_check("increment_oracle")
def _check_increments(config):
    basis = build_basis(8)
    msgs = []
    ok = True
    for conv in (Convention.LITERAL, Convention.PAPER):
        r = monte_carlo_increment_check(basis, 0, 3, conv, 20_000,
                                        config.seed + 7)
        ok &= (abs(r["mc_mean"]) < 5 * r["mean_se"]
               and r["variance_rel_err"] < 0.05)
        msgs.append(f"{conv.value}: var rel err {r['variance_rel_err']:.3%}")
    return ok, "; ".join(msgs)


@validation_check("jensen_bound")
def _check_jensen(config):
    basis = build_basis(4)
    r = jensen_lower_bound(basis, 8, 0.1, 0.5, 20_000, config.seed + 11)
    return (r["holds"],
            f"logZ/T {r['logZ_over_T']:.4f} vs bound {r['bound']:.4f}")


@validation_check("local_inequality")
def _check_local_inequality(config):
    rng = counter_rng(config.seed, 41)
    J = 8
    rows = 3.0 * rng.standard_normal((2000, J))
    bad = 0
    for row in rows:
        rep = local_inequality_check(row, 0.5)
        bad += not (rep.holds and J <= rep.lhs <= J * J)
    return (bad == 0, f"{bad} violations in 2000 random rows")


@validation_check("scaling_oracle_mc")
def _check_scaling_mc(config):
    basis = build_basis(16)
    rng = counter_rng(config.seed, 51)
    R = _stationary_mode_r(basis, 64, 400, rng, Convention.LITERAL)
    rms = float(np.sqrt(np.mean(R ** 2)))
    exact = np.sqrt(scaling_exact_r2(basis, 64))
    rel = abs(rms - exact) / exact
    return (rel < 0.05, f"rms rel err {rel:.3%} vs closed form")


@validation_check("legendre_vs_rate")
def _check_legendre(config):
    xs = np.array([0.5, 1.0, 2.0, 5.0])
    worst = max(float(np.abs(legendre_rate(p, xs)
                             - rate_function(p, xs)).max())
                for p in (AR1Params(0.5, 1.0), AR1Params(-0.6, 1.0)))
    return (worst < 1e-4, f"max |Legendre - rate| = {worst:.3g}")


@validation_check("mode_reconstruction")
def _check_reconstruction(config):
    basis = build_basis(8)
    noise = sample_noise(5, 16, 8)
    traj = simulate_recursion(np.zeros(8), noise)
    modes = mode_decompose(traj, basis)
    centered = traj.u[1:] - traj.u[1:].mean(axis=1, keepdims=True)
    worst = float(np.abs(reconstruct_centered(modes, basis)
                         - centered).max())
    # Parseval: R^2 = (1/J) sum_m S_T^(m) over the orthonormal modes
    r2_spectral = sum(float(np.mean(x ** 2)) for x in modes.T) / basis.J
    parseval = abs(r2_spectral / radius_of_gyration(traj) ** 2 - 1.0)
    return (worst < 1e-9 and parseval < 1e-9,
            f"max reconstruction error {worst:.3g}, "
            f"Parseval |R^2 spectral / direct - 1| = {parseval:.3g}")


@validation_check("report_roundtrip")
def _check_roundtrip(config):
    row = {"J": 8, "beta": 0.0, "R_mean": 1.6180339887654, "R_q05": 0.5,
           "R_q95": 2.5, "ESS_or_acceptance": 100.0, "sampler": "direct",
           "flagged": True, "R_exact": 1.62, "detail": 'a "quoted", cell'}
    report = Report("scaling", _SCALING_FIELDS, (row,), {})
    text = rows_to_csv(report.fields, report.rows)
    if text != rows_to_csv(report.fields, report.rows):
        return False, "emission is not deterministic"
    if parse_report_csv(text) != list(report.rows):
        return False, "a parsed row differs from the stored row"
    return True, "byte-stable and parse-back exact"


def run_validation_suite(config: StudyConfig = None) -> Report:
    """Run every registered invariant check with seeds derived from the
    config, as a "validation" Report with one name, passed, detail row
    per check.  `meta` holds the overall verdict, the check count and
    the manifest, which is the registry itself, never a hand-kept list.
    With output_dir set, writes validation.jsonl.
    """
    config = config or StudyConfig()
    results = []
    for name, fn in _CHECKS:
        try:
            passed, detail = fn(config)
        except Exception as exc:        # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": bool(passed),
                        "detail": detail})
    report = Report("validation", ("name", "passed", "detail"),
                    tuple(results),
                    {"passed": all(r["passed"] for r in results),
                     "n_checks": len(results),
                     "manifest": list(validation_manifest())})
    if config.output_dir is not None:
        emit_report(report, "jsonl", config.output_dir)
    return report


# ---------------------------------------------------------------------------
# report emission


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def rows_to_csv(fieldnames, rows) -> str:
    """The rows under a header of fieldnames, through the stdlib csv
    writer: a cell holding a comma, a double quote or a line feed is
    quoted, and every line ends in a bare line feed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows([_format_cell(row.get(k)) for k in fieldnames]
                     for row in rows)
    return buf.getvalue()


def _parse_cell(cell: str):
    if cell == "":
        return None
    if cell in ("true", "false"):
        return cell == "true"
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def parse_report_csv(text: str) -> list:
    """Inverse of rows_to_csv with typed cells: None for an empty cell,
    then bool, int, float, or str."""
    header, *lines = csv.reader(io.StringIO(text, newline=""))
    return [{k: _parse_cell(cell) for k, cell in zip(header, ln)}
            for ln in lines]


def _json_line(obj) -> str:
    return json.dumps({k: quantize12(v) for k, v in obj.items()},
                      separators=(",", ":"))


def emit_report(report: Report, format: str, out_dir: str) -> str:
    """Write one report file; identical inputs give identical bytes.

    CSV carries the rows under the report's fields; JSONL starts with
    the header {schema_version, kind, **meta} followed by one row object
    per line.  Returns the written path.
    """
    if format not in ("csv", "jsonl"):
        raise ValueError(f"format must be csv or jsonl, got {format!r}")
    if not isinstance(report, Report):
        raise TypeError(f"cannot emit report of type {type(report).__name__}")
    os.makedirs(out_dir, exist_ok=True)
    if format == "csv":
        path = os.path.join(out_dir, f"{report.kind}.csv")
        payload = rows_to_csv(report.fields, report.rows)
    else:
        suffix = "_summary" if report.kind == "scaling" else ""
        path = os.path.join(out_dir, f"{report.kind}{suffix}.jsonl")
        lines = [_json_line({"schema_version": SCHEMA_VERSION,
                             "kind": report.kind, **report.meta})]
        lines += [_json_line(r) for r in report.rows]
        payload = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    return path


def read_report_jsonl(path: str) -> tuple:
    """(meta, rows) from an emitted JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [json.loads(ln) for ln in fh if ln.strip()]
    return lines[0], lines[1:]
