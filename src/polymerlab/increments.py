"""Closed-form statistics of stationary spatial increments u(i) - u(j)
and the variance scaling scan.

The stationary increment is a centered Gaussian; its variance sums the
per-mode stationary variances against the squared eigenvector
differences.  Under PAPER the amplitude factors cancel to

    Var = sum_{m>=1} rho_m^2/(1-rho_m^2) * (phi_m(i) - phi_m(j))^2

while LITERAL keeps the squared amplitude a_m^2 and unit innovations:

    Var = sum_{m>=1} a_m^2/(1-rho_m^2) * (phi_m(i) - phi_m(j))^2.

The scan probes the J*d envelope on pairs anchored at the boundary,
(i, j) = (0, d).  Bulk pairs at odd d are excluded from the primary rows
deliberately: at kappa = 1/2 the near-checkerboard modes barely decay
and their contributions add for odd separations away from the boundary,
so mid-chain variances grow like J^2 and no J*d band holds there.  Each
row carries the reflected pair (J-1-j, J-1-i) as a diagnostic column;
reflection symmetry makes its variance equal to the primary one, which
is exactly the reduction the i + j < J - 1 restriction relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import counter_rng, free_modes
from .spectral import Basis, Convention, build_basis


def increment_variance(basis: Basis, i: int, j: int,
                       conv: Convention = Convention.LITERAL) -> float:
    """Exact variance of the stationary increment; its mean is 0."""
    if basis.J < 2:
        raise ValueError("increments need J >= 2")
    for s, name in ((i, "i"), (j, "j")):
        if not (0 <= s < basis.J):
            raise ValueError(f"site {name}={s} outside 0..{basis.J - 1}")
    modes = free_modes(basis, conv, "stationary")
    diff = modes.e1[:, i] - modes.e1[:, j]
    return float(np.sum(modes.x0 ** 2 * diff ** 2))


# the smallest width the scan takes
SCAN_MIN_J = 4
# the scan's row keys, in the CSV's column order
SCAN_FIELDS = ("J", "i", "j", "d", "convention", "variance", "ratio",
               "reflected_i", "reflected_j", "reflected_variance")


@dataclass(frozen=True)
class ScanResult:
    convention: Convention
    rows: list
    min_ratio: float
    max_ratio: float


def scan_distances(J: int) -> list[int]:
    """Geometric separation grid: powers of two up to J/2, so that the
    anchored pair (0, d) always satisfies i + j < J - 1."""
    out = []
    d = 1
    while d <= J // 2:
        out.append(d)
        d *= 2
    return out


def variance_scaling_scan(J_list, conv: Convention = Convention.LITERAL,
                          kappa: float = 0.5) -> ScanResult:
    """Variance over the (J, d) grid with boundary-anchored pairs (0, d),
    one dict per row keyed by SCAN_FIELDS.

    ratio is variance/(J*d) under PAPER and variance/d under LITERAL.
    The reflected pair, which violates i + j < J - 1, rides along in
    diagnostic columns.
    """
    rows = []
    for J in J_list:
        if J < SCAN_MIN_J:
            raise ValueError(f"scan needs J >= {SCAN_MIN_J}, got {J}")
        basis = build_basis(J, kappa)
        for d in scan_distances(J):
            var = increment_variance(basis, 0, d, conv)
            ri, rj = J - 1 - d, J - 1
            denom = J * d if conv is Convention.PAPER else d
            rows.append(dict(zip(SCAN_FIELDS, (
                J, 0, d, d, conv.value, var, var / denom, ri, rj,
                increment_variance(basis, ri, rj, conv)))))
    ratios = [r["ratio"] for r in rows]
    return ScanResult(convention=conv, rows=rows,
                      min_ratio=min(ratios), max_ratio=max(ratios))


def monte_carlo_increment_check(basis: Basis, i: int, j: int,
                                conv: Convention, samples: int,
                                seed: int) -> dict:
    """Stationary-string Monte Carlo against the closed form.  Returns the
    empirical mean with its standard error and the variance relative
    error."""
    modes = free_modes(basis, conv, "stationary")
    fields = modes.start(counter_rng(seed), samples) @ modes.e1
    inc = fields[:, i] - fields[:, j]
    closed = increment_variance(basis, i, j, conv)
    mean = float(inc.mean())
    var = float(inc.var(ddof=1))
    se_mean = float(inc.std(ddof=1) / np.sqrt(samples))
    return {
        "mc_mean": mean,
        "mean_se": se_mean,
        "mc_variance": var,
        "closed_variance": closed,
        "variance_rel_err": abs(var - closed) / closed if closed > 0 else 0.0,
    }
