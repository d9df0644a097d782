"""Per-mode autoregressive structure of the centered string and the
large-deviation machinery for time-averaged squared modes.

Each cosine mode of the centered field is an AR(1) chain.  The module
decomposes trajectories into those chains and evaluates the rate
function governing P(S_T > K), its Legendre-transform construction from
the limiting cumulant, and Monte Carlo tail probes.

The rate function is normalized to unit innovation variance; general
variances enter through I_sigma(x) = I_1(x / sigma^2).  That choice is
forced by the zero: the minimizer sits at 1/(1-rho^2), the stationary
second moment of the UNIT-variance chain, for every sigma.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import counter_rng, mode_innovation_std
from .spectral import Basis, Convention

_LEGENDRE_GRID = 20_001
# innovations tail_probe draws at once: 2^18 float64 values, 2 MB
_DRAW_BLOCK = 1 << 18


class DegenerateProcessError(ValueError):
    """Zero innovation variance where the operation needs a spread."""


@dataclass(frozen=True)
class AR1Params:
    rho: float
    sigma2: float

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")


@dataclass(frozen=True)
class ModeProcess:
    """One mode's series X_1..X_T with its quadratic time average."""

    m: int
    series: np.ndarray

    @property
    def time_average(self) -> float:
        return float(np.mean(self.series ** 2))


def ar1_params_for_mode(basis: Basis, m: int,
                        conv: Convention = Convention.LITERAL) -> AR1Params:
    """Autoregression coefficient and innovation variance of mode m."""
    if not 1 <= m <= basis.J - 1:
        raise ValueError(f"mode index must lie in 1..{basis.J - 1}")
    sig = mode_innovation_std(basis, conv)[m]
    return AR1Params(rho=float(basis.rho[m]), sigma2=float(sig * sig))


def mode_decompose(traj, basis: Basis) -> list:
    """Project the centered field onto the orthonormal modes m >= 1.

    Requires the zero initial profile; each returned series then starts
    from X_0 = 0 implicitly and satisfies X_{t+1} = rho_m X_t + innovation.
    """
    u = np.asarray(traj.u, dtype=float)
    if u.shape[1] != basis.J:
        raise ValueError("trajectory width does not match the basis")
    if np.any(u[0] != 0.0):
        raise ValueError("mode decomposition requires the zero initial "
                         "profile")
    centered = u[1:] - u[1:].mean(axis=1, keepdims=True)
    coeffs = centered @ basis.e[1:].T          # (T, J-1)
    return [ModeProcess(m=m, series=coeffs[:, m - 1].copy())
            for m in range(1, basis.J)]


def reconstruct_centered(modes: list, basis: Basis) -> np.ndarray:
    """Resynthesize the centered field rows from mode series."""
    coeffs = np.stack([mp.series for mp in modes], axis=1)
    return coeffs @ basis.e[1:]


def _check_positive_sigma(params: AR1Params):
    if params.sigma2 == 0.0:
        raise DegenerateProcessError(
            "zero innovation variance: S_T is deterministic")


def rate_function(params: AR1Params, x):
    """Large-deviation rate of S_T = (1/T) sum X_t^2.

    Unit-variance normal form for x > 0:

        I(x) = -1/2 ln(2x / (1 + sqrt(4 rho^2 x^2 + 1)))
               + 1/2 [(rho^2 + 1) x - sqrt(4 rho^2 x^2 + 1)]

    +inf for x <= 0 and at x = +inf; general variance by I(x / sigma2).
    Vanishes exactly at the stationary mean.  A nan x raises ValueError.
    """
    _check_positive_sigma(params)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x) / params.sigma2
    if np.isnan(xs).any():
        raise ValueError("rate_function is undefined at x = nan")
    out = np.full(xs.shape, np.inf)
    pos = (xs > 0.0) & (xs < np.inf)
    # hypot, not sqrt(4 rho^2 x^2 + 1): x^2 overflows above ~1.3e154.
    # 2x and (rho^2 + 1) x overflow near the float maximum, so above 1e300
    # every term is scaled by s = 1/4; below, s = 1 keeps the bits
    s = np.where(xs[pos] > 1e300, 0.25, 1.0)
    y = xs[pos] * s
    root = np.hypot(2.0 * params.rho * y, s)         # s * sqrt(...)
    out[pos] = (-0.5 * np.log(2.0 * y / (s + root))
                + 0.5 * (((params.rho ** 2 + 1.0) * y - root) / s))
    return float(out[0]) if scalar else out


def cumulant_threshold(params: AR1Params) -> float:
    """Largest tilt with a finite limiting cumulant: (1-rho)^2/(2 sigma2)."""
    _check_positive_sigma(params)
    return (1.0 - params.rho) ** 2 / (2.0 * params.sigma2)


def _cumulant_grid(params: AR1Params, ys: np.ndarray) -> np.ndarray:
    """Limiting cumulant -(1/2) ln(1 - 2 s2 L) on a grid, where L is the
    stable fixed point of L <- r2 L / (1 - 2 s2 L) + y, taken in closed
    form as a root of 2 s2 L^2 - (1 - r2 + 2 s2 y) L + y = 0."""
    s2 = params.sigma2
    r2 = params.rho ** 2
    b = 1.0 - r2 + 2.0 * s2 * ys
    disc = b * b - 8.0 * s2 * ys
    lam = np.where(disc >= 0.0,
                   (b - np.sqrt(np.maximum(disc, 0.0))) / (4.0 * s2),
                   np.nan)
    arg = 1.0 - 2.0 * s2 * lam
    return np.where(arg > 0.0, -0.5 * np.log(np.maximum(arg, 1e-300)),
                    np.inf)


def legendre_rate(params: AR1Params, x):
    """Numerical Legendre transform sup_y (x y - cumulant(y)) over a grid
    reaching deep into the negative tilts (the optimizer for small x sits
    far left) and up to just under the explosion threshold.

    The cumulant meets the threshold in a square-root cusp, so the
    optimizer for large x crowds against it; the grid is uniform over
    the body and geometric in the gap to the threshold.
    """
    _check_positive_sigma(params)
    y_hi = cumulant_threshold(params)
    y_lo = -60.0 / params.sigma2
    gap0 = 0.01 * (y_hi - y_lo)
    body = np.linspace(y_lo, y_hi - gap0, _LEGENDRE_GRID)
    tail = y_hi - gap0 * np.logspace(0.0, -9.0, _LEGENDRE_GRID // 4)[1:]
    ys = np.concatenate([body, tail])
    cums = _cumulant_grid(params, ys)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    vals = np.atleast_1d(x)[:, None] * ys[None, :] - cums[None, :]
    sup = vals.max(axis=1)
    return float(sup[0]) if scalar else sup


def tail_probe(params: AR1Params, T: int, K: float, samples: int,
               seed: int = 0, chunk: int = 100_000,
               workers: int = 4) -> dict:
    """Monte Carlo estimate of -(1/T) log P(S_T > K) for the chain
    started at 0, reported next to the rate function at K.

    Chunks of chains run on a thread pool, each from its own
    deterministic stream (counter_rng(seed, 7, chunk index)), and the
    counts are reduced in chunk order, so the result does not depend on
    the number of workers.  A chunk draws its innovations in consecutive
    blocks of max(1, _DRAW_BLOCK // T) chains into one reused buffer,
    row i for chain i; sequential draws from one generator give the
    values of one (chunk, T) draw, so the counts do not depend on the
    block size.  Each block runs the recursion X_t = rho X_{t-1} +
    sigma xi_t down its columns in place, accumulating the sum of X_t^2
    per chain, so a worker holds about _DRAW_BLOCK values (2 MB) plus a
    few chunk-length vectors, whatever T is.  The X_t equal those of
    the direct-form filter (scipy.signal.lfilter) bit for bit; the sum
    over t is sequential, not pairwise, so S_T can differ from a numpy
    mean by an ulp and move a count only where S_T lies within an ulp
    of K.  Fewer than 20 exceedances flags the result as underpowered;
    zero exceedances report an infinite empirical rate, still flagged,
    never an error.
    """
    _check_positive_sigma(params)
    stat_mean = params.sigma2 / (1.0 - params.rho ** 2)
    if K <= stat_mean:
        raise ValueError(
            f"threshold K={K} must exceed the stationary mean {stat_mean}")
    if T < 1 or samples < 1:
        raise ValueError("T and samples must be positive")
    sigma = np.sqrt(params.sigma2)

    sizes = [min(chunk, samples - start)
             for start in range(0, samples, chunk)]

    rows = max(1, _DRAW_BLOCK // T)

    def run(idx_size):
        idx, size = idx_size
        rng = counter_rng(seed, 7, idx)
        buf = np.empty(min(rows, size) * T)
        x = np.empty(min(rows, size))
        sq = np.empty_like(x)
        sq_sum = np.zeros(size)
        for start in range(0, size, rows):
            n = min(rows, size - start)
            xi = buf[:n * T].reshape(n, T)
            rng.standard_normal(out=xi)
            xi *= sigma
            xb, sqb = x[:n], sq[:n]
            s_sum = sq_sum[start:start + n]
            xb.fill(0.0)
            for xi_t in xi.T:
                xb *= params.rho
                xb += xi_t
                np.multiply(xb, xb, out=sqb)
                s_sum += sqb
        return int(np.count_nonzero(sq_sum / T > K))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        counts = list(pool.map(run, enumerate(sizes)))
    exceed = sum(counts)

    if exceed == 0:
        emp = float("inf")
    else:
        emp = -np.log(exceed / samples) / T
    return {"empirical_log_prob_over_T": float(emp),
            "rate_at_K": float(rate_function(params, K)),
            "exceedances": exceed,
            "underpowered": exceed < 20,
            "T": T, "K": K, "samples": samples}

