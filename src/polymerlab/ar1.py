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

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import counter_rng, map_costliest_first
from .spectral import Basis

_LEGENDRE_GRID = 20_001
# chains per tail_probe chunk
_CHUNK = 100_000


class DegenerateProcessError(ValueError):
    """Zero innovation variance where the operation needs a spread."""


@dataclass(frozen=True)
class AR1Params:
    rho: float
    sigma2: float

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        if not 0.0 <= self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be finite and nonnegative, got "
                             f"{self.sigma2}")


def mode_decompose(traj, basis: Basis) -> np.ndarray:
    """Project the centered field onto the orthonormal modes m >= 1:
    column m - 1 of the (T, J-1) result is mode m's series X_1..X_T.

    Requires the zero initial profile; each series then starts from
    X_0 = 0 implicitly and satisfies X_{t+1} = rho_m X_t + innovation.
    """
    u = np.asarray(traj.u, dtype=float)
    if u.shape[1] != basis.J:
        raise ValueError("trajectory width does not match the basis")
    if np.any(u[0] != 0.0):
        raise ValueError("mode decomposition requires the zero initial "
                         "profile")
    centered = u[1:] - u[1:].mean(axis=1, keepdims=True)
    return centered @ basis.e[1:].T


def reconstruct_centered(modes: np.ndarray, basis: Basis) -> np.ndarray:
    """Resynthesize the centered field rows from the (T, J-1) mode
    series."""
    return modes @ basis.e[1:]


def _check_positive_sigma(params: AR1Params):
    if params.sigma2 == 0.0:
        raise DegenerateProcessError(
            "zero innovation variance: S_T is deterministic")


def rate_function(params: AR1Params, x):
    """Large-deviation rate of S_T = (1/T) sum X_t^2.

    Unit-variance normal form for x > 0, with R = sqrt(4 rho^2 x^2 + 1):

        I(x) = -1/2 ln(2x / (1 + R)) + 1/2 [(rho^2 + 1) x - R]
             = -1/2 ln(2x / (1 + R))
               + 1/2 [(1 - |rho|)^2 x - 1 / (2 |rho| x + R)]

    the second line without the cancellation of the first as |rho| -> 1.
    +inf for x <= 0 and at x = +inf; general variance by I(x / sigma2).
    Vanishes at the stationary mean up to rounding.  A nan x raises
    ValueError.  x / sigma2 is taken as y / s with y = x (s / sigma2) and
    s a power of two; y is at least min(x, x / sigma2) / 8, so where that
    is below about 1e-322, y can underflow to zero and the rate is +inf.
    """
    _check_positive_sigma(params)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    if np.isnan(x).any():
        raise ValueError("rate_function is undefined at x = nan")
    # hypot, not sqrt(4 rho^2 x^2 + 1): x^2 overflows above ~1.3e154.
    # x / sigma2 can pass the float maximum where the rate is finite, so
    # y = x / sigma2 scaled by s, a power of two with s / sigma2 at most
    # 1/4 (and above 1/8 for normal sigma2 < 1), which keeps 2y and
    # hypot's argument finite; the linear term (0.5 / s) a y is formed
    # last and overflows only with the rate.  s stays a normal float
    s = min(0.25, math.ldexp(1.0, max(math.frexp(params.sigma2)[1] - 3,
                                      -1022)))
    y = np.atleast_1d(x) * (s / params.sigma2)
    out = np.full(y.shape, np.inf)
    pos = (y > 0.0) & (y < np.inf)
    y = y[pos]
    r = abs(params.rho)
    root = np.hypot(2.0 * r * y, s)                  # s * R
    # the log's argument, at most x / sigma2, passes the float maximum
    # only near rho = 0, where the rate is then above 2^1022: capping the
    # argument there changes no bit of the rate
    with np.errstate(over="ignore"):
        arg = np.minimum(2.0 * y / (s + root), np.finfo(float).max)
        linear = (0.5 / s) * ((1.0 - r) ** 2 * y)
    out[pos] = -0.5 * np.log(arg) + (linear - 0.5 * s / (2.0 * r * y + root))
    return float(out[0]) if scalar else out


def cumulant_threshold(params: AR1Params) -> float:
    """Largest tilt with a finite limiting cumulant:
    (1-|rho|)^2/(2 sigma2); the cumulant depends on rho only through
    rho^2."""
    _check_positive_sigma(params)
    return (1.0 - abs(params.rho)) ** 2 / (2.0 * params.sigma2)


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


def square_sums(rng: np.random.Generator, rho, sigma, x: np.ndarray,
                T: int) -> np.ndarray:
    """Step the AR(1) rows of x in place T times and return each row's
    sum over t = 1..T of |x_t|^2.

    x is (rows, modes) and holds X_0 on entry and X_T on return; rho and
    sigma are scalars or per-mode vectors.  Step t draws one fresh
    (rows, modes) standard normal array xi_t and sets X_t = rho X_{t-1}
    + sigma xi_t, so the draws are step-major.  The step reuses buffers
    allocated once, so memory stays O(x.size) for any T.
    """
    xi = np.empty_like(x)
    sq = np.empty(len(x))
    acc = np.zeros(len(x))
    for _ in range(T):
        rng.standard_normal(out=xi)
        xi *= sigma
        x *= rho
        x += xi
        np.einsum("ij,ij->i", x, x, out=sq)
        acc += sq
    return acc


def tail_probe(params: AR1Params, T: int, K: float, samples: int,
               seed: int = 0) -> dict:
    """Monte Carlo estimate of -(1/T) log P(S_T > K) for the chain
    started at 0, reported next to the rate function at K.

    Chunks of _CHUNK chains run on one thread per usable CPU
    (map_costliest_first; chunk sizes never rise, so they start in chunk
    order), each from its own deterministic stream (counter_rng(seed, 7,
    chunk index)), and the counts are reduced in chunk order, so the
    result does not depend on the number of workers.  A chunk runs
    square_sums on a (chunk, 1) state, so its draws are step-major: step
    t takes the t-th run of chunk values from the stream, and a worker
    holds a few chunk-length vectors whatever T is.  The X_t equal those
    of the direct-form filter (scipy.signal.lfilter) run along the time
    axis of a (T, chunk) draw bit for bit, and S_T sums them in time
    order as a numpy mean along that axis does.  Fewer than 20
    exceedances flags the result as underpowered; zero exceedances
    report an infinite empirical rate, still flagged, never an error.
    """
    _check_positive_sigma(params)
    stat_mean = params.sigma2 / (1.0 - params.rho ** 2)
    if K <= stat_mean:
        raise ValueError(
            f"threshold K={K} must exceed the stationary mean {stat_mean}")
    if T < 1 or samples < 1:
        raise ValueError("T and samples must be positive")
    sigma = np.sqrt(params.sigma2)
    sizes = [min(_CHUNK, samples - start)
             for start in range(0, samples, _CHUNK)]

    def run(idx_size):
        idx, size = idx_size
        sq_sum = square_sums(counter_rng(seed, 7, idx), params.rho, sigma,
                             np.zeros((size, 1)), T)
        return int(np.count_nonzero(sq_sum / T > K))

    exceed = sum(map_costliest_first(run, enumerate(sizes),
                                     cost=lambda idx_size: idx_size[1]))

    if exceed == 0:
        emp = float("inf")
    else:
        emp = -np.log(exceed / samples) / T
    return {"empirical_log_prob_over_T": float(emp),
            "rate_at_K": float(rate_function(params, K)),
            "exceedances": exceed,
            "underpowered": exceed < 20,
            "T": T, "K": K, "samples": samples}

