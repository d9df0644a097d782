"""Geometric and self-intersection observables of a string configuration:
radius of gyration, near-pair counts, and the bin occupancy histogram
with its counting inequalities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import Trajectory


def _row(traj, t):
    if isinstance(traj, Trajectory):
        if not (0 <= t <= traj.T):
            raise ValueError(f"time {t} outside 0..{traj.T}")
        return traj.u[t]
    u = np.asarray(traj, dtype=float)
    if u.ndim == 1:
        return u
    if not (0 <= t < u.shape[0]):
        raise ValueError(f"time {t} outside 0..{u.shape[0] - 1}")
    return u[t]


def radius_of_gyration(traj: Trajectory) -> float:
    """Root mean square spread about the per-time center of mass,
    averaged over t = 1..T (the initial slice is excluded)."""
    if traj.T < 1:
        raise ValueError("need at least one evolved time slice")
    u = traj.u[1:]
    dev = u - u.mean(axis=1, keepdims=True)
    return float(np.sqrt(np.mean(dev ** 2)))


# pair comparisons in one broadcast call: 512 rows at J = 8, 8 at J = 64.
# Somewhere between about 40k and 53k comparisons (a 0.3-0.4 MB float
# temporary) the broadcast turns 2-3x slower than the lag scan; at 2^15
# it was faster at every J = 8-128 on the host of the table below.
_BROADCAST_BLOCK = 1 << 15


def intersection_counts_batch(rows: np.ndarray, epsilon: float) -> np.ndarray:
    """Number of ordered site pairs (i, j), diagonal included, with
    |u_i - u_j| <= epsilon, for a batch of configurations: shape
    (..., J) -> (...).  This is the library's only pair counter.

    A batch of at most _BROADCAST_BLOCK pair comparisons (rows.size * J),
    such as every Metropolis tail update at J = 8, is one broadcast call.
    Larger ones sort each row and scan lags k = 1, 2, ...: each near pair
    x[i+k] - x[i] <= eps counts twice on top of the diagonal pairs.  In
    a sorted row that difference only grows with k, rounded or not, so a
    row with no near pair at lag k is dropped; the scan stops when none is
    left.  Both paths subtract directly, so they agree on every pair.

    Per row, best of 7 on a 2-core Xeon with numpy 2.4, on free strings
    at t = 1..64 from the zero profile, eps = 0.5 (b: one broadcast call):

        rows     J = 16    J = 32    J = 64    J = 128
           8     1.2 b     2.8 b     8.4 b     45 us
          64     0.59 b    2.5       5.2       10
         256     0.57      1.2       2.6       6.7
        2000     0.43      1.0       2.3       6.6

    Few wide rows are the slow end: at J = 128 one row takes 38 us (one
    broadcast) and 8 rows 340 us, as a row near the zero profile is
    scanned to its last lag.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rows = np.asarray(rows, dtype=float)
    J = rows.shape[-1]
    if rows.size * J <= _BROADCAST_BLOCK:
        close = np.abs(rows[..., :, None] - rows[..., None, :]) <= epsilon
        return close.sum(axis=(-2, -1)).astype(np.int64)
    x = np.sort(rows.reshape(-1, J), axis=1)
    out = np.isfinite(x).sum(axis=1)            # the near diagonal pairs
    live = np.arange(x.shape[0])
    for k in range(1, J):
        near = (x[:, k:] - x[:, :-k] <= epsilon).sum(axis=1, dtype=np.int32)
        out[live] += 2 * near
        if not near.all():
            keep = near > 0
            x, live = x[keep], live[keep]
            if not live.size:
                break
    return out.reshape(rows.shape[:-1])


def self_intersection_count(traj, t=0, epsilon: float = None) -> int:
    """Near-pair count of the row at time t (intersection_counts_batch on
    one row)."""
    if epsilon is None:
        raise ValueError("epsilon must be positive")
    return int(intersection_counts_batch(_row(traj, t), epsilon))


@dataclass(frozen=True)
class OccupancyHistogram:
    epsilon: float
    alpha: float
    counts: dict = field(default_factory=dict)   # bin index z -> occupancy

    def total(self) -> int:
        return sum(self.counts.values())

    def sum_of_squares(self) -> int:
        return sum(v * v for v in self.counts.values())


def occupancy_histogram(traj, t=0, epsilon: float = None,
                        alpha: float = 0.0) -> OccupancyHistogram:
    """Assign each site value to the half-open bin
    (z*eps - alpha*eps, z*eps + (1-alpha)*eps]; every site lands in
    exactly one bin."""
    if epsilon is None or epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    x = _row(traj, t)
    # x in (z*e - a*e, z*e + (1-a)*e]  <=>  x/e + a in (z, z+1]
    z = np.ceil(x / epsilon + alpha).astype(np.int64) - 1
    vals, cnts = np.unique(z, return_counts=True)
    return OccupancyHistogram(epsilon=epsilon, alpha=alpha,
                              counts=dict(zip(vals.tolist(), cnts.tolist())))


@dataclass(frozen=True)
class InequalityReport:
    lhs: int                 # near-pair count
    rhs: int                 # sum of squared bin occupancies
    holds: bool
    window_site_count: int | None = None
    window_bin_count: int | None = None
    window_quadratic_mean_bound: float | None = None
    chain_holds: bool | None = None


def local_inequality_check(traj, t=0, epsilon: float = None,
                           alpha: float = 0.0,
                           window: tuple[int, int] | None = None
                           ) -> InequalityReport:
    """Near pairs dominate the occupancy square sum: sites sharing a bin
    of width eps are within eps of each other, so N >= sum_z l(z)^2.

    With a bin window [z-, z+) the quadratic-mean step is also reported:
    (sum of l over the window)^2 / (number of window bins) <= sum l^2 <= N.
    """
    N = self_intersection_count(traj, t, epsilon)
    hist = occupancy_histogram(traj, t, epsilon, alpha)
    sq = hist.sum_of_squares()
    rep = dict(lhs=N, rhs=sq, holds=N >= sq)
    if window is not None:
        zlo, zhi = window
        if zhi <= zlo:
            raise ValueError("empty bin window")
        in_win = [hist.counts.get(z, 0) for z in range(zlo, zhi)]
        L = sum(in_win)
        nb = zhi - zlo
        bound = L * L / nb
        rep.update(window_site_count=L, window_bin_count=nb,
                   window_quadratic_mean_bound=bound,
                   chain_holds=bool(N >= sq >= bound - 1e-12))
    return InequalityReport(**rep)
