"""Geometric and self-intersection observables of a string configuration:
radius of gyration, near-pair counts and masks, and the bin occupancy
histogram with its counting inequalities."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .dynamics import Trajectory


def radius_of_gyration(traj: Trajectory) -> float:
    """Root mean square spread about the per-time center of mass,
    averaged over t = 1..T (the initial slice is excluded)."""
    if traj.T < 1:
        raise ValueError("need at least one evolved time slice")
    u = traj.u[1:]
    dev = u - u.mean(axis=1, keepdims=True)
    return float(np.sqrt(np.mean(dev ** 2)))


# pair comparisons in one broadcast call: 512 rows at J = 8, 8 at J = 64.
# Per call on the strings of the table below, the broadcast took 0.5-0.7x
# the lag scan's time at 2^15 comparisons for J = 32-128 and 0.8-1.1x for
# J = 8-16; at 2^16 it took 0.8-1.5x, and at 2^17 (a 1 MB float
# temporary) 2-8x.  The branch stays for single rows: criterion 5 counts
# its 100 000 rows at J = 16 one call each, at 6.3-7.0 us per row here
# against 67-77 us on the lag scan, and took 3.8-5.6 s against 11.3-11.5 s
# with the branch off (best of 7 and two runs on a 2-core Xeon, numpy
# 2.4).  Just under the limit it loses: the eight (2000, 4) batches of
# 32 000 comparisons in criterion 4's sample_ensemble took 325-490 us
# each broadcast against 180-260 us on the lag scan.
_BROADCAST_BLOCK = 1 << 15
# values the lag scan sorts and scans at once: 2^16 float64 values,
# 512 rows at J = 128, so a block's 0.5 MB temporaries stay in cache
_SCAN_BLOCK = 1 << 16


def intersection_counts_batch(rows: np.ndarray, epsilon: float) -> np.ndarray:
    """Number of ordered site pairs (i, j), diagonal included, with
    |u_i - u_j| <= epsilon, for a batch of configurations: shape
    (..., J) -> (...).  This is the library's pair counter; the Metropolis
    chain keeps the masks of near_pairs instead, which give the same
    counts.

    A batch of at most _BROADCAST_BLOCK pair comparisons (rows.size * J),
    such as one configuration at J <= 181, is one broadcast call.
    Larger ones run in blocks of at most _SCAN_BLOCK values (512 rows at
    J = 128, at least one row), each on its own: sort each row and scan
    lags k = 1, 2, ...: each near pair x[i+k] - x[i] <= eps counts twice
    on top of the diagonal pairs.  A block is scanned sites-major, as one
    (J, rows) copy, so each lag's differences are one contiguous run, and
    its near pairs are summed per row in the narrowest unsigned type that
    holds J - 1.  In a sorted row that difference only grows with k,
    rounded or not, so a row with no near pair at lag k has none later:
    it adds 0 while it rides along, and the live rows are copied out once
    at most half of them are left.  A block's scan stops when none is
    live.  Every row's count is the same in any block.  Both paths
    subtract directly, so they agree on every pair.

    Per row, best of 7 (the lower of two such runs) on a 2-core Xeon
    with numpy 2.4, on free strings at t = 1..64 from the zero profile,
    eps = 0.5 (b: one broadcast call):

        rows     J = 16    J = 32    J = 64    J = 128
           8     1.1 b     2.2 b     7.9 b     20 us
          64     0.64 b    1.4       2.3       4.8
         256     0.38      0.58      1.2       2.5
        2000     0.18      0.32      0.93      2.2
        4000     0.17      0.38      0.82      2.1

    Few wide rows are the slow end, as a row near the zero profile is
    scanned to its last lag.  The blocks keep the scan's temporaries at
    0.5 MB, in cache: on the 64 batches of 2000 rows at J = 128 that the
    importance-wide benchmark counts, the scan took 0.36-0.42 s in blocks
    of 2^16 values, 0.48-0.52 s in blocks of 2^14 and 0.71-0.73 s as one
    block of 2^18 (best of 5, two runs).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    rows = np.asarray(rows, dtype=float)
    J = rows.shape[-1]
    if rows.size * J <= _BROADCAST_BLOCK:
        close = np.abs(rows[..., :, None] - rows[..., None, :]) <= epsilon
        return close.sum(axis=(-2, -1)).astype(np.int64)
    flat = rows.reshape(-1, J)
    out = np.empty(flat.shape[0], dtype=np.int64)
    block = max(1, _SCAN_BLOCK // J)
    # a lag adds at most J - 1 near pairs to a row
    lag_sum = np.min_scalar_type(J - 1)
    for lo in range(0, flat.shape[0], block):
        # sites-major, so each lag's differences are one contiguous run
        x = np.sort(flat[lo:lo + block], axis=1).T.copy()
        res = out[lo:lo + block]
        res[:] = np.isfinite(x).sum(axis=0)     # the near diagonal pairs
        live = np.arange(x.shape[1])
        pairs = np.zeros(live.size, dtype=np.int64)
        for k in range(1, J):
            near = (x[k:] - x[:-k] <= epsilon).view(np.uint8).sum(
                axis=0, dtype=lag_sum)
            pairs += near
            n_live = np.count_nonzero(near)
            if not n_live:
                break
            if 2 * n_live <= near.size:
                res[live] += 2 * pairs
                keep = near > 0
                x, live = x[:, keep], live[keep]
                pairs = np.zeros(live.size, dtype=np.int64)
        res[live] += 2 * pairs
    return out.reshape(rows.shape[:-1])


# near_pairs takes the pair differences as one product rows @ D while the
# rows are at most _PRODUCT_WIDTH wide (D at most 127 kB) and the product
# has at most _PRODUCT_MACS multiply-adds, which OpenBLAS keeps on one
# thread: up to 33 rows at J = 32, 273 at J = 16, 2340 at J = 8
_PRODUCT_WIDTH = 32
_PRODUCT_MACS = 1 << 19


@cache
def _pair_index(J: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sites (i, j) of near_pairs' columns: (i, (i + k) mod J)
    for the cyclic lags k = 1..(J-1)//2 and i = 0..J-1, then, for even
    J, (i, i + J/2) for i < J/2.  Each unordered pair appears once."""
    K = (J - 1) // 2
    i = np.tile(np.arange(J), K)
    j = (i + np.repeat(np.arange(1, K + 1), J)) % J
    if J % 2 == 0:
        h = np.arange(J // 2)
        i, j = np.concatenate([i, h]), np.concatenate([j, h + J // 2])
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


@cache
def _pair_difference(J: int) -> np.ndarray:
    """Read-only (J, J(J-1)/2) matrix whose column for the pair (i, j) of
    _pair_index is e_j - e_i."""
    i, j = _pair_index(J)
    D = np.zeros((J, i.size))
    D[j, np.arange(i.size)] = 1.0
    D[i, np.arange(i.size)] = -1.0
    D.setflags(write=False)
    return D


def near_pairs(rows: np.ndarray, epsilon: float) -> np.ndarray:
    """Mask of the site pairs with |u_i - u_j| <= epsilon, one column per
    unordered pair i != j in _pair_index order: shape (..., J) ->
    (..., J(J-1)/2).  For finite rows, J + 2 * (mask row sum) is
    intersection_counts_batch's count.

    Every entry compares the one rounded subtraction u_j - u_i, the value
    the counter compares.  Small batches of narrow rows take all
    differences as one product rows @ D with the pair-difference matrix
    D: each column of D has one +1 and one -1, so in any summation order
    every other term is an exact zero.  Precondition: finite rows; an
    infinite or nan site makes 0 * inf = nan poison every pair of its row.
    Other batches subtract each row from its cyclic shifts in one call.

    Per call in us, product / shifts, count_nonzero included, best of 5
    on a 2-core Xeon with numpy 2.4 and OpenBLAS 0.3.31 (*: OpenBLAS ran
    the product on both cores, at about twice the CPU):

        rows     J = 8       J = 32        J = 48         J = 64
           1     5.3 / 20    6.9 / 16      13 / 16        25 / 15
          16     6.2 / 24    19 / 33       39 / 52        89 / 96
          33     4.3 / 18    32 / 50       86 / 97        177 / 159
         129     6.9 / 34    450* / 166    1232* / 370    2255* / 672

    The product is O(J^3) per row against the shifts' O(J^2); at J = 64
    both lose to the counter's lag scan on spread rows, which stops at
    the first lag without a near pair.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    rows = np.asarray(rows, dtype=float)
    J = rows.shape[-1]
    if J <= _PRODUCT_WIDTH and rows.size * J * (J - 1) // 2 <= _PRODUCT_MACS:
        return np.abs(rows @ _pair_difference(J)) <= epsilon
    K, lead = (J - 1) // 2, rows.shape[:-1]
    diff = np.empty(lead + (J * (J - 1) // 2,))
    # shifts[..., k-1, i] = u[(i + k) mod J] for k = 1..K, a strided view
    wrapped = np.concatenate([rows, rows[..., :K]], axis=-1)
    step = wrapped.strides[-1]
    shifts = np.lib.stride_tricks.as_strided(
        wrapped[..., 1:], lead + (K, J), wrapped.strides[:-1] + (step, step),
        writeable=False)
    np.subtract(shifts, rows[..., None, :],
                out=diff[..., :K * J].reshape(lead + (K, J)))
    if J % 2 == 0:
        np.subtract(rows[..., J // 2:], rows[..., :J // 2],
                    out=diff[..., K * J:])
    return np.abs(diff, out=diff) <= epsilon


def occupancy_histogram(row, epsilon: float, alpha: float = 0.0) -> dict:
    """Occupancies {z: l(z)} of the occupied half-open bins
    (z*eps - alpha*eps, z*eps + (1-alpha)*eps] of one row of finite
    sites; every site lands in exactly one bin."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    x = np.asarray(row, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"need one row of sites, got shape {x.shape}")
    # a nan or infinite site has no bin and pairs with no other site
    if not np.isfinite(x).all():
        raise ValueError("need one row of finite sites, got a non-finite one")
    # x in (z*e - a*e, z*e + (1-a)*e]  <=>  x/e + a in (z, z+1]
    z = np.ceil(x / epsilon + alpha).astype(np.int64) - 1
    vals, cnts = np.unique(z, return_counts=True)
    return dict(zip(vals.tolist(), cnts.tolist()))


@dataclass(frozen=True)
class InequalityReport:
    lhs: int                 # near-pair count
    rhs: int                 # sum of squared bin occupancies
    holds: bool
    window_site_count: int | None = None
    window_bin_count: int | None = None
    window_quadratic_mean_bound: float | None = None
    chain_holds: bool | None = None


def local_inequality_check(row, epsilon: float, alpha: float = 0.0,
                           window: tuple[int, int] | None = None
                           ) -> InequalityReport:
    """Near pairs of one row dominate its occupancy square sum: sites
    sharing a bin of width eps are within eps of each other, so
    N >= sum_z l(z)^2.

    With a bin window [z-, z+) the quadratic-mean step is also reported:
    (sum of l over the window)^2 / (number of window bins) <= sum l^2 <= N.
    """
    hist = occupancy_histogram(row, epsilon, alpha)
    N = int(intersection_counts_batch(row, epsilon))
    sq = sum(v * v for v in hist.values())
    rep = dict(lhs=N, rhs=sq, holds=N >= sq)
    if window is not None:
        zlo, zhi = window
        if zhi <= zlo:
            raise ValueError("empty bin window")
        in_win = [hist.get(z, 0) for z in range(zlo, zhi)]
        L = sum(in_win)
        nb = zhi - zlo
        bound = L * L / nb
        rep.update(window_site_count=L, window_bin_count=nb,
                   window_quadratic_mean_bound=bound,
                   chain_holds=bool(N >= sq >= bound - 1e-12))
    return InequalityReport(**rep)
