from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymerlab import observables
from polymerlab.dynamics import sample_noise, simulate_recursion
from polymerlab.observables import (_pair_index, intersection_counts_batch,
                                    local_inequality_check, near_pairs,
                                    occupancy_histogram, radius_of_gyration)


def intersection_counts_brute(rows, epsilon):
    """Quadratic oracle: direct subtraction over every ordered pair, for
    one row or a batch (..., J)."""
    x = np.asarray(rows, dtype=float)
    close = np.abs(x[..., :, None] - x[..., None, :]) <= epsilon
    return close.sum(axis=(-2, -1))


def _traj(seed=0, T=4, J=6):
    return simulate_recursion(np.zeros(J), sample_noise(seed, T, J))


def test_radius_of_gyration_hand_value():
    u = np.array([[0.0, 0.0], [1.0, 3.0]])
    from polymerlab.dynamics import Trajectory
    traj = Trajectory(u=u)
    # single evolved row, deviations are +-1 about the mean 2
    assert radius_of_gyration(traj) == pytest.approx(1.0)


def test_count_constant_row_is_square():
    row = np.zeros(7)
    assert intersection_counts_batch(row, 0.5) == 49
    # the lag scan must run to lag J - 1 on every row
    for J, n in ((1, 32769), (2, 8193), (7, 669), (64, 9), (130, 2)):
        rows = np.zeros((n, J))
        counts = intersection_counts_batch(rows, 0.5)
        assert counts.tolist() == [J * J] * len(rows)


def test_count_spread_row_is_diagonal():
    row = np.arange(6) * 10.0
    assert intersection_counts_batch(row, 0.5) == 6


def test_count_bounds_hold():
    for seed in range(20):
        row = np.random.default_rng(seed).normal(size=9)
        n = intersection_counts_batch(row, 0.3)
        assert 9 <= n <= 81


def test_count_matches_brute_on_ties():
    # exact-boundary pairs: |diff| == eps counts, just beyond does not
    row = np.array([0.0, 0.5, 1.0 + 1e-12])
    assert (intersection_counts_batch(row, 0.5)
            == intersection_counts_brute(row, 0.5))


# dyadic lattice: differences are exact, so boundary ties |u_i - u_j| ==
# eps are common and every one must count.  Off the lattice the counter
# and the oracle still agree exactly, since both subtract directly.
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-51200, 51200), min_size=1, max_size=24),
       st.integers(1, 10240))
def test_count_sorted_equals_brute(grid_values, grid_eps):
    row = np.array(grid_values, dtype=float) / 1024.0
    eps = grid_eps / 1024.0
    assert (intersection_counts_batch(row, eps)
            == intersection_counts_brute(row, eps))


# widths 1-24, 33-64 and 65-130 in batches of up to 2^16 pair comparisons
# (65537 rows at J = 1, 17 at J = 64, 4 at J = 130), which keeps the
# oracle's (rows, J, J) temporary near 0.5 MB.  Small batches are drawn as
# hypothesis lists on the dyadic lattice; large ones come from a numpy
# generator seeded by hypothesis, either on the lattice (multiples of the grid eps plus an offset of -1, 0
# or 1, so many pairs lie exactly eps apart) or off it (scaled standard
# normals, half the sites shifted by eps from another site, so many
# differences round to either side of eps)
@settings(max_examples=240, deadline=None)
@given(st.one_of(st.integers(1, 24), st.integers(33, 64),
                 st.integers(65, 130)),
       st.integers(1, 10240), st.sampled_from(("list", "grid", "normal")),
       st.data())
def test_batch_counts_equal_brute(J, grid_eps, kind, data):
    eps = grid_eps / 1024.0
    if kind == "list":
        k = data.draw(st.integers(1, 4))
        grid = data.draw(st.lists(st.integers(-51200, 51200),
                                  min_size=k * J, max_size=k * J))
        rows = np.array(grid, dtype=float).reshape(k, J) / 1024.0
    else:
        top = (1 << 16) // (J * J) + 1
        k = data.draw(st.integers(1, top))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        if kind == "grid":
            grid = (grid_eps * rng.integers(-4, 5, (k, J))
                    + rng.integers(-1, 2, (k, J)))
            rows = grid / 1024.0
        else:
            rows = rng.standard_normal((k, J)) * eps * rng.uniform(0.5, 8.0)
            half = rng.random(J) < 0.5
            rows[:, half] = rows[:, rng.integers(0, J, half.sum())] + eps
    assert (intersection_counts_batch(rows, eps).tolist()
            == intersection_counts_brute(rows, eps).tolist())


# width-65 rows on which the old J > 64 search miscounted: a pair whose
# difference rounds to just above eps (fl(0.30000000000000004 - 0.1) =
# 0.20000000000000004, although 0.30000000000000004 <= fl(0.1 + 0.2)), and
# nan or infinite sites, which are near nothing, not even themselves
@pytest.mark.parametrize("row, eps, expect", [
    (np.concatenate(([0.1, 0.30000000000000004], 10.0 * np.arange(1, 64))),
     0.2, 65),
    (np.concatenate(([np.nan, np.inf, -np.inf], np.zeros(62))), 0.5, 62 * 62),
])
def test_rounded_and_non_finite_rows_count_like_the_oracle(row, eps, expect):
    with np.errstate(invalid="ignore"):
        assert intersection_counts_brute(row, eps) == expect
        assert intersection_counts_batch(row, eps) == expect
        rows = np.tile(row, (16, 1))
        assert intersection_counts_batch(rows, eps).tolist() == [expect] * 16


def _check_near_pairs(rows, eps):
    """near_pairs against direct subtraction, pair by pair, on both of its
    paths, and its count against the counter and the broadcast oracle."""
    J = rows.shape[-1]
    i, j = _pair_index(J)
    mask = near_pairs(rows, eps)
    assert mask.dtype == bool
    assert np.array_equal(mask, np.abs(rows[..., j] - rows[..., i]) <= eps)
    for width, macs in ((0, 0), (J, 1 << 40)):   # shifts only, product only
        with mock.patch.multiple(observables, _PRODUCT_WIDTH=width,
                                 _PRODUCT_MACS=macs):
            assert np.array_equal(near_pairs(rows, eps), mask)
    counts = (J + 2 * mask.sum(axis=-1)).tolist()
    assert counts == intersection_counts_batch(rows, eps).tolist()
    assert counts == intersection_counts_brute(rows, eps).tolist()


# widths 1-40 in three kinds of rows: the dyadic lattice (many pairs
# exactly eps apart), scaled normals with half the sites moved to another
# site plus eps (differences that round to either side of eps), and the
# same around row offsets of size ~1e6, where sites are spaced 1.2e-10
# apart and every site plus eps rounds
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 10240),
       st.sampled_from(("grid", "normal", "large")), st.data())
def test_near_pairs_equal_brute(J, grid_eps, kind, data):
    eps = grid_eps / 1024.0
    k = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "grid":
        rows = (grid_eps * rng.integers(-4, 5, (k, J))
                + rng.integers(-1, 2, (k, J))) / 1024.0
    else:
        rows = rng.standard_normal((k, J)) * eps * rng.uniform(0.5, 8.0)
        if kind == "large":
            rows += 1e6 * rng.standard_normal((k, 1))
        half = rng.random(J) < 0.5
        rows[:, half] = rows[:, rng.integers(0, J, half.sum())] + eps
    _check_near_pairs(rows, eps)


@pytest.mark.parametrize("J", [0, 1, 2, 3, 4, 7, 8, 33, 64])
def test_pair_index_lists_each_pair_once(J):
    i, j = _pair_index(J)
    pairs = sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    assert pairs == [(a, b) for a in range(J) for b in range(a + 1, J)]


def test_near_pairs_rounding_row_and_shapes():
    # fl(0.30000000000000004 - 0.1) = 0.20000000000000004 > 0.2
    row = np.concatenate(([0.1, 0.30000000000000004],
                          10.0 * np.arange(1, 39)))
    assert not near_pairs(row, 0.2).any()
    _check_near_pairs(row[None], 0.2)
    assert near_pairs(row, 0.20000000000000004)[0]
    rows = np.random.default_rng(4).normal(size=(2, 3, 6))
    assert near_pairs(rows, 0.5).shape == (2, 3, 15)
    assert near_pairs(np.zeros(1), 0.5).shape == (0,)
    assert near_pairs(np.zeros(5), 0.5).all()


def _brute_by_slices(rows, epsilon):
    """The brute oracle over 64 rows at a time, which keeps its
    (rows, J, J) temporary small."""
    flat = rows.reshape(-1, rows.shape[-1])
    parts = [intersection_counts_brute(flat[i:i + 64], epsilon)
             for i in range(0, len(flat), 64)]
    return np.concatenate(parts).reshape(rows.shape[:-1])


# a (3, b, J) batch of 3b = 1845 rows, b = block + block // 5 + 1 with
# blocks of 512 rows.  The first block's sites lie 10 eps apart, so every
# one of its rows drops out at lag 1; after it, row scales fall from
# 1e3 eps to 1e-2 eps, so rows drop out at many different lags, the live
# rows are copied out as they thin, and the last ones are scanned to lag
# J - 1.  Half the rows sit on a lattice of eps, where many pairs lie
# exactly eps apart; some rows hold a nan or infinite site;
# at J = 65 the rounding row above starts each block.  The last rows are
# near at every lag, so at J = 257 lag 1 alone adds 256 pairs to a row:
# J = 255-257 and 300 take the per-lag sums past one byte.
@pytest.mark.parametrize("J", [65, 128, 130, 255, 256, 257, 300])
def test_batch_counts_equal_brute_across_scan_blocks(J):
    eps = 0.2
    block = 512
    b = block + block // 5 + 1
    n = 3 * b
    rng = np.random.default_rng(J)
    rows = rng.standard_normal((n, J)) * eps * np.logspace(3, -2, n)[:, None]
    lattice = rng.random(n) < 0.5
    rows[lattice] = eps * np.round(rows[lattice] / eps)
    rows[:block] = 10 * eps * rng.permuted(np.tile(np.arange(J), (block, 1)),
                                           axis=1)
    odd = rng.choice(n, n // 20, replace=False)
    rows[odd, rng.integers(0, J, odd.size)] = rng.choice(
        [np.nan, np.inf, -np.inf], odd.size)
    if J == 65:
        rows[::block] = np.concatenate(([0.1, 0.30000000000000004],
                                        10.0 * np.arange(1, 64)))
    rows = rows.reshape(3, b, J)
    with np.errstate(invalid="ignore"):
        counts = intersection_counts_batch(rows, eps)
        want = _brute_by_slices(rows, eps)
    assert counts.shape == (3, b)
    assert counts.tolist() == want.tolist()
    # the first block has no near pair, the last row is tight
    flat = counts.reshape(-1)
    assert flat[:block].max() <= J and flat[-1] > J * J // 2


def test_batch_counts_keep_leading_shape():
    rows = np.random.default_rng(2).normal(size=(3, 25, 48))
    counts = intersection_counts_batch(rows, 0.3)
    assert counts.shape == (3, 25)
    assert counts.tolist() == intersection_counts_brute(rows, 0.3).tolist()
    rows = np.random.default_rng(3).normal(size=(2, 3, 40))
    counts = intersection_counts_batch(rows, 0.3)
    assert counts.shape == (2, 3)
    assert counts.tolist() == intersection_counts_brute(rows, 0.3).tolist()
    assert intersection_counts_batch(np.zeros((0, 40)), 0.3).shape == (0,)


def test_zero_width_rows_count_nothing():
    # no site, no pair; the batch keeps its rows
    counts = intersection_counts_batch(np.zeros((3, 0)), 0.5)
    assert counts.shape == (3,) and counts.tolist() == [0, 0, 0]
    assert intersection_counts_batch(np.zeros(0), 0.5) == 0
    assert intersection_counts_batch(np.zeros((2, 0, 0)), 0.5).shape == (2, 0)


# local_inequality_check counts its row through near_pairs: on dyadic rows,
# where many pairs lie exactly eps apart, and on both of near_pairs' paths
# (rows up to 32 sites wide take the product, wider ones the shifts), its
# count is the counter's
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-51200, 51200), min_size=1, max_size=80),
       st.integers(1, 10240))
def test_inequality_count_equals_the_counter(grid_values, grid_eps):
    row = np.array(grid_values, dtype=float) / 1024.0
    eps = grid_eps / 1024.0
    assert (local_inequality_check(row, eps).lhs
            == intersection_counts_batch(row, eps))


def test_inequality_count_on_the_rounding_row():
    # fl(0.30000000000000004 - 0.1) = 0.20000000000000004 > 0.2
    row = np.concatenate(([0.1, 0.30000000000000004], 10.0 * np.arange(1, 64)))
    rep = local_inequality_check(row, 0.2)
    assert rep.lhs == intersection_counts_batch(row, 0.2) == 65


def test_occupancy_histogram_totals():
    traj = _traj(7, T=3, J=8)
    hist = occupancy_histogram(traj.u[2], 0.5, 0.25)
    assert sum(hist.values()) == 8
    assert sum(c * c for c in hist.values()) >= 8
    assert all(c > 0 for c in hist.values())


def test_occupancy_histogram_maps_bins_to_counts():
    # x lands in bin z when x / eps + alpha lies in (z, z + 1]
    row = np.array([0.1, 0.2, 3.0, -0.5, 0.5])
    assert occupancy_histogram(row, 0.5) == {-2: 1, 0: 3, 5: 1}
    assert occupancy_histogram(row, 0.5, 1.0) == {-1: 1, 1: 3, 6: 1}


def test_histogram_shift_keeps_total():
    traj = _traj(8, T=2, J=5)
    for alpha in (0.0, 0.3, 0.9):
        assert sum(occupancy_histogram(traj.u[1], 0.7, alpha).values()) == 5


def test_local_inequality_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(200):
        row = rng.normal(scale=2.0, size=10)
        rep = local_inequality_check(row, 0.5, rng.uniform())
        assert rep.holds
        assert rep.lhs >= 10


def test_local_inequality_window_chain():
    row = np.array([0.1, 0.2, 0.3, 5.0, 5.1, -4.0])
    rep = local_inequality_check(row, 0.5, 0.0, window=(-2, 3))
    assert rep.holds and rep.chain_holds
    assert rep.window_bin_count >= 1
    assert rep.window_quadratic_mean_bound <= rep.rhs + 1e-9


def test_inequality_tight_case():
    # all sites in one bin: N = J^2 equals the square-sum exactly
    row = np.full(6, 0.2)
    rep = local_inequality_check(row, 1.0, 0.0)
    assert rep.lhs == 36 and rep.rhs == 36


def test_epsilon_validation():
    # a nan eps compares false with everything: raise, do not count nothing
    for count in (intersection_counts_batch, near_pairs):
        for eps in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                count(np.zeros((2, 3)), eps)
    for observe in (occupancy_histogram, local_inequality_check):
        for eps in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="epsilon"):
                observe(np.array([0.1, 0.2, 3.0]), eps)


@pytest.mark.parametrize("rows", [np.float64(0.3), np.zeros((2, 5)),
                                  np.zeros((1, 5)),
                                  np.array([np.nan, 0.1, 0.2]),
                                  np.array([0.1, np.inf, 0.2]),
                                  np.array([0.1, 0.2, -np.inf])])
def test_observables_take_one_row(rows):
    # a batch, even of one row, or a bare site is not a row: no time index
    # picks a row out of it; a nan or infinite site has no bin, so its row
    # is rejected rather than reported as a false violation
    with pytest.raises(ValueError, match="one row"):
        occupancy_histogram(rows, 0.5)
    with pytest.raises(ValueError, match="one row"):
        local_inequality_check(rows, 0.5)
