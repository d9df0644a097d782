import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.signal import lfilter

from polymerlab import ar1
from polymerlab.ar1 import (AR1Params, DegenerateProcessError,
                            ar1_params_for_mode, cumulant_threshold,
                            legendre_rate, mode_decompose, rate_function,
                            reconstruct_centered, tail_probe)
from polymerlab.cli import _LDP_FIELDS
from polymerlab.dynamics import (NoiseField, counter_rng, sample_noise,
                                 simulate_recursion)
from polymerlab.experiments import rows_to_csv
from polymerlab.spectral import Convention, build_basis


def _traj(seed, T, J):
    return simulate_recursion(np.zeros(J), sample_noise(seed, T, J))


def _forced(xi):
    xi = np.asarray(xi, dtype=float)
    field = NoiseField(T=xi.shape[0], J=xi.shape[1], xi=xi, seed=-1)
    return simulate_recursion(np.zeros(xi.shape[1]), field)


def test_params_validation():
    with pytest.raises(ValueError):
        AR1Params(rho=1.0, sigma2=1.0)
    with pytest.raises(ValueError):
        AR1Params(rho=0.2, sigma2=-1.0)


def test_params_for_mode():
    b = build_basis(8)
    p = ar1_params_for_mode(b, 1)
    assert p.rho == pytest.approx(np.cos(np.pi / 8))
    assert p.sigma2 == pytest.approx(1.0)
    pp = ar1_params_for_mode(b, 2, Convention.PAPER)
    assert pp.sigma2 == pytest.approx(pp.rho ** 2 * 4.0)
    for bad in (0, 8):
        with pytest.raises(ValueError):
            ar1_params_for_mode(b, bad)


def test_decompose_preconditions():
    b = build_basis(8)
    with pytest.raises(ValueError):
        mode_decompose(_traj(0, 4, 4), b)
    t = _traj(0, 4, 8)
    t.u[0, 3] = 1.0
    with pytest.raises(ValueError):
        mode_decompose(t, b)


def test_decompose_trivials():
    b = build_basis(4)
    quiet = _forced(np.zeros((6, 4)))
    for mp in mode_decompose(quiet, b):
        assert np.all(mp.series == 0.0)
        assert mp.time_average == 0.0
    # spatially constant forcing only ever moves the mean
    flat = _forced(np.ones((6, 4)) * 2.5)
    for mp in mode_decompose(flat, b):
        assert np.allclose(mp.series, 0.0, atol=1e-12)


def test_mode_series_is_ar1():
    b = build_basis(8)
    t = _traj(11, 100_000, 8)
    modes = mode_decompose(t, b)
    for m in (1, 4, 7):
        x = modes[m - 1].series
        prev, nxt = x[:-1], x[1:]
        slope = float(prev @ nxt / (prev @ prev))
        resid = nxt - slope * prev
        rho = b.rho[m]
        se = np.sqrt((1 - rho ** 2) / len(prev))
        assert abs(slope - rho) < 3 * se
        assert np.var(resid) == pytest.approx(1.0, rel=0.05)


def test_reconstruction_round_trip():
    b = build_basis(8)
    t = _traj(5, 64, 8)
    centered = t.u[1:] - t.u[1:].mean(axis=1, keepdims=True)
    back = reconstruct_centered(mode_decompose(t, b), b)
    assert np.max(np.abs(back - centered)) < 1e-9


def test_rate_zero_at_stationary_mean():
    for rho, s2 in ((0.0, 1.0), (0.7, 1.0), (-0.4, 2.0), (0.92, 0.3)):
        p = AR1Params(rho=rho, sigma2=s2)
        x0 = s2 / (1 - rho ** 2)
        assert abs(rate_function(p, x0)) < 1e-12
        assert rate_function(p, 2 * x0) > 0
        assert rate_function(p, 0.5 * x0) > 0


def test_rate_chi_square_reduction():
    p = AR1Params(rho=0.0, sigma2=1.0)
    xs = np.array([0.3, 1.0, 2.0, 5.0])
    expect = 0.5 * (xs - 1 - np.log(xs))
    assert np.allclose(rate_function(p, xs), expect, atol=1e-14)


def test_rate_nonpositive_is_infinite():
    p = AR1Params(rho=0.5, sigma2=1.0)
    assert rate_function(p, 0.0) == np.inf
    assert rate_function(p, -3.0) == np.inf
    vals = rate_function(p, np.array([-1.0, 1.0]))
    assert np.isinf(vals[0]) and np.isfinite(vals[1])


def test_rate_at_infinity_is_infinite_and_nan_raises():
    p = AR1Params(rho=0.6, sigma2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rate_function(p, np.inf) == np.inf
        assert rate_function(p, np.array([1.0, np.inf]))[1] == np.inf
    for x in (np.nan, [1.0, np.nan]):
        with pytest.raises(ValueError, match="nan"):
            rate_function(p, x)


def test_rate_at_huge_x_is_finite_without_warnings():
    for rho in (0.0, 0.6):
        p = AR1Params(rho=rho, sigma2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = rate_function(p, 1e300)
        assert val > 0 and not np.isnan(val)


def _rate_decimal(rho, x):
    """The rate at the float rho and x in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        r, x = Decimal(rho), Decimal(x)
        root = (4 * r * r * x * x + 1).sqrt()
        return (-(2 * x / (1 + root)).ln() + (r * r + 1) * x - root) / 2


def test_rate_near_the_float_maximum_meets_decimal():
    # 2x, 2 rho x and (rho^2 + 1) x overflow here, though the rate, about
    # (1 - |rho|)^2 x / 2, is finite
    for rho in (0.0, 0.6, 0.9):
        p = AR1Params(rho=rho, sigma2=1.0)
        for x in (1e308, 1.7e308, np.finfo(float).max):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                val = rate_function(p, x)
            want = _rate_decimal(rho, x)
            assert np.isfinite(val)
            assert abs(Decimal(val) - want) <= Decimal(1e-12) * abs(want)
        xs = np.array([2.0, 1e308, np.finfo(float).max])
        assert np.array_equal(rate_function(p, xs),
                              [rate_function(p, x) for x in xs])


def test_rate_root_keeps_the_sqrt_bits_at_the_probe_points():
    # the ldp rows and ldp-probe checksums hold these values; hypot must
    # give the bits of the former sqrt(4 rho^2 x^2 + 1) there
    for rho in (0.0, 0.6):
        p = AR1Params(rho=rho, sigma2=1.0)
        for x in (1.0, 2.0, 3.0, 4.0):
            root = np.sqrt(4.0 * rho ** 2 * x ** 2 + 1.0)
            old = (-0.5 * np.log(2.0 * x / (1.0 + root))
                   + 0.5 * ((rho ** 2 + 1.0) * x - root))
            assert rate_function(p, x) == old


def test_rate_degenerate_sigma_raises():
    p = AR1Params(rho=0.5, sigma2=0.0)
    with pytest.raises(DegenerateProcessError):
        rate_function(p, 1.0)
    with pytest.raises(DegenerateProcessError):
        cumulant_threshold(p)


def test_rate_is_convex():
    p = AR1Params(rho=0.8, sigma2=1.5)
    xs = np.linspace(0.05, 40.0, 4000)
    vals = rate_function(p, xs)
    second = np.diff(vals, 2)
    assert np.min(second) > -1e-8


def test_cumulant_threshold_formula():
    p = AR1Params(rho=0.6, sigma2=2.0)
    assert cumulant_threshold(p) == pytest.approx(0.16 / 4.0)


def test_legendre_matches_closed_form():
    for rho, s2 in ((0.3, 1.0), (0.7, 2.0)):
        p = AR1Params(rho=rho, sigma2=s2)
        x0 = s2 / (1 - rho ** 2)
        xs = np.array([0.5 * x0, x0, 2.0 * x0, 4.0 * x0])
        dual = legendre_rate(p, xs)
        direct = rate_function(p, xs)
        assert np.max(np.abs(dual - direct)) < 1e-4


def test_legendre_scalar_and_zero():
    p = AR1Params(rho=0.5, sigma2=1.0)
    assert isinstance(legendre_rate(p, 2.0), float)
    assert legendre_rate(p, s2 := 1 / (1 - 0.25)) == pytest.approx(0.0,
                                                                   abs=1e-6)


def test_tail_probe_threshold_precondition():
    p = AR1Params(rho=0.5, sigma2=1.0)
    with pytest.raises(ValueError):
        tail_probe(p, T=10, K=1.0, samples=100)    # below stationary mean
    with pytest.raises(ValueError):
        tail_probe(p, T=0, K=3.0, samples=100)


def test_tail_probe_counts_and_rate():
    p = AR1Params(rho=0.0, sigma2=1.0)
    out = tail_probe(p, T=10, K=2.0, samples=200_000, seed=3)
    assert out["exceedances"] > 20
    assert not out["underpowered"]
    assert out["rate_at_K"] == pytest.approx(rate_function(p, 2.0))
    assert 0 < out["empirical_log_prob_over_T"] < np.inf


def test_tail_probe_thread_count_invariant():
    p = AR1Params(rho=0.3, sigma2=1.0)
    kw = dict(T=8, K=2.5, samples=60_000, seed=5, chunk=10_000)
    a = tail_probe(p, workers=1, **kw)
    b = tail_probe(p, workers=4, **kw)
    assert a == b


def _lfilter_exceedances(params, T, K, samples, seed, chunk):
    """Oracle: the same per-chunk draws run through scipy's direct filter,
    with S_T as the numpy mean of the filtered (chunk, T) array."""
    sigma = np.sqrt(params.sigma2)
    total = 0
    for idx, start in enumerate(range(0, samples, chunk)):
        xi = counter_rng(seed, 7, idx).standard_normal(
            (min(chunk, samples - start), T))
        x = lfilter([sigma], [1.0, -params.rho], xi, axis=1)
        total += int(np.count_nonzero(np.mean(x * x, axis=1) > K))
    return total


@pytest.mark.parametrize("rho, sigma2, T, K", [(0.6, 1.0, 30, 2.5),
                                               (-0.9, 2.0, 20, 17.0)])
@pytest.mark.parametrize("seed", [0, 11])
def test_tail_probe_counts_equal_lfilter(rho, sigma2, T, K, seed):
    p = AR1Params(rho=rho, sigma2=sigma2)
    kw = dict(T=T, K=K, samples=150_000, seed=seed, chunk=40_000)
    out = tail_probe(p, workers=2, **kw)
    assert out["exceedances"] > 100
    assert out["exceedances"] == _lfilter_exceedances(p, **kw)


def _one_draw_exceedances(params, T, K, samples, seed, chunk):
    """Oracle: the probe's loop as it was before it drew in blocks, one
    (chunk, T) draw per chunk and fresh arrays at every step."""
    sigma = np.sqrt(params.sigma2)
    total = 0
    for idx, start in enumerate(range(0, samples, chunk)):
        size = min(chunk, samples - start)
        rng = counter_rng(seed, 7, idx)
        x = np.zeros(size)
        sq_sum = np.zeros(size)
        for xi_t in rng.standard_normal((size, T)).T:
            x = params.rho * x + sigma * xi_t
            sq_sum = sq_sum + x * x
        total += int(np.count_nonzero(sq_sum / T > K))
    return total


@pytest.mark.parametrize("rho, sigma2, T, K", [(0.6, 1.0, 30, 2.5),
                                               (-0.9, 2.0, 20, 13.0)])
@pytest.mark.parametrize("rows", [7, 1])
def test_tail_probe_blocks_equal_one_draw(monkeypatch, rho, sigma2, T, K,
                                          rows):
    # chunks of 1000, 1000 and 3 chains: 7-chain blocks leave a ragged
    # block of 6, and the last chunk is one short block; a block smaller
    # than T rounds up to one chain per block
    p = AR1Params(rho=rho, sigma2=sigma2)
    kw = dict(T=T, K=K, samples=2_003, seed=4, chunk=1_000)
    whole = tail_probe(p, workers=2, **kw)
    monkeypatch.setattr(ar1, "_DRAW_BLOCK", rows * T + 2 if rows > 1
                        else T - 1)
    blocked = tail_probe(p, workers=2, **kw)
    assert blocked["exceedances"] > 50
    assert blocked == whole
    assert blocked["exceedances"] == _one_draw_exceedances(p, **kw)


def test_tail_probe_working_set_is_bounded():
    # one (chunk, T) draw would hold 50_000 * 400 * 8 B = 160 MB; numpy
    # reports its buffers to tracemalloc
    p = AR1Params(rho=0.6, sigma2=1.0)
    tracemalloc.start()
    try:
        tail_probe(p, T=400, K=3.0, samples=50_000, seed=1, chunk=50_000,
                   workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_tail_probe_underpowered_and_empty():
    p = AR1Params(rho=0.5, sigma2=1.0)
    out = tail_probe(p, T=40, K=5.0, samples=2_000, seed=1)
    assert out["exceedances"] == 0
    assert out["underpowered"]
    assert out["empirical_log_prob_over_T"] == np.inf


def test_ldp_csv_shape():
    rows = [{"rho": 0.5, "sigma2": 1.0, "x_or_K": 2.0, "value": 0.25,
             "empirical": None, "T": None, "samples": None},
            {"rho": 0.5, "sigma2": 1.0, "x_or_K": 2.0, "value": 0.25,
             "empirical": 0.31, "T": 50, "samples": 100_000}]
    text = rows_to_csv(_LDP_FIELDS, rows)
    lines = text.strip().split("\n")
    assert lines[0] == "rho,sigma2,x_or_K,value,empirical,T,samples"
    assert lines[1].endswith(",,,")
    assert lines[2].split(",")[5:] == ["50", "100000"]
