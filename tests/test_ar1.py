import itertools
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.signal import lfilter

from polymerlab import ar1, dynamics
from polymerlab.ar1 import (AR1Params, DegenerateProcessError,
                            cumulant_threshold, legendre_rate,
                            mode_decompose, rate_function,
                            reconstruct_centered, tail_probe)
from polymerlab.cli import _LDP_FIELDS
from polymerlab.dynamics import (NoiseField, counter_rng, sample_noise,
                                 simulate_recursion)
from polymerlab.experiments import quantize12, rows_to_csv
from polymerlab.spectral import build_basis


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
    for sigma2 in (np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma2"):
            AR1Params(rho=0.2, sigma2=sigma2)


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
    quiet = mode_decompose(_forced(np.zeros((6, 4))), b)
    assert quiet.shape == (6, 3)
    assert np.all(quiet == 0.0)
    # spatially constant forcing only ever moves the mean
    flat = mode_decompose(_forced(np.ones((6, 4)) * 2.5), b)
    assert np.allclose(flat, 0.0, atol=1e-12)


def test_mode_series_is_ar1():
    b = build_basis(8)
    t = _traj(11, 100_000, 8)
    modes = mode_decompose(t, b)
    assert modes.shape == (100_000, 7)
    for m in (1, 4, 7):
        x = modes[:, m - 1]
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


def _rate_decimal(rho, x, sigma2=1.0):
    """The rate at the float rho, x and sigma2 in 50-digit decimal
    arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        r, x = Decimal(rho), Decimal(x) / Decimal(sigma2)
        root = (4 * r * r * x * x + 1).sqrt()
        return (-(2 * x / (1 + root)).ln() + (r * r + 1) * x - root) / 2


def test_rate_near_the_float_maximum_meets_decimal():
    # 2x, 2 rho x and (rho^2 + 1) x overflow here, and for sigma2 < 1 so
    # does x / sigma2, though the rate, about (1 - |rho|)^2 x / (2 sigma2),
    # can be finite; as |rho| -> 1 the cancelling form (rho^2 + 1) x - R
    # lost up to 1.9e-10 of it.  Where the rate passes the float maximum
    # it must be +inf, with no warning either way
    big = np.array([1e300, 1e308, 1.7e308, np.finfo(float).max])
    fmax = Decimal(np.finfo(float).max)
    for rho, sigma2 in itertools.product((0.0, 0.6, 0.9, 0.999, -0.999),
                                         (1.0, 0.5, 1e-5)):
        p = AR1Params(rho=rho, sigma2=sigma2)
        scale = min(1.0, 2.0 * sigma2)
        for x in np.concatenate([big, big * scale]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                val = rate_function(p, x)
            want = _rate_decimal(rho, x, sigma2)
            if want > fmax:
                assert val == np.inf
            else:
                assert np.isfinite(val)
                assert abs(Decimal(val) - want) <= Decimal(1e-13) * abs(want)
        xs = np.array([2.0, 1e308, np.finfo(float).max]) * scale
        assert np.array_equal(rate_function(p, xs),
                              [rate_function(p, x) for x in xs])


def test_rate_root_keeps_the_sqrt_bits_at_the_probe_points():
    # the ldp rows and ldp-probe checksums hold these values at 12
    # digits.  At rho = 0 the rate keeps every bit of the former
    # sqrt(4 rho^2 x^2 + 1) form; at rho = 0.6 the cancellation-free
    # linear term moves the last bits toward the exact rate, and no
    # printed digit
    for rho in (0.0, 0.6):
        p = AR1Params(rho=rho, sigma2=1.0)
        for x in (1.0, 2.0, 3.0, 4.0):
            root = np.sqrt(4.0 * rho ** 2 * x ** 2 + 1.0)
            old = (-0.5 * np.log(2.0 * x / (1.0 + root))
                   + 0.5 * ((rho ** 2 + 1.0) * x - root))
            new = rate_function(p, x)
            want = _rate_decimal(rho, x)
            assert new == old or rho != 0.0
            assert quantize12(new) == quantize12(old)
            assert (abs(Decimal(new) - want)
                    <= abs(Decimal(float(old)) - want))


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
    # the limiting cumulant depends on rho only through rho^2, so the
    # threshold is (1 - |rho|)^2 / (2 sigma2); it is finite just below
    # the threshold and not above it
    for rho in (0.6, -0.3, -0.6, -0.9):
        p = AR1Params(rho=rho, sigma2=2.0)
        y = cumulant_threshold(p)
        assert y == pytest.approx((1.0 - abs(rho)) ** 2 / 4.0)
        cums = ar1._cumulant_grid(p, np.array([0.999 * y, 1.001 * y]))
        assert np.isfinite(cums[0]) and not np.isfinite(cums[1]), rho


def test_legendre_matches_closed_form():
    for rho, s2 in ((0.3, 1.0), (0.7, 2.0), (-0.3, 1.0), (-0.6, 2.0),
                    (-0.9, 1.0)):
        p = AR1Params(rho=rho, sigma2=s2)
        x0 = s2 / (1 - rho ** 2)
        xs = x0 * np.array([0.5, 1.0, 2.0, 4.0, 10.0, 30.0])
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


def test_tail_probe_thread_count_invariant(monkeypatch):
    p = AR1Params(rho=0.3, sigma2=1.0)
    kw = dict(T=8, K=2.5, samples=60_000, seed=5)
    monkeypatch.setattr(ar1, "_CHUNK", 10_000)
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: 1)
    a = tail_probe(p, **kw)
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: 4)
    b = tail_probe(p, **kw)
    assert a == b


def _lfilter_exceedances(params, T, K, samples, seed, chunk):
    """Oracle: the same per-chunk draws, step-major as a (T, chunk)
    array, run through scipy's direct filter along the time axis, with
    S_T as the numpy mean over that axis."""
    sigma = np.sqrt(params.sigma2)
    total = 0
    for idx, start in enumerate(range(0, samples, chunk)):
        xi = counter_rng(seed, 7, idx).standard_normal(
            (T, min(chunk, samples - start)))
        x = lfilter([sigma], [1.0, -params.rho], xi, axis=0)
        total += int(np.count_nonzero(np.mean(x * x, axis=0) > K))
    return total


@pytest.mark.parametrize("rho, sigma2, T, K", [(0.6, 1.0, 30, 2.5),
                                               (-0.9, 2.0, 20, 17.0),
                                               (0.6, 1.0, 1, 2.5)])
@pytest.mark.parametrize("seed", [0, 11])
def test_tail_probe_counts_equal_lfilter(monkeypatch, rho, sigma2, T, K,
                                         seed):
    # chunks of 40_000 leave a ragged last chunk of 30_000
    p = AR1Params(rho=rho, sigma2=sigma2)
    monkeypatch.setattr(ar1, "_CHUNK", 40_000)
    kw = dict(T=T, K=K, samples=150_000, seed=seed)
    out = tail_probe(p, **kw)
    assert out["exceedances"] > 100
    assert out["exceedances"] == _lfilter_exceedances(p, chunk=40_000, **kw)


def test_tail_probe_working_set_is_bounded(monkeypatch):
    # one (chunk, T) draw would hold 50_000 * 400 * 8 B = 160 MB; numpy
    # reports its buffers to tracemalloc
    p = AR1Params(rho=0.6, sigma2=1.0)
    monkeypatch.setattr(ar1, "_CHUNK", 50_000)
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: 1)
    tracemalloc.start()
    try:
        tail_probe(p, T=400, K=3.0, samples=50_000, seed=1)
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
