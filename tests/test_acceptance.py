"""End-to-end acceptance runs, one test per numbered criterion.

Each test drives the library at fixed seeds and asserts the stated
tolerance; the terminal summary prints one PASS/FAIL line per
criterion.  Criterion 6 checks the Monte Carlo tail probe against the
exact finite-horizon law (at rho = 0 the chain started at 0 gives
T * S_T ~ sigma2 * chi2_T), and checks separately that this exact
finite-horizon rate approaches the limiting rate function as T grows.
"""

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp

from polymerlab.ar1 import (AR1Params, legendre_rate, rate_function,
                            tail_probe)
from polymerlab.dynamics import (counter_rng, sample_noise,
                                 simulate_recursion, solution_formula)
from polymerlab.gibbs import (estimate_measure, jensen_lower_bound,
                              metropolis_sampler, sample_ensemble)
from polymerlab.increments import (monte_carlo_increment_check,
                                   variance_scaling_scan)
from polymerlab.observables import local_inequality_check
from polymerlab.spectral import (Convention, build_basis,
                                 cosecant_square_sum, green_function,
                                 transition_matrix_power)
from polymerlab.experiments import StudyConfig, run_scaling_study, \
    run_tail_probes

SEED = 20250822


def test_criterion_1_eigenvalue_identity():
    worst = 0.0
    for J in range(2, 129):
        err = abs(cosecant_square_sum(J) - (J * J - 1) / 3.0)
        worst = max(worst, err)
    assert worst < 1e-9, f"csc^2 identity error {worst:.3e}"


def test_criterion_2_kernel_and_solution():
    worst = 0.0
    for J in (2, 3, 8, 16, 64):
        b = build_basis(J)
        for t in (0, 1, 2, 7, 32, 128):
            G = green_function(b, t)
            P = transition_matrix_power(J, t)
            worst = max(worst, float(np.max(np.abs(G - P))))
    assert worst <= 1e-10, f"kernel vs matrix power {worst:.3e}"

    b = build_basis(16)
    worst = 0.0
    for s in range(100):
        noise = sample_noise(SEED + s, 64, 16)
        u0 = counter_rng(SEED, 3, s).standard_normal(16)
        rec = simulate_recursion(u0, noise)
        direct = solution_formula(u0, noise, b)
        worst = max(worst, float(np.max(np.abs(rec.u - direct.u))))
    assert worst <= 1e-9, f"solution formula vs recursion {worst:.3e}"


def test_criterion_3_increment_variances():
    b8 = build_basis(8)
    for conv in (Convention.LITERAL, Convention.PAPER):
        out = monte_carlo_increment_check(b8, 0, 3, conv, 100_000, SEED)
        assert abs(out["mc_mean"]) <= 4 * out["mean_se"], conv
        assert out["variance_rel_err"] <= 0.05, (conv, out)

    scan = variance_scaling_scan((8, 16, 32, 64), Convention.PAPER)
    assert scan.max_ratio / scan.min_ratio < 20
    assert scan.min_ratio >= 0.375 - 1e-12
    assert scan.max_ratio <= 0.96875 + 1e-12

    lit = variance_scaling_scan((8, 16, 32, 64), Convention.LITERAL)
    assert lit.max_ratio / lit.min_ratio < 20
    assert lit.min_ratio >= 1.5 - 1e-12
    assert lit.max_ratio <= 3.9375 + 1e-12


def test_criterion_4_reweighting_consistency():
    # single site: the weight is constant, so the estimate is exact
    ens = sample_ensemble(build_basis(1), T=16, beta=0.25, epsilon=0.5,
                          count=200, seed=SEED)
    est = estimate_measure(ens, "R")
    assert est["log_Z_hat"] == pytest.approx(-0.25 * 16, abs=1e-12)

    b4 = build_basis(4)
    rep = jensen_lower_bound(b4, 8, 0.1, 0.5, 100_000, seed=SEED)
    assert rep["holds"], rep

    # chain marginal against direct free sampling at beta = 0
    chain = metropolis_sampler(b4, 8, 0.0, 0.5, 2000, seed=SEED,
                               thin=10, burnin=100)
    direct = sample_ensemble(b4, T=8, beta=0.0, epsilon=0.5, count=2000,
                             seed=77)
    ks = ks_2samp(chain.obs["R"], direct.obs["R"])
    assert ks.pvalue > 0.01, f"KS p={ks.pvalue:.4f}"


def test_criterion_5_occupancy_inequality():
    rng = counter_rng(SEED, 5)
    violations = 0
    for k in range(100_000):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        row = scale * rng.standard_normal(16)
        eps = 10.0 ** rng.uniform(-2.0, 1.0)
        alpha = rng.uniform(0.0, 1.0)
        window = (-3, 4) if k % 10 == 0 else None
        rep = local_inequality_check(row, eps, alpha, window)
        if not rep.holds:
            violations += 1
        if window is not None and not rep.chain_holds:
            violations += 1
    assert violations == 0, f"{violations} inequality violations"


def test_criterion_6_large_deviation_rate():
    for rho, s2 in ((0.0, 1.0), (0.5, 1.0), (0.8, 2.0), (-0.3, 0.7)):
        p = AR1Params(rho=rho, sigma2=s2)
        x0 = s2 / (1 - rho ** 2)
        assert abs(rate_function(p, x0)) < 1e-12

    for rho, s2 in ((0.6, 1.0), (0.6, 2.0)):
        p = AR1Params(rho=rho, sigma2=s2)
        x0 = s2 / (1 - rho ** 2)
        xs = np.linspace(0.3 * x0, 5.0 * x0, 40)
        gap = np.max(np.abs(legendre_rate(p, xs) - rate_function(p, xs)))
        assert gap < 1e-4, f"duality gap {gap:.3e} at rho={rho}, s2={s2}"

    # independent-increment probe at K = 2.  Started at 0 with rho = 0,
    # T * S_T is exactly sigma2 * chi2_T, so chi2 is an oracle for the
    # finite-horizon tail the probe estimates.
    K, s2 = 2.0, 1.0
    p = AR1Params(rho=0.0, sigma2=s2)
    short = tail_probe(p, T=25, K=K, samples=2_000_000, seed=SEED)
    probe = tail_probe(p, T=50, K=K, samples=8_000_000, seed=SEED)
    assert probe["exceedances"] >= 100, probe
    r25 = short["empirical_log_prob_over_T"] / short["rate_at_K"]
    r50 = probe["empirical_log_prob_over_T"] / probe["rate_at_K"]
    assert r50 < r25, "no approach toward the limit as T doubles"

    # (a) sampler against the exact law: exceedance counts within 4
    # Poisson SD of samples * P(chi2_T > T K / sigma2).  At T = 50 the
    # expected count is 276.4 and the band pins the reported rate to
    # within -2.1 % / +2.7 % of the exact 0.205462 (at T = 25, 4262.3
    # expected, within 1 %), an order of magnitude tighter than a 30 %
    # bound on the rate.
    for out in (short, probe):
        T = out["T"]
        expected = out["samples"] * chi2.sf(T * K / s2, T)
        z = (out["exceedances"] - expected) / np.sqrt(expected)
        assert abs(z) <= 4.0, (
            f"T={T}: {out['exceedances']} exceedances vs exact "
            f"{expected:.1f} (z = {z:+.2f})")

    # (b) approach to the limit: the exact finite-T rate falls toward
    # I(K) from above and is within 30 % of it from T = 100 on.  The
    # excess is the Bahadur-Rao prefactor, vanishing like log(T) / T.
    rate = probe["rate_at_K"]
    assert rate == pytest.approx((K / s2 - 1 - np.log(K / s2)) / 2,
                                 rel=1e-12)
    horizons = np.array([25, 50, 100, 200, 400, 1000])
    exact = -chi2.logsf(horizons * K / s2, horizons) / horizons
    ratio = exact / rate
    assert np.all(np.diff(exact) < 0), ratio
    assert np.all(ratio > 1.0), ratio
    far = horizons >= 100
    assert np.all(ratio[far] - 1.0 <= 0.30), (
        f"exact finite-T rate off the limit by {ratio[far] - 1.0} "
        f"at T = {horizons[far]}")
    assert ratio[-1] - 1.0 <= 0.03, (
        f"exact rate at T=1000 off the limit by {ratio[-1] - 1.0:.1%}")


def test_criterion_7_gyration_scaling():
    for conv, lo, hi in ((Convention.LITERAL, 0.4, 0.6),
                         (Convention.PAPER, 0.9, 1.1)):
        cfg = StudyConfig(J_list=(8, 16, 32, 64), T=512, replicates=2000,
                          seed=SEED, convention=conv)
        rep = run_scaling_study(cfg)
        assert lo < rep.meta["fitted_exponent"] < hi, (
            conv, rep.meta["fitted_exponent"])
        for row in rep.rows:
            rel = abs(row["R_mean"] / row["R_exact"] - 1.0)
            assert rel < 0.02, (conv, row)


def test_criterion_8_interaction_tails():
    cfg = StudyConfig(J_list=(8,), T_list=(64, 256), beta=0.02,
                      epsilon=0.5, replicates=600, seed=SEED)
    out = run_tail_probes(cfg, 0.2, 0.3)
    assert out.meta["lower_nonincreasing"], out.rows
    assert out.meta["upper_nonincreasing"], out.rows
