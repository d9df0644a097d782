import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import chi2, ks_2samp, kstest, norm

from polymerlab.dynamics import counter_rng, free_modes, neumann_laplacian
from polymerlab.experiments import _stationary_mode_r, scaling_exact_r2
from polymerlab.gibbs import (SamplerDegeneracyError, WeightedEnsemble,
                              _NoiseChain,
                              estimate_measure, jensen_lower_bound,
                              mean_pair_counts, metropolis_sampler,
                              sample_ensemble, sample_measure)
from polymerlab import dynamics, observables
from polymerlab.observables import intersection_counts_batch
from polymerlab.spectral import Convention, build_basis


def test_log_weight_bounds_and_single_site():
    from polymerlab.dynamics import sample_noise, simulate_recursion
    traj = simulate_recursion(np.zeros(4), sample_noise(0, 6, 4))
    n = intersection_counts_batch(traj.u[1:], 0.5)
    assert n.shape == (6,)
    assert np.all((4 <= n) & (n <= 16))          # J <= N(t) <= J^2
    # a single site always pairs with itself only
    traj1 = simulate_recursion(np.zeros(1), sample_noise(1, 5, 1))
    assert np.array_equal(intersection_counts_batch(traj1.u[1:], 0.5),
                          np.ones(5))


def test_single_site_partition_is_exact():
    ens = sample_ensemble(build_basis(1), T=8, beta=0.3, epsilon=0.5,
                          count=100, seed=3)
    est = estimate_measure(ens, "R")
    assert est["log_Z_hat"] == pytest.approx(-0.3 * 8, abs=1e-12)
    assert est["log_Z_se"] == pytest.approx(0.0, abs=1e-12)


def test_zero_beta_partition_is_one():
    ens = sample_ensemble(build_basis(3), T=4, beta=0.0, epsilon=0.5,
                          count=50, seed=1)
    est = estimate_measure(ens, "R")
    assert est["log_Z_hat"] == pytest.approx(0.0, abs=1e-12)
    assert est["ess"] == pytest.approx(50.0)


# log weights are integer multiples of -beta, so maxima tie; these lie
# far below the scale where exp underflows
_NEAR_700 = -0.5 * (1400.0 + np.random.default_rng(4).integers(0, 30, 500))


def test_estimate_measure_on_tied_weights_matches_scipy():
    # scipy's logsumexp is the oracle; a -inf log weight is a zero weight
    for lw in (_NEAR_700, np.append(_NEAR_700, -np.inf)):
        ens = WeightedEnsemble(obs={"R": np.linspace(1.0, 2.0, lw.size)},
                               log_weights=lw, beta=0.5, epsilon=0.5,
                               base_measure="P_T", J=28, T=50)
        est = estimate_measure(ens, "R", ess_floor=1.0)
        shifted = lw - lw.max()
        ess = np.exp(2.0 * scipy_logsumexp(shifted)
                     - scipy_logsumexp(2.0 * shifted))
        wn = np.exp(lw - scipy_logsumexp(lw))
        x = ens.obs["R"]
        assert est["ess"] == pytest.approx(ess, rel=1e-13, abs=0)
        assert est["Q_mean"] == pytest.approx(np.dot(wn, x), rel=1e-13,
                                              abs=0)
        assert est["log_Z_hat"] == pytest.approx(
            scipy_logsumexp(lw) - np.log(lw.size), rel=1e-13, abs=0)


def test_weighted_mean_hand_example():
    ens = WeightedEnsemble(obs={"R": np.array([1.0, 3.0])},
                           log_weights=np.log([0.25, 0.75]),
                           beta=0.0, epsilon=0.5, base_measure="Q",
                           J=2, T=1)
    est = estimate_measure(ens, "R", ess_floor=1.0)
    assert est["Q_mean"] == pytest.approx(2.5)
    assert est["log_Z_hat"] is None


def test_estimate_unknown_observable():
    ens = sample_ensemble(build_basis(2), T=2, beta=0.0, epsilon=0.5,
                          count=10, seed=0)
    with pytest.raises(KeyError):
        estimate_measure(ens, "bogus")


def test_ess_floor_raises():
    lw = np.zeros(100)
    lw[0] = 60.0          # one sample carries everything
    ens = WeightedEnsemble(obs={"R": np.ones(100)}, log_weights=lw,
                           beta=1.0, epsilon=0.5, base_measure="Q",
                           J=2, T=2)
    with pytest.raises(SamplerDegeneracyError):
        estimate_measure(ens, "R", ess_floor=50.0)
    # every log weight -inf, as -beta * N gives once beta * N overflows:
    # the ESS is nan and must not pass the floor
    ens = replace(ens, log_weights=np.full(100, -np.inf))
    with np.errstate(invalid="ignore"), \
            pytest.raises(SamplerDegeneracyError):
        estimate_measure(ens, "R", ess_floor=50.0)


def test_sample_ensemble_deterministic():
    b4 = build_basis(4)
    a = sample_ensemble(b4, T=6, beta=0.1, epsilon=0.5, count=40, seed=7)
    b = sample_ensemble(b4, T=6, beta=0.1, epsilon=0.5, count=40, seed=7)
    assert np.array_equal(a.obs["R"], b.obs["R"])
    assert np.array_equal(a.log_weights, b.log_weights)


def test_chunk_remainder_handled(monkeypatch):
    # units of 7 rows at J = 3
    monkeypatch.setattr(dynamics, "_UNIT_VALUES", 21)
    ens = sample_ensemble(build_basis(3), T=4, beta=0.1, epsilon=0.5,
                          count=50, seed=2)
    assert len(ens) == 50
    assert np.all(np.isfinite(ens.obs["R"]))
    assert np.all(ens.obs["N_sum"] >= 4 * 3)      # self pairs at least


def _innovation_sd(basis, conv):
    """The innovation sd of the modes m >= 1, written out by hand: 1
    under LITERAL, |rho_m| sqrt(J/2) under PAPER."""
    if conv is Convention.LITERAL:
        return np.ones(basis.J - 1)
    return np.abs(basis.rho[1:]) * np.sqrt(basis.J / 2.0)


def _stationary_sd(basis, conv):
    """sig / sqrt(1 - rho^2) for the modes m >= 1."""
    return _innovation_sd(basis, conv) / np.sqrt(1.0 - basis.rho[1:] ** 2)


def _ensemble_oracle(basis, T, epsilon, count, seed, init, conv, unit):
    """The free recursion as it was before it ran in place: fresh noise,
    profile and deviation arrays at every step, on units of `unit` rows
    run in order, unit i from counter_rng(seed, 3, i).  A stationary
    start draws J - 1 normals per replicate for the modes m >= 1.  A
    LITERAL step is P u + xi, a PAPER step P (u + sqrt(J/2) xi), with
    P v = v + kappa Lap v.  Returns (R, N_sum)."""
    J = basis.J
    Rs, Ns = [], []
    for index, done in enumerate(range(0, count, unit)):
        rng = counter_rng(seed, 3, index)
        c = min(unit, count - done)
        u = ((rng.standard_normal((c, J - 1)) * _stationary_sd(basis, conv))
             @ basis.e[1:] if init == "stationary" else np.zeros((c, J)))
        sq_acc = np.zeros(c)
        n_acc = np.zeros(c, dtype=np.int64)
        for _ in range(T):
            xi = rng.standard_normal((c, J))
            if conv is Convention.LITERAL:
                u = u + basis.kappa * neumann_laplacian(u) + xi
            else:
                v = u + np.sqrt(J / 2.0) * xi
                u = v + basis.kappa * neumann_laplacian(v)
            dev = u - u.mean(axis=1, keepdims=True)
            sq_acc += (dev ** 2).sum(axis=1)
            n_acc += intersection_counts_batch(u, epsilon)
        Rs.append(np.sqrt(sq_acc / (T * J)))
        Ns.append(n_acc)
    return np.concatenate(Rs), np.concatenate(Ns)


# 53 replicates in units of 20 leave a remainder unit of 13; at J = 128
# the pair counter counts each step of a 600-row unit, wider than the
# package's 512-row units, in one call, and the remainder unit has 500 rows
@pytest.mark.parametrize("conv", [Convention.LITERAL, Convention.PAPER])
@pytest.mark.parametrize("init", ["zero", "stationary"])
@pytest.mark.parametrize("J, T, count, unit", [
    pytest.param(1, 9, 53, 20, id="1"),
    pytest.param(5, 9, 53, 20, id="5"),
    pytest.param(40, 9, 53, 20, id="40"),
    pytest.param(128, 3, 1100, 600, id="128"),
])
def test_sample_ensemble_equals_allocating_oracle(monkeypatch, conv, init, J,
                                                  T, count, unit):
    b = build_basis(J)
    monkeypatch.setattr(dynamics, "_UNIT_VALUES", unit * J)
    ens = sample_ensemble(b, T=T, beta=0.1, epsilon=0.5, count=count,
                          seed=6, init=init, conv=conv)
    R, n_sum = _ensemble_oracle(b, T, 0.5, count, 6, init, conv, unit)
    assert np.array_equal(ens.obs["R"], R)
    assert np.array_equal(ens.obs["N_sum"], n_sum)
    assert np.array_equal(ens.log_weights, -0.1 * n_sum.astype(float))


@pytest.mark.parametrize("conv", [Convention.LITERAL, Convention.PAPER])
@pytest.mark.parametrize("init", ["zero", "stationary"])
def test_sample_ensemble_matches_closed_form_r2(conv, init):
    # E[R^2] of the free string has a closed form for either start and
    # convention; 4 SE of 4000 replicates resolves a ~1 % bias in E[R^2]
    b = build_basis(8)
    ens = sample_ensemble(b, T=32, beta=0.0, epsilon=0.5, count=4000,
                          seed=12, init=init, conv=conv)
    r2 = ens.obs["R"] ** 2
    exact = scaling_exact_r2(b, 32, conv, init)
    assert abs(r2.mean() - exact) <= 4 * r2.std(ddof=1) / np.sqrt(len(r2))


def test_paper_stationary_ensemble_has_the_stationary_mode_law():
    # PAPER's site step P (u + sqrt(J/2) xi) must give R the law of R
    # over the stationary mode recursion; seeds fixed before the first run
    b = build_basis(8)
    ens = sample_ensemble(b, 16, 0.0, 0.5, 4000, seed=2901,
                          init="stationary", conv=Convention.PAPER)
    direct = _stationary_mode_r(b, 16, 4000, counter_rng(2902),
                                Convention.PAPER)
    ks = ks_2samp(ens.obs["R"], direct)
    assert ks.pvalue > 0.01, ks.pvalue


@pytest.mark.parametrize("init", ["zero", "stationary"])
def test_paper_two_site_ensemble_stays_frozen(init):
    # at J = 2, kappa = 1/2 the one mode has rho = 0, so PAPER gives it no
    # innovation; the site step P (u + xi) leaves the two sites equal only
    # up to rounding
    T = 8
    ens = sample_ensemble(build_basis(2), T, 0.0, 0.5, 500, seed=3,
                          init=init, conv=Convention.PAPER)
    assert ens.obs["R"].max() <= 1e-12
    assert np.array_equal(ens.obs["N_sum"], np.full(500, 4 * T))


def test_sample_ensemble_rejects_unknown_init():
    with pytest.raises(ValueError):
        sample_ensemble(build_basis(3), 4, 0.1, 0.5, 10, seed=1, init="warm")


def test_sample_ensemble_checks_epsilon_before_any_step():
    # the ValueError comes before any step or pair count
    with mock.patch("polymerlab.gibbs.neumann_laplacian") as step, \
            mock.patch("polymerlab.gibbs.intersection_counts_batch") as count:
        for eps in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                sample_ensemble(build_basis(4), T=3, beta=0.1, epsilon=eps,
                                count=10, seed=1)
    assert not step.called and not count.called


def test_sample_ensemble_is_exact_under_thread_contention(monkeypatch):
    # four concurrent calls on 2 cores, each running its two units on a
    # pool of its own, switching threads every microsecond: calls or
    # units that shared a buffer or a generator would change R or N_sum
    b = build_basis(128)
    R, n_sum = _ensemble_oracle(b, 4, 0.5, 700, 3, "zero",
                                Convention.LITERAL, 600)
    monkeypatch.setattr(dynamics, "_UNIT_VALUES", 600 * 128)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(sample_ensemble, b, 4, 0.1, 0.5, 700, 3)
                    for _ in range(4)]
            done = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for ens in done:
        assert np.array_equal(ens.obs["N_sum"], n_sum)
        assert np.array_equal(ens.obs["R"], R)


@pytest.mark.parametrize("conv", [Convention.LITERAL, Convention.PAPER])
@pytest.mark.parametrize("init", ["zero", "stationary"])
def test_sample_ensemble_does_not_depend_on_workers(monkeypatch, conv, init):
    # 1100 rows at J = 128 run as units of 512, 512 and a ragged 76
    b = build_basis(128)
    outputs = []
    for workers in (1, 2, 4):
        monkeypatch.setattr(dynamics, "usable_cpus", lambda: workers)
        ens = sample_ensemble(b, T=3, beta=0.1, epsilon=0.5, count=1100,
                              seed=8, init=init, conv=conv)
        outputs.append([ens.obs["R"].tobytes(), ens.obs["N_sum"].tobytes(),
                        ens.log_weights.tobytes()])
    assert outputs[0] == outputs[1] == outputs[2]


def test_sample_ensemble_working_set_is_bounded(monkeypatch):
    # at one worker one unit's buffers are alive at a time, so the peak
    # grows neither with T nor with the number of units; a single batch
    # of 4096 rows at J = 128 would hold four 4 MB buffers.  numpy
    # reports its buffers to tracemalloc
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: 1)
    b = build_basis(128)
    # the pair counter's cached index arrays are built outside the trace
    sample_ensemble(b, 1, 0.1, 0.5, 10, seed=1)
    peaks = []
    for T, count in ((2, 1024), (16, 1024), (2, 4096)):
        tracemalloc.start()
        try:
            sample_ensemble(b, T, 0.1, 0.5, count, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 8 * 2 ** 20
    # 4096 rows keep 8 units' R and N_sum (64 KB) beside the last unit
    assert max(peaks) - min(peaks) < 2 ** 17


@pytest.mark.parametrize("n", [5, 8, 50])
def test_sample_measure_keeps_importance_for_uniform_weights(n):
    # beta = 0 gives uniform weights, whose ESS is n only up to rounding
    b = build_basis(4)
    for sampler in ("auto", "importance"):
        ens = sample_measure(b, 6, 0.0, 0.5, n, seed=3, sampler=sampler,
                             ess_floor=50.0)
        assert ens.base_measure == "P_T"
        assert ens.diagnostics["ess"] == pytest.approx(n)


def test_sample_measure_selects_and_falls_back():
    b = build_basis(4)
    args = (b, 8, 5.0, 0.5, 60)
    with pytest.raises(SamplerDegeneracyError):
        sample_measure(*args, seed=2, sampler="importance")
    auto = sample_measure(*args, seed=2, sampler="auto", init="stationary")
    chain = metropolis_sampler(*args, seed=2, init="stationary")
    assert auto.base_measure == "Q_T(metropolis,stationary)"
    assert np.array_equal(auto.obs["R"], chain.obs["R"])
    # the fallback keeps the importance sampler's reason
    assert auto.diagnostics["fallback"].startswith("effective sample size")
    assert "fallback" not in chain.diagnostics
    with pytest.raises(ValueError):
        sample_measure(*args, seed=2, sampler="bogus")


def test_chain_estimate_reports_no_ess():
    # a chain's unit weights would give only its draw count
    chain = metropolis_sampler(build_basis(4), 8, 0.05, 0.5, 40, seed=1)
    est = estimate_measure(chain, "R")
    assert est["ess"] is None and est["n"] == 40
    assert est["log_Z_hat"] is None and est["Q_se"] is not None


def test_drift_leaves_pair_counts_invariant():
    # equal shift at every site cannot change any pair distance
    rng = counter_rng(8)
    rows = rng.standard_normal((100, 6))
    shifted = rows + 3.7
    assert np.array_equal(intersection_counts_batch(rows, 0.5),
                          intersection_counts_batch(shifted, 0.5))


def test_jensen_bound_holds_small():
    r = jensen_lower_bound(build_basis(4), 8, 0.1, 0.5, 20_000, seed=13)
    assert r["holds"]
    assert r["bound"] <= r["logZ_over_T"] + 3e-3


def test_jensen_bound_passes_convention_through():
    # both sides of the bound are taken under the requested convention
    b = build_basis(4)
    r = jensen_lower_bound(b, 8, 0.1, 0.5, 20_000, seed=13,
                           conv=Convention.PAPER)
    ens = sample_ensemble(b, 8, 0.1, 0.5, 20_000, seed=13,
                          conv=Convention.PAPER)
    assert r["logZ_over_T"] == estimate_measure(ens)["log_Z_hat"] / 8
    assert r["holds"]


@pytest.mark.parametrize("samples", [1, 0])
def test_jensen_rejects_fewer_than_two_samples_before_any_draw(samples):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch("polymerlab.gibbs.counter_rng") as rng:
            with pytest.raises(ValueError, match=f"samples={samples}"):
                jensen_lower_bound(build_basis(4), 8, 0.01, 0.5, samples,
                                   seed=1)
    assert not rng.called
    # two samples give a finite standard error without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = jensen_lower_bound(build_basis(4), 8, 0.01, 0.5, 2, seed=1,
                               ess_floor=1.0)
    assert np.isfinite(r["logZ_se_over_T"])


def test_jensen_bound_takes_the_zero_start_mean():
    # log Z comes from the zero profile, so E[N] must too: the stationary
    # mean (17.40 per step) put the "bound" above log Z / T here
    r = jensen_lower_bound(build_basis(8), 8, 0.1, 0.5, 20_000, seed=3)
    assert r["holds"]
    assert r["mean_pairs"] == pytest.approx(19.7705, abs=1e-4)
    assert r["bound"] == pytest.approx(-1.97705, abs=1e-5)


def test_mean_pair_counts_exact_values():
    def per_step(J, conv=Convention.LITERAL):
        modes = free_modes(build_basis(J), conv, "zero")
        return mean_pair_counts(modes, 8, 0.5)
    assert per_step(4).mean() == pytest.approx(6.76312, abs=1e-5)
    assert per_step(8).mean() == pytest.approx(19.7705, abs=1e-4)
    assert np.array_equal(per_step(1), np.ones(8))
    # J = 2, LITERAL: rho = 0, so u_0 - u_1 ~ N(0, 2) at every step
    assert per_step(2) == pytest.approx(2.0 + 2.0 * math.erf(0.25),
                                        rel=1e-15)
    # J = 2, PAPER: the one mode is frozen, so both sites stay together
    assert np.array_equal(per_step(2, Convention.PAPER), np.full(8, 4.0))


@pytest.mark.parametrize("J", [4, 8])
@pytest.mark.parametrize("conv", list(Convention))
def test_zero_beta_pair_sum_meets_the_exact_mean(J, conv):
    b = build_basis(J)
    exact = mean_pair_counts(free_modes(b, conv, "zero"), 8, 0.5).sum()
    for seed in (4401, 4402, 4403):
        n_sum = sample_ensemble(b, 8, 0.0, 0.5, 20_000, seed,
                                conv=conv).obs["N_sum"]
        se = n_sum.std(ddof=1) / np.sqrt(n_sum.size)
        assert abs(n_sum.mean() - exact) < 4.0 * se, (seed, exact)


@pytest.mark.parametrize("init, conv, seed", [
    ("zero", Convention.LITERAL, 5101), ("zero", Convention.PAPER, 5102),
    ("stationary", Convention.LITERAL, 5103),
    ("stationary", Convention.PAPER, 5104)])
def test_metropolis_zero_beta_pair_sum_meets_the_exact_mean(init, conv,
                                                             seed):
    # the thinned chain's samples are correlated, so the error bar is the
    # batch-means SE over 20 batches of 50
    b = build_basis(8)
    exact = mean_pair_counts(free_modes(b, conv, init), 8, 0.5).sum()
    n_sum = metropolis_sampler(b, 8, 0.0, 0.5, 1000, seed, thin=5,
                               burnin=100, init=init,
                               conv=conv).obs["N_sum"]
    batches = n_sum.reshape(20, -1).mean(axis=1)
    se = batches.std(ddof=1) / np.sqrt(batches.size)
    assert abs(n_sum.mean() - exact) < 4.0 * se, (exact, n_sum.mean(), se)


# At J = 2, kappa = 1/2 under LITERAL the one mode has rho = 0, so its
# steps are iid N(0, 1) from either start: T J R^2 ~ chi2(T), and the pair
# is near at a step with p = erf(eps / 2), so Var N_sum = 4 T p (1 - p).
# (Under PAPER that mode has no innovation and the string is frozen.)
def _sample_var_z(x, exact):
    """(sample variance - exact) / its SE, SE^2 = (m4 - s^4) / n."""
    s2 = x.var(ddof=1)
    m4 = np.mean((x - x.mean()) ** 4)
    return (s2 - exact) / np.sqrt((m4 - s2 ** 2) / x.size)


def _check_two_site_law(R, T, n_sum=None):
    q = T * 2 * R ** 2
    assert kstest(q, chi2(T).cdf).pvalue > 0.01
    assert abs(_sample_var_z(q, 2.0 * T)) < 4.0
    if n_sum is not None:
        p = math.erf(0.5 / 2)
        assert abs(_sample_var_z(n_sum.astype(float),
                                 4.0 * T * p * (1 - p))) < 4.0


@pytest.mark.parametrize("T, init, seed", [
    (8, "zero", 2601), (16, "zero", 2602), (8, "stationary", 2603),
    (16, "stationary", 2604)])
def test_two_site_ensemble_meets_the_exact_law(T, init, seed):
    ens = sample_ensemble(build_basis(2), T, 0.0, 0.5, 20_000, seed,
                          init=init)
    _check_two_site_law(ens.obs["R"], T, ens.obs["N_sum"])


def test_two_site_stationary_radius_meets_the_exact_law():
    _check_two_site_law(_stationary_mode_r(build_basis(2), 8, 20_000,
                                           counter_rng(2605),
                                           Convention.LITERAL), 8)


def test_two_site_chain_meets_the_exact_law():
    # thin 10 leaves a lag-one correlation of the pCN state of
    # 0.714^10 = 0.03
    ens = metropolis_sampler(build_basis(2), 16, 0.0, 0.5, 2000, seed=2607,
                             thin=10, init="stationary")
    _check_two_site_law(ens.obs["R"], 16, ens.obs["N_sum"])


def test_metropolis_zero_beta_accepts_everything():
    b = build_basis(4)
    ens = metropolis_sampler(b, 6, 0.0, 0.5, 50, seed=2, thin=2, burnin=10)
    assert ens.diagnostics["acceptance_rate"] == 1.0
    assert len(ens) == 50
    assert np.all(ens.log_weights == 0.0)


def test_metropolis_deterministic():
    b = build_basis(4)
    a = metropolis_sampler(b, 6, 0.1, 0.5, 30, seed=9, thin=2, burnin=10)
    c = metropolis_sampler(b, 6, 0.1, 0.5, 30, seed=9, thin=2, burnin=10)
    assert np.array_equal(a.obs["R"], c.obs["R"])
    assert np.array_equal(a.obs["N_sum"], c.obs["N_sum"])


def test_metropolis_two_site_matches_closed_form():
    # at J=2, T=1 the near indicator depends on one Gaussian mode, so
    # Q[near] has a closed form to compare the chain against
    beta, eps = 0.5, 0.8
    b = build_basis(2)
    gap = abs(b.e[1, 0] - b.e[1, 1])          # pair distance per unit mode
    p0 = 2 * norm.cdf(eps / gap) - 1
    w = np.exp(-2 * beta)
    q_near = w * p0 / (w * p0 + (1 - p0))
    ens = metropolis_sampler(b, 1, beta, eps, 4000, seed=31, thin=3,
                             burnin=100)
    near = (ens.obs["N_sum"] == 4).mean()
    assert near == pytest.approx(q_near, abs=0.03)


# near_pairs takes the product for every call of the J = 3 and J = 8
# chains, the cyclic shifts for every call at J = 40, and both at J = 32,
# T = 40 (tails of at most 33 rows on the product): after every sweep the
# stored mask must give, row by row, the counter's count of the current
# rows, accepted tails and all
@pytest.mark.parametrize("J, T, product, shifts", [
    (3, 6, True, False), (8, 12, True, False), (32, 40, True, True),
    (40, 8, False, True)])
@pytest.mark.parametrize("init", ["zero", "stationary"])
@pytest.mark.parametrize("conv", list(Convention))
def test_chain_pair_state_matches_counter(J, T, product, shifts, init, conv):
    def on_product(rows):
        return (J <= observables._PRODUCT_WIDTH and rows * J * J * (J - 1) // 2
                <= observables._PRODUCT_MACS)
    assert (on_product(1), not on_product(T)) == (product, shifts)
    chain = _NoiseChain(build_basis(J), T, 2.0 / J, 0.5, counter_rng(5, 2),
                        init, conv, 0.7)
    accepted = 0
    for _ in range(4):
        accepted += chain.sweep()
        counts = J + 2 * chain.near.sum(axis=1)
        assert counts.tolist() == intersection_counts_batch(chain.u,
                                                            0.5).tolist()
    assert 0 < accepted < 4 * (T + (init == "stationary"))


class _ReferenceChain:
    """_NoiseChain's sweep one proposal at a time: the same draw block,
    but every tail is recomputed from the stored modes,
    (X[s+1:] + shift) @ e1, and counted by intersection_counts_batch."""

    def __init__(self, basis, T, beta, epsilon, rng, init, conv, scale):
        self.T, self.J, self.beta, self.epsilon = T, basis.J, beta, epsilon
        self.rng, self.init, self.scale = rng, init, scale
        self.keep = np.sqrt(1.0 - scale * scale)
        self.rho = basis.rho[1:]
        self.sig = _innovation_sd(basis, conv)
        self.e1 = basis.e[1:]
        self.x0_scale = (_stationary_sd(basis, conv) if init == "stationary"
                         else np.zeros(self.J - 1))
        self.w0 = rng.standard_normal(self.J - 1)
        self.W = rng.standard_normal((T, self.J - 1))
        self.X = np.zeros((T + 1, self.J - 1))
        self.X[0] = self.w0 * self.x0_scale
        for t in range(T):
            self.X[t + 1] = self.rho * self.X[t] + self.sig * self.W[t]

    def pairs(self, X):
        return int(intersection_counts_batch(X @ self.e1, self.epsilon).sum())

    def try_tail(self, s, shift, log_v):
        new_X = self.X[s + 1:] + shift
        # counts are J + 2 * (near pairs) per row
        d = (self.pairs(new_X) - self.pairs(self.X[s + 1:])) // 2
        ok = d <= 0 or log_v < -2.0 * self.beta * d
        if ok:
            self.X[s + 1:] = new_X
        return ok

    def sweep(self):
        T, J, rng = self.T, self.J, self.rng
        Z = rng.standard_normal((T, J - 1))
        V = rng.random(T + 1)
        decisions = []
        for s in range(T):
            lags = self.rho ** np.arange(T - s)[:, None]
            new_row = self.keep * self.W[s] + self.scale * Z[s]
            c = (new_row - self.W[s]) * self.sig
            decisions.append(self.try_tail(s, lags * c, np.log(V[s])))
            if decisions[-1]:
                self.W[s] = new_row
        if self.init == "stationary":
            new_w0 = self.keep * self.w0 + self.scale * rng.standard_normal(
                J - 1)
            lags = self.rho ** np.arange(1, T + 1)[:, None]
            decisions.append(self.try_tail(
                0, lags * ((new_w0 - self.w0) * self.x0_scale),
                np.log(V[T])))
            if decisions[-1]:
                self.w0 = new_w0
                self.X[0] = new_w0 * self.x0_scale
        return decisions


# the sweep against the reference: J = 2, 3 and 8 take near_pairs'
# product, J = 32 (T = 40) both paths and J = 40 its cyclic shifts.  The
# two must make the same decisions and give the same integers, and R up
# to the float drift of the sweep's in-place site updates
@pytest.mark.parametrize("J, T", [(2, 3), (3, 6), (8, 12), (32, 40),
                                  (40, 8)])
@pytest.mark.parametrize("init", ["zero", "stationary"])
@pytest.mark.parametrize("conv", list(Convention))
def test_sweep_matches_reference_chain(J, T, init, conv):
    basis, beta, n, thin, burnin = build_basis(J), 4.0 / J, 3, 2, 2
    ref = _ReferenceChain(basis, T, beta, 0.5, counter_rng(6, 2), init, conv,
                          0.7)
    want, R, N = [], [], []
    for sweep in range(burnin + n * thin):
        want += ref.sweep()
        if sweep >= burnin and (sweep - burnin) % thin == thin - 1:
            u = ref.X[1:] @ ref.e1
            R.append(np.sqrt(np.mean(u ** 2)))
            N.append(int(intersection_counts_batch(u, 0.5).sum()))

    got = []
    propose = _NoiseChain._propose

    def logged(self, *args):
        tail, ok = propose(self, *args)
        got.append(ok)
        return tail, ok

    # under PAPER the J = 2 mode has rho = 0 and so no innovation: its
    # pair is always near, no proposal changes the count and all are
    # accepted
    frozen = J == 2 and conv is Convention.PAPER
    with mock.patch.object(_NoiseChain, "_propose", logged), \
            warnings.catch_warnings():
        if frozen:
            warnings.simplefilter("error", RuntimeWarning)
        ens = metropolis_sampler(basis, T, beta, 0.5, n, seed=6, thin=thin,
                                 burnin=burnin, init=init, conv=conv)
    assert got == want
    assert 0 < sum(want) < len(want) + frozen
    assert ens.diagnostics["acceptance_rate"] == sum(want) / len(want)
    assert ens.obs["N_sum"].tolist() == N
    assert ens.obs["R"].tolist() == pytest.approx(R, rel=1e-12)


def test_stationary_init_move_keeps_the_stationary_law():
    # at beta = 0 the chain's R must have the law of R over stationary
    # free paths, which the initial-vector move (with its own rho^(k+1)
    # shift) has to keep; seeds fixed before the first run
    b = build_basis(4)
    for conv in Convention:
        chain = metropolis_sampler(b, 8, 0.0, 0.5, 1000, seed=57, thin=5,
                                   burnin=50, init="stationary", conv=conv)
        direct = _stationary_mode_r(b, 8, 1000, counter_rng(58), conv)
        ks = ks_2samp(chain.obs["R"], direct)
        assert ks.pvalue > 0.01, (conv, ks.pvalue)


# N_sum, acceptance rate and R of short chains, recorded when a sweep
# became T whole-row moves on white mode noise, with no single-site
# moves, after test_sweep_matches_reference_chain passed on that chain;
# the values recorded before came from sweeps of 2T (+1) proposals on
# white site noise, a stream no longer made.  J = 2, 8 and 32 (T = 32)
# take near_pairs' product, J = 40 its cyclic shifts.  The integers and
# the rate must be reproduced exactly; R goes through BLAS (X @ e1),
# whose last bits may differ between hosts.  The ids name the case, not
# the recorded values, so a test keeps its name when they are re-recorded
@pytest.mark.parametrize("J, T, beta, n, seed, init, conv, n_sum, rate, R", [
    (2, 3, 0.3, 5, 4, "zero", "LITERAL", [8, 8, 6, 8, 6],
     0.8717948717948718,
     [0.5787419316579687, 1.2553272258340267, 0.9503179684540325,
      0.5434303414714239, 0.3895057259307919]),
    (8, 6, 0.05, 5, 11, "stationary", "LITERAL", [116, 124, 114, 80, 116],
     0.8681318681318682,
     [1.6068897982410355, 1.1388745221191336, 1.107075483818954,
      2.2065819102953315, 1.3883339464100544]),
    (8, 5, 0.1, 4, 12, "zero", "PAPER", [76, 64, 70, 58],
     0.7454545454545455,
     [1.9118008597165084, 1.9670070190972735, 2.6051184879389013,
      2.735915825402672]),
    (32, 32, 0.02, 3, 14, "stationary", "LITERAL", [2518, 2264, 2380],
     0.7205387205387206,
     [5.464694709193957, 6.344575283857742, 6.122542087494119]),
    (40, 40, 0.02, 3, 13, "stationary", "PAPER", [2300, 2264, 2254],
     0.6991869918699187,
     [26.069983863171487, 25.2502313836663, 25.53628538789239]),
], ids=["J2-T3-zero-LITERAL", "J8-T6-stationary-LITERAL", "J8-T5-zero-PAPER",
        "J32-T32-stationary-LITERAL", "J40-T40-stationary-PAPER"])
def test_metropolis_output_is_pinned(J, T, beta, n, seed, init, conv,
                                     n_sum, rate, R):
    ens = metropolis_sampler(build_basis(J), T, beta, 0.5, n, seed=seed,
                             thin=2, burnin=3, init=init,
                             conv=Convention[conv])
    assert ens.obs["N_sum"].tolist() == n_sum
    assert ens.diagnostics["acceptance_rate"] == rate
    assert ens.obs["R"].tolist() == pytest.approx(R, rel=1e-12)


def test_metropolis_stationary_init_runs():
    b = build_basis(4)
    ens = metropolis_sampler(b, 6, 0.05, 0.5, 40, seed=3, thin=2,
                             burnin=20, init="stationary")
    assert ens.base_measure == "Q_T(metropolis,stationary)"
    with pytest.raises(ValueError):
        metropolis_sampler(b, 6, 0.05, 0.5, 5, seed=3, init="bogus")


def test_metropolis_scale_validation():
    b = build_basis(4)
    with pytest.raises(ValueError):
        metropolis_sampler(b, 4, 0.1, 0.5, 5, seed=1, proposal_scale=1.5)


# StudyConfig's message
_BAD_BETA = "beta must be finite and nonnegative"


@pytest.mark.parametrize("call, match", [
    (lambda b: metropolis_sampler(b, 4, 0.1, 0.5, 3, seed=1, thin=0),
     "thin=0"),
    (lambda b: metropolis_sampler(b, 4, 0.1, 0.5, 3, seed=1, burnin=-5),
     "burnin"),
    (lambda b: metropolis_sampler(b, 0, 0.1, 0.5, 3, seed=1), "T=0"),
    (lambda b: metropolis_sampler(b, 4, 0.1, 0.5, 0, seed=1),
     "n_samples=0"),
    (lambda b: metropolis_sampler(b, 4, 0.1, 0.0, 3, seed=1), "epsilon"),
    (lambda b: metropolis_sampler(b, 4, 0.1, -0.5, 3, seed=1), "epsilon"),
    (lambda b: metropolis_sampler(b, 4, 0.1, np.nan, 3, seed=1), "epsilon"),
    (lambda b: sample_ensemble(b, 0, 0.1, 0.5, 10, seed=1), "T=0"),
    (lambda b: sample_ensemble(b, 4, 0.1, 0.5, 0, seed=1), "count=0"),
    (lambda b: metropolis_sampler(b, 4, np.nan, 0.5, 3, seed=1), _BAD_BETA),
    (lambda b: metropolis_sampler(b, 4, -1.0, 0.5, 3, seed=1), _BAD_BETA),
    (lambda b: metropolis_sampler(b, 4, np.inf, 0.5, 3, seed=1), _BAD_BETA),
    (lambda b: sample_ensemble(b, 4, np.nan, 0.5, 10, seed=1), _BAD_BETA),
    (lambda b: sample_ensemble(b, 4, -1.0, 0.5, 10, seed=1), _BAD_BETA),
    (lambda b: sample_ensemble(b, 4, np.inf, 0.5, 10, seed=1), _BAD_BETA),
], ids=["metropolis-thin", "metropolis-burnin", "metropolis-T",
        "metropolis-n_samples", "metropolis-epsilon-0",
        "metropolis-epsilon-negative", "metropolis-epsilon-nan",
        "ensemble-T", "ensemble-count", "metropolis-beta-nan",
        "metropolis-beta-negative", "metropolis-beta-inf",
        "ensemble-beta-nan", "ensemble-beta-negative", "ensemble-beta-inf"])
def test_sampler_sizes_rejected_before_any_draw(call, match):
    with mock.patch("polymerlab.gibbs.counter_rng") as rng:
        with pytest.raises(ValueError, match=match):
            call(build_basis(4))
    assert not rng.called


@pytest.mark.parametrize("J", [8, 16])
@pytest.mark.parametrize("beta", [0.005, 0.01, 0.02, 0.05])
def test_chain_reports_its_rate_without_warning(J, beta):
    # a pCN chain accepts nearly every move as beta -> 0, which is healthy;
    # the rate goes into the diagnostics and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = metropolis_sampler(build_basis(J), 32, beta, 0.5, 40, seed=3,
                                 init="stationary")
    assert 0.0 < ens.diagnostics["acceptance_rate"] <= 1.0
