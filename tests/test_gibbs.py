import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import norm

from polymerlab.dynamics import (counter_rng, mode_innovation_std,
                                 neumann_laplacian, sample_stationary_field)
from polymerlab.experiments import scaling_exact_r2
from polymerlab.gibbs import (SamplerDegeneracyError, WeightedEnsemble,
                              _NoiseChain,
                              estimate_measure, jensen_lower_bound,
                              logsumexp, metropolis_accept,
                              metropolis_sampler, sample_ensemble,
                              sample_measure)
from polymerlab import observables
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


# log weights are integer multiples of -beta, so maxima tie; the ties
# decide how scipy's logsumexp rounds, and estimates must not move
_TIED = -0.02 * np.array([3.0, 1.0, 1.0, 2.0, 1.0, 5.0, 4.0])
_NEAR_700 = -0.5 * (1400.0 + np.random.default_rng(4).integers(0, 30, 500))


@pytest.mark.parametrize("a", [
    _TIED, np.full(9, -1.3), np.array([-4.2]), np.array([0.0]),
    _NEAR_700, np.random.default_rng(5).normal(scale=3.0, size=1000),
    np.array([-np.inf, -2.0, -2.0]), np.full(3, -np.inf),
    np.array([1.0, np.inf]), np.array([np.nan, 1.0]),
], ids=["tied", "all_equal", "one", "zero", "near_minus_700", "untied",
        "minus_inf_entry", "all_minus_inf", "plus_inf", "nan"])
def test_logsumexp_equals_scipy_bit_for_bit(a):
    for x in (a, 2.0 * a):
        got, want = logsumexp(x), float(scipy_logsumexp(x))
        assert got == want or (np.isnan(got) and np.isnan(want))


def test_estimate_measure_on_tied_weights_matches_scipy():
    lw = _NEAR_700
    ens = WeightedEnsemble(obs={"R": np.linspace(1.0, 2.0, lw.size)},
                           log_weights=lw, beta=0.5, epsilon=0.5,
                           base_measure="P_T", J=28, T=50)
    est = estimate_measure(ens, "R", ess_floor=1.0)
    shifted = lw - lw.max()
    ess = np.exp(2.0 * scipy_logsumexp(shifted)
                 - scipy_logsumexp(2.0 * shifted))
    wn = np.exp(lw - scipy_logsumexp(lw))
    x = ens.obs["R"]
    assert est["ess"] == ess
    assert est["Q_mean"] == np.dot(wn, x)
    assert est["log_Z_hat"] == (-700.0 + scipy_logsumexp(lw + 700.0)
                                - np.log(lw.size))


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


def test_sample_ensemble_deterministic():
    b4 = build_basis(4)
    a = sample_ensemble(b4, T=6, beta=0.1, epsilon=0.5, count=40, seed=7)
    b = sample_ensemble(b4, T=6, beta=0.1, epsilon=0.5, count=40, seed=7)
    assert np.array_equal(a.obs["R"], b.obs["R"])
    assert np.array_equal(a.log_weights, b.log_weights)


def test_chunk_remainder_handled():
    ens = sample_ensemble(build_basis(3), T=4, beta=0.1, epsilon=0.5,
                          count=50, seed=2, chunk=7)
    assert len(ens) == 50
    assert np.all(np.isfinite(ens.obs["R"]))
    assert np.all(ens.obs["N_sum"] >= 4 * 3)      # self pairs at least


def _ensemble_oracle(basis, T, epsilon, count, seed, init, conv, chunk):
    """The free recursion as it was before it ran in place: fresh noise,
    profile and deviation arrays at every step.  Returns (R, N_sum)."""
    J = basis.J
    sig = (None if conv is Convention.LITERAL
           else mode_innovation_std(basis, conv))
    rng = counter_rng(seed)
    Rs, Ns = [], []
    for done in range(0, count, chunk):
        c = min(chunk, count - done)
        u = (sample_stationary_field(basis, rng, c, conv)
             if init == "stationary" else np.zeros((c, J)))
        sq_acc = np.zeros(c)
        n_acc = np.zeros(c, dtype=np.int64)
        for _ in range(T):
            xi = rng.standard_normal((c, J))
            if sig is not None:
                xi = (xi * sig) @ basis.e
            u = u + basis.kappa * neumann_laplacian(u) + xi
            dev = u - u.mean(axis=1, keepdims=True)
            sq_acc += (dev ** 2).sum(axis=1)
            n_acc += intersection_counts_batch(u, epsilon)
        Rs.append(np.sqrt(sq_acc / (T * J)))
        Ns.append(n_acc)
    return np.concatenate(Rs), np.concatenate(Ns)


# 53 replicates in chunks of 20 leave a remainder chunk of 13; at J = 128
# each step of a 600-row chunk is counted in a 512-row scan block and an
# 88-row one, and the remainder chunk has 500 rows
@pytest.mark.parametrize("conv", [Convention.LITERAL, Convention.PAPER])
@pytest.mark.parametrize("init", ["zero", "stationary"])
@pytest.mark.parametrize("J, T, count, chunk", [
    pytest.param(1, 9, 53, 20, id="1"),
    pytest.param(5, 9, 53, 20, id="5"),
    pytest.param(40, 9, 53, 20, id="40"),
    pytest.param(128, 3, 1100, 600, id="128"),
])
def test_sample_ensemble_equals_allocating_oracle(conv, init, J, T, count,
                                                  chunk):
    b = build_basis(J)
    ens = sample_ensemble(b, T=T, beta=0.1, epsilon=0.5, count=count,
                          seed=6, init=init, conv=conv, chunk=chunk)
    R, n_sum = _ensemble_oracle(b, T, 0.5, count, 6, init, conv, chunk)
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


def test_sample_ensemble_is_exact_under_thread_contention():
    # four concurrent calls on 2 cores, switching threads every
    # microsecond: calls that shared a buffer or a generator would change
    # R or N_sum
    b = build_basis(128)
    R, n_sum = _ensemble_oracle(b, 4, 0.5, 700, 3, "zero",
                                Convention.LITERAL, 600)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(sample_ensemble, b, 4, 0.1, 0.5, 700, 3,
                                chunk=600) for _ in range(4)]
            done = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for ens in done:
        assert np.array_equal(ens.obs["N_sum"], n_sum)
        assert np.array_equal(ens.obs["R"], R)


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
    with pytest.raises(ValueError):
        sample_measure(*args, seed=2, sampler="bogus")


def test_drift_leaves_pair_counts_invariant():
    # equal shift at every site cannot change any pair distance
    rng = counter_rng(8)
    rows = rng.standard_normal((100, 6))
    shifted = rows + 3.7
    assert np.array_equal(intersection_counts_batch(rows, 0.5),
                          intersection_counts_batch(shifted, 0.5))


def test_jensen_bound_holds_small():
    b = build_basis(4)
    for a in (0.0, 0.5):
        r = jensen_lower_bound(b, 8, 0.1, 0.5, a, 20_000, seed=13)
        assert r["holds"]
        assert r["bound"] <= r["logZ_over_T"] + 3e-3


def test_jensen_bound_passes_convention_through():
    # both sides of the bound are taken under the requested convention
    b = build_basis(4)
    r = jensen_lower_bound(b, 8, 0.1, 0.5, 0.5, 20_000, seed=13,
                           conv=Convention.PAPER)
    ens = sample_ensemble(b, 8, 0.1, 0.5, 20_000, seed=13,
                          conv=Convention.PAPER)
    assert r["logZ_over_T"] == estimate_measure(ens)["log_Z_hat"] / 8
    assert r["holds"]


def test_jensen_drift_cost_is_quadratic():
    b = build_basis(4)
    r0 = jensen_lower_bound(b, 8, 0.1, 0.5, 0.0, 5_000, seed=13)
    r1 = jensen_lower_bound(b, 8, 0.1, 0.5, 1.0, 5_000, seed=13)
    assert r0["bound"] - r1["bound"] == pytest.approx(0.5 * 1.0 * 4)


def test_metropolis_accept_probability():
    rng = counter_rng(21)
    assert metropolis_accept(rng, 0.5)
    hits = sum(metropolis_accept(rng, np.log(0.3)) for _ in range(20_000))
    assert hits / 20_000 == pytest.approx(0.3, abs=0.02)


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
                        init, conv)
    accepted = 0
    for _ in range(4):
        for s in range(T):
            accepted += chain.row_move(s, 0.7)
            accepted += chain.entry_move(s, int(chain.rng.integers(J)), 0.7)
        if init == "stationary":
            accepted += chain.init_move(0.7)
        counts = J + 2 * chain.near.sum(axis=1)
        assert counts.tolist() == intersection_counts_batch(chain.u,
                                                            0.5).tolist()
    assert 0 < accepted < 4 * (2 * T + (init == "stationary"))


# N_sum, acceptance rate and R of short chains, recorded while the chain
# kept per-row pair counts.  J = 2, 8 and 32 (T = 32) take near_pairs'
# product, J = 40 its cyclic shifts.  The integers and the rate must be
# reproduced exactly; R goes through BLAS (X @ e1), whose last bits may
# differ between hosts
@pytest.mark.parametrize("J, T, beta, n, seed, init, conv, n_sum, rate, R", [
    (2, 3, 0.3, 5, 4, "zero", "LITERAL", [6, 8, 6, 8, 8],
     0.9358974358974359,
     [0.7248200313749732, 0.2952886994081083, 0.4641492445837129,
      0.3647037467852565, 0.5164464033610635]),
    (8, 6, 0.05, 5, 11, "stationary", "LITERAL", [96, 84, 102, 106, 80],
     0.9112426035502958,
     [1.5010666819045964, 1.7922045116590024, 1.3642363054225317,
      1.4470097967477091, 2.155484159767981]),
    (8, 5, 0.1, 4, 12, "zero", "PAPER", [76, 66, 62, 60],
     0.8181818181818182,
     [1.8112200290758933, 2.446493819216953, 2.9500391631961347,
      2.2011590377085644]),
    (32, 32, 0.02, 3, 14, "stationary", "LITERAL", [2482, 2398, 2254],
     0.8188034188034188,
     [5.517190702480038, 7.111772036852506, 7.341351892076564]),
    (40, 40, 0.02, 3, 13, "stationary", "PAPER", [2542, 2462, 2396],
     0.803840877914952,
     [18.251209870434586, 20.505108973134888, 22.13006147886572]),
])
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


def test_metropolis_acceptance_warning():
    b = build_basis(4)
    # epsilon so small no proposal ever creates a near pair: every move
    # weakly lowers the contact count, so everything is accepted
    with pytest.warns(RuntimeWarning):
        metropolis_sampler(b, 4, 50.0, 1e-8, 10, seed=1, thin=1, burnin=5)
