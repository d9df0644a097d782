"""The self-repelling measure: Boltzmann reweighting of the Gaussian
string, importance sampling and Metropolis sampling of it behind one
sampler selector, and the variational lower bound on the partition
function.

Weights live on a fixed logarithmic scale.  The near-pair count obeys
J <= N(t) <= J^2, so the total log weight -beta * sum_t N(t) lies in
[-beta*T*J^2, -beta*T*J]; the deterministic floor -beta*T*J (every site
pairs with itself at every time) is factored out of all log-sum-exp
reductions, otherwise double precision underflows already near
beta*T*J ~ 700.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (counter_rng, mode_innovation_std, neumann_laplacian,
                       sample_stationary_field, stationary_mode_std)
from .observables import intersection_counts_batch, near_pairs
from .spectral import Basis, Convention

SAMPLERS = ("importance", "metropolis", "auto")


class SamplerDegeneracyError(RuntimeError):
    """Raised when an importance-sampling ensemble's effective sample size
    falls below the configured floor."""


def logsumexp(a) -> float:
    """log(sum(exp(a))) over all entries of a, with the arithmetic of
    scipy.special.logsumexp (scipy 1.17), so results match it bit for bit.

    The m entries tied at the maximum are taken out of the sum rather than
    one of them: a_max + log(m) + log1p(s / m) with s the sum of the other
    exp(a - a_max).  Ties are the rule here, since log weights are integer
    multiples of -beta.  A non-finite maximum falls back to
    log(sum(exp(a))), which gives inf, -inf or nan as scipy does.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max()
    if not np.isfinite(a_max):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return float(np.log(np.sum(np.exp(a))))
    top = a == a_max
    m = float(np.count_nonzero(top))
    s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
    return float(np.log1p(s / m) + np.log(m) + a_max)


@dataclass(frozen=True)
class WeightedEnsemble:
    """Observable arrays with log weights.

    For base_measure "P_T" the weights are the Boltzmann factors and
    self-normalizing reweights to the repelling measure.  Metropolis
    output has unit weights.
    """

    obs: dict
    log_weights: np.ndarray
    beta: float
    epsilon: float
    base_measure: str
    J: int
    T: int
    diagnostics: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.log_weights)


def _checked_ess(ensemble: WeightedEnsemble, ess_floor: float) -> float:
    """Effective sample size of the weights; raises SamplerDegeneracyError
    when it is under min(ess_floor, n)."""
    lw = ensemble.log_weights - ensemble.log_weights.max()
    ess = float(np.exp(2.0 * logsumexp(lw) - logsumexp(2.0 * lw)))
    # float slack: uniform weights give ess = n only up to rounding
    if ess < min(ess_floor, len(ensemble)) * (1.0 - 1e-12):
        raise SamplerDegeneracyError(
            f"effective sample size {ess:.1f} below floor {ess_floor} at "
            f"beta={ensemble.beta}, T={ensemble.T}, J={ensemble.J}")
    return ess


def estimate_measure(ensemble: WeightedEnsemble, observable: str = "R",
                     ess_floor: float = 50.0) -> dict:
    """Partition estimate and self-normalized reweighted expectation.

    log_Z_hat is reported only for a "P_T" base (it is the mean Boltzmann
    weight, reduced by log-sum-exp after factoring the -beta*T*J floor).
    The expectation standard error uses the normalized-weight delta
    method.  An effective sample size under ess_floor raises.
    """
    n = len(ensemble)
    if n == 0:
        raise ValueError("empty ensemble")
    if observable not in ensemble.obs:
        raise KeyError(f"unknown observable {observable!r}")
    lw = ensemble.log_weights
    ess = _checked_ess(ensemble, ess_floor)
    log_z = None
    log_z_se = None
    if ensemble.base_measure == "P_T":
        floor = -ensemble.beta * ensemble.T * ensemble.J
        shifted = lw - floor          # in [-beta*T*J*(J-1), 0]
        log_z = float(floor + logsumexp(shifted) - np.log(n))
        w = np.exp(shifted - shifted.max())
        log_z_se = float(w.std(ddof=1) / (np.sqrt(n) * w.mean()))
    x = np.asarray(ensemble.obs[observable], dtype=float)
    wn = np.exp(lw - logsumexp(lw))
    q_mean = float(np.dot(wn, x))
    q_se = float(np.sqrt(np.sum(wn ** 2 * (x - q_mean) ** 2)))
    return {"log_Z_hat": log_z, "log_Z_se": log_z_se, "Q_mean": q_mean,
            "Q_se": q_se, "ess": ess, "n": n}


def sample_ensemble(basis: Basis, T: int, beta: float, epsilon: float,
                    count: int, seed: int, init: str = "zero",
                    conv: Convention = Convention.LITERAL,
                    chunk: int = 20_000) -> WeightedEnsemble:
    """Importance-sampling ensemble: free trajectories from the base law
    that metropolis_sampler targets (same init and convention), with
    Boltzmann log weights attached.  init "stationary" draws the first
    row from the exact stationary law of the modes m >= 1.  Chunks of
    `count` run as one batch each, accumulating R and the pair counts
    across time in place on four (chunk, J) buffers (the profile, the
    Laplacian, the noise and the deviation), so memory stays O(chunk*J)
    for any T and a step allocates nothing but its pair count.

    The pair count runs in the calling thread.  On a worker thread
    beside the recursion it cut the op by 40 % on an idle 2-core host,
    but the two threads pass the GIL through the count's many small
    numpy calls and meet at every step, so on a shared host the op's
    time swung by a factor of two from run to run."""
    if init not in ("zero", "stationary"):
        raise ValueError(f"unknown init {init!r}")
    # checked here, so a bad epsilon costs no step
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    J = basis.J
    # LITERAL drives every mode with unit innovations: white site noise
    sig = (None if conv is Convention.LITERAL
           else mode_innovation_std(basis, conv))
    rng = counter_rng(seed)
    Rs, Ns = [], []
    for done in range(0, count, chunk):
        c = min(chunk, count - done)
        u = (sample_stationary_field(basis, rng, c, conv)
             if init == "stationary" else np.zeros((c, J)))
        lap = np.empty((c, J))
        xi = np.empty((c, J))
        # the deviation buffer doubles as the mode-to-site product
        dev = np.empty((c, J))
        step = xi if sig is None else dev
        mean = np.empty((c, 1))
        sq = np.empty(c)
        sq_acc = np.zeros(c)
        n_acc = np.zeros(c, dtype=np.int64)
        for _ in range(T):
            rng.standard_normal(out=xi)
            if sig is not None:
                xi *= sig
                np.matmul(xi, basis.e, out=dev)
            neumann_laplacian(u, out=lap)
            lap *= basis.kappa
            u += lap
            u += step
            np.mean(u, axis=1, keepdims=True, out=mean)
            np.subtract(u, mean, out=dev)
            np.square(dev, out=dev)
            np.sum(dev, axis=1, out=sq)
            sq_acc += sq
            n_acc += intersection_counts_batch(u, epsilon)
        Rs.append(np.sqrt(sq_acc / (T * J)))
        Ns.append(n_acc)
    n_sum = np.concatenate(Ns)
    return WeightedEnsemble(obs={"R": np.concatenate(Rs), "N_sum": n_sum},
                            log_weights=-beta * n_sum.astype(float),
                            beta=beta, epsilon=epsilon, base_measure="P_T",
                            J=J, T=T)


def sample_measure(basis: Basis, T: int, beta: float, epsilon: float,
                   count: int, seed: int, sampler: str = "importance",
                   ess_floor: float = 50.0, init: str = "zero",
                   conv: Convention = Convention.LITERAL) -> WeightedEnsemble:
    """Sample the repelling measure.  "importance" returns the weighted
    free ensemble with its ESS in the diagnostics and raises
    SamplerDegeneracyError under the ESS floor; "metropolis" runs the
    chain; "auto" falls back from the first to the second.  Both start
    from the same base law (init, conv), so AUTO never changes the target.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}")
    if sampler != "metropolis":
        ens = sample_ensemble(basis, T, beta, epsilon, count, seed, init,
                              conv)
        try:
            return replace(ens, diagnostics={
                "ess": _checked_ess(ens, ess_floor)})
        except SamplerDegeneracyError:
            if sampler == "importance":
                raise
    return metropolis_sampler(basis, T, beta, epsilon, count, seed,
                              init=init, conv=conv)


def jensen_lower_bound(basis: Basis, T: int, beta: float, epsilon: float,
                       a: float, samples: int, seed: int,
                       conv: Convention = Convention.LITERAL,
                       ess_floor: float = 50.0) -> dict:
    """Variational bound (1/T) log Z >= -(beta/T) E_a[sum_t N(t)] - a^2 J/2.

    The drift shifts every site by the same a*t, so near-pair counts are
    drift-invariant and the expectation is taken over exact stationary
    mode samples of the centered field; the drift enters only through the
    relative-entropy cost a^2 J / 2 per time step over J sites.  The
    left side is estimated by importance sampling from the zero profile.
    Both standard errors are combined for the `holds` verdict.
    """
    J = basis.J
    rng = counter_rng(seed, 1)
    fields = sample_stationary_field(basis, rng, samples, conv)
    counts = intersection_counts_batch(fields, epsilon).astype(float)
    en = float(counts.mean())
    en_se = float(counts.std(ddof=1) / np.sqrt(samples))
    bound = -beta * en - 0.5 * a * a * J
    bound_se = beta * en_se

    ens = sample_ensemble(basis, T, beta, epsilon, samples, seed, conv=conv)
    est = estimate_measure(ens, "R", ess_floor=ess_floor)
    logz_t = est["log_Z_hat"] / T
    logz_t_se = est["log_Z_se"] / T
    comb = float(np.hypot(bound_se, logz_t_se))
    return {"bound": bound, "bound_se": bound_se,
            "logZ_over_T": logz_t, "logZ_se_over_T": logz_t_se,
            "holds": bool(logz_t >= bound - 3.0 * comb),
            "ess": est["ess"], "stationary_mean_pairs": en}


def metropolis_accept(rng: np.random.Generator, delta_log: float) -> bool:
    """Accept with probability min(1, exp(delta_log))."""
    if delta_log >= 0:
        return True
    return rng.random() < np.exp(delta_log)


class _NoiseChain:
    """Metropolis state over the white-noise representation of a string.

    The state is the field noise xi (T x J standard normals) plus, under
    stationary initialization, a white vector for the initial modes.
    Proposals mix a scaled fresh draw into part of the state,
    x' = sqrt(1-s^2) x + s z, which leaves the Gaussian base invariant;
    the acceptance ratio then reduces to the Boltzmann factor alone.

    Modes m >= 1 are evolved; the mean mode shifts every site equally and
    affects neither the weight nor any reported observable.  The cached
    mode trajectory is rebuilt from the white state at every recorded
    sample so incremental float drift cannot accumulate.

    The pair state is the near-pair mask of the rows u (times 1..T), from
    observables.near_pairs.  A row's near-pair count is J + 2 * (its mask
    sum), so a tail update of rows s.. has log ratio
    -beta * 2 * (count_nonzero(new mask) - count_nonzero(near[s:])),
    and no per-row sum is taken.  The mask compares the same rounded
    differences as intersection_counts_batch on the always finite rows,
    so the chain's draws and decisions are those of a per-row count.
    """

    def __init__(self, basis, T, beta, epsilon, rng, init, conv):
        self.basis = basis
        self.T = T
        self.beta = beta
        self.epsilon = epsilon
        self.rng = rng
        self.rho = basis.rho[1:]
        self.sig = mode_innovation_std(basis, conv)[1:]
        self.e1 = basis.e[1:]
        self.init = init
        if init == "stationary":
            self.x0_scale = stationary_mode_std(basis, conv)[1:]
        elif init == "zero":
            self.x0_scale = np.zeros(basis.J - 1)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.w0 = rng.standard_normal(basis.J - 1)
        self.xi = rng.standard_normal((T, basis.J))
        # rho^k rows for k = 0..T, shared by every tail update
        self.rho_pow = self.rho[None, :] ** np.arange(T + 1)[:, None]
        self._rebuild()

    def _rebuild(self):
        T = self.T
        xim = self.xi @ self.e1.T            # per-row mode innovations
        X = np.empty((T + 1, len(self.rho)))
        X[0] = self.w0 * self.x0_scale
        for t in range(T):
            X[t + 1] = self.rho * X[t] + self.sig * xim[t]
        self.X = X
        self.u = X[1:] @ self.e1
        self.near = near_pairs(self.u, self.epsilon)

    def _try_tail(self, s, delta_modes):
        """Accept/reject a change of the innovation modes of row s by
        delta; rows s+1..T of the mode trajectory are affected."""
        shift = self.rho_pow[:self.T - s] * (self.sig * delta_modes)
        new_X = self.X[s + 1:] + shift
        new_u = new_X @ self.e1
        new_near = near_pairs(new_u, self.epsilon)
        d_log = -self.beta * float(2 * (np.count_nonzero(new_near)
                                        - np.count_nonzero(self.near[s:])))
        if not metropolis_accept(self.rng, d_log):
            return False
        self.X[s + 1:] = new_X
        self.u[s:] = new_u
        self.near[s:] = new_near
        return True

    def row_move(self, s, scale):
        keep = np.sqrt(1.0 - scale * scale)
        new_row = keep * self.xi[s] + scale * self.rng.standard_normal(
            self.basis.J)
        delta_modes = (new_row - self.xi[s]) @ self.e1.T
        if self._try_tail(s, delta_modes):
            self.xi[s] = new_row
            return True
        return False

    def entry_move(self, s, n, scale):
        keep = np.sqrt(1.0 - scale * scale)
        new_val = keep * self.xi[s, n] + scale * self.rng.standard_normal()
        delta_modes = self.e1[:, n] * (new_val - self.xi[s, n])
        if self._try_tail(s, delta_modes):
            self.xi[s, n] = new_val
            return True
        return False

    def init_move(self, scale):
        keep = np.sqrt(1.0 - scale * scale)
        new_w0 = keep * self.w0 + scale * self.rng.standard_normal(
            len(self.rho))
        delta0 = (new_w0 - self.w0) * self.x0_scale
        shift = self.rho_pow[1:self.T + 1] * delta0
        new_X = self.X[1:] + shift
        new_u = new_X @ self.e1
        new_near = near_pairs(new_u, self.epsilon)
        d_log = -self.beta * float(2 * (np.count_nonzero(new_near)
                                        - np.count_nonzero(self.near)))
        if not metropolis_accept(self.rng, d_log):
            return False
        self.w0 = new_w0
        self.X[0] = new_w0 * self.x0_scale
        self.X[1:] = new_X
        self.u = new_u
        self.near = new_near
        return True


def metropolis_sampler(basis: Basis, T: int, beta: float, epsilon: float,
                       n_samples: int, seed: int,
                       proposal_scale: float = 0.7, thin: int = 5,
                       burnin: int = 200, init: str = "zero",
                       conv: Convention = Convention.LITERAL
                       ) -> WeightedEnsemble:
    """Metropolis chain targeting the repelling measure; returns thinned
    samples with unit weights and acceptance diagnostics.

    One sweep is a systematic scan of innovation-row proposals with one
    single-entry proposal per row at a random site, plus, under
    stationary initialization, one initial-vector proposal.  An
    acceptance rate outside [0.05, 0.95] triggers a tuning warning, not
    a failure.
    """
    if not (0.0 < proposal_scale <= 1.0):
        raise ValueError("proposal scale must lie in (0, 1]")
    J = basis.J
    rng = counter_rng(seed, 2)
    chain = _NoiseChain(basis, T, beta, epsilon, rng, init, conv)
    accepted = 0
    proposed = 0
    Rs = np.empty(n_samples)
    Ns = np.empty(n_samples, dtype=np.int64)
    sweeps = burnin + n_samples * thin
    k = 0
    for sweep in range(sweeps):
        for s in range(T):
            accepted += chain.row_move(s, proposal_scale)
            accepted += chain.entry_move(s, int(rng.integers(J)),
                                         proposal_scale)
            proposed += 2
        if init == "stationary":
            accepted += chain.init_move(proposal_scale)
            proposed += 1
        if sweep >= burnin and (sweep - burnin) % thin == thin - 1:
            Rs[k] = np.sqrt(np.mean(chain.u ** 2))
            Ns[k] = T * J + 2 * np.count_nonzero(chain.near)
            k += 1
            chain._rebuild()
    rate = accepted / proposed
    if not (0.05 <= rate <= 0.95) and beta > 0:
        warnings.warn(f"Metropolis acceptance rate {rate:.3f} outside "
                      f"[0.05, 0.95]; retune proposal_scale", RuntimeWarning)
    return WeightedEnsemble(obs={"R": Rs[:k], "N_sum": Ns[:k]},
                            log_weights=np.zeros(k), beta=beta,
                            epsilon=epsilon,
                            base_measure=f"Q_T(metropolis,{init})",
                            J=J, T=T,
                            diagnostics={"acceptance_rate": rate,
                                         "sweeps": sweeps, "thin": thin,
                                         "burnin": burnin})
