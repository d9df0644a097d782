"""The self-repelling measure: Boltzmann reweighting of the Gaussian
string, importance sampling and Metropolis sampling of it behind one
sampler selector, and the variational lower bound on the partition
function.

An ensemble's weights are read once, shifted by their largest log
weight, w = exp(lw - max lw), so the largest is 1 and no sum of them
overflows or underflows at any beta * T * J.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (FreeModes, counter_rng, free_modes,
                       mode_innovation_std, neumann_laplacian)
from .observables import intersection_counts_batch, near_pairs
from .spectral import Basis, Convention

SAMPLERS = ("importance", "metropolis", "auto")
# replicates sample_ensemble runs as one batch
_CHUNK = 20_000


class SamplerDegeneracyError(RuntimeError):
    """Raised when an importance-sampling ensemble's effective sample size
    falls below the configured floor."""


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


def _checked_weights(ensemble: WeightedEnsemble, ess_floor: float
                     ) -> tuple[np.ndarray, float]:
    """The max-shifted weights w and their effective sample size
    (sum w)^2 / sum w^2; raises SamplerDegeneracyError when the ESS is
    under min(ess_floor, n) or not a number, as when every log weight is
    -inf."""
    lw = ensemble.log_weights
    # all -inf log weights (beta * N_sum overflowed) give nan, not a warning
    with np.errstate(invalid="ignore"):
        w = np.exp(lw - lw.max())
        ess = float(w.sum() ** 2 / np.dot(w, w))
    # float slack: uniform weights give ess = n only up to rounding; a nan
    # ess fails the comparison
    if not ess >= min(ess_floor, len(ensemble)) * (1.0 - 1e-12):
        raise SamplerDegeneracyError(
            f"effective sample size {ess:.1f} below floor {ess_floor} at "
            f"beta={ensemble.beta}, T={ensemble.T}, J={ensemble.J}")
    return w, ess


def estimate_measure(ensemble: WeightedEnsemble, observable: str = "R",
                     ess_floor: float = 50.0) -> dict:
    """Partition estimate and self-normalized reweighted expectation.

    log_Z_hat, the log of the mean Boltzmann weight, is reported only for
    a "P_T" base.  The expectation is the mean under w / sum w, with the
    normalized-weight delta-method standard error; both standard errors
    are reported only for more than one draw.  An effective sample size
    under ess_floor raises.
    """
    n = len(ensemble)
    if n == 0:
        raise ValueError("empty ensemble")
    if observable not in ensemble.obs:
        raise KeyError(f"unknown observable {observable!r}")
    w, ess = _checked_weights(ensemble, ess_floor)
    log_z = log_z_se = q_se = None
    if ensemble.base_measure == "P_T":
        log_z = float(ensemble.log_weights.max() + np.log(w.mean()))
        if n > 1:
            log_z_se = float(w.std(ddof=1) / (np.sqrt(n) * w.mean()))
    x = np.asarray(ensemble.obs[observable], dtype=float)
    wn = w / w.sum()
    q_mean = float(np.dot(wn, x))
    if n > 1:
        q_se = float(np.sqrt(np.sum(wn ** 2 * (x - q_mean) ** 2)))
    return {"log_Z_hat": log_z, "log_Z_se": log_z_se, "Q_mean": q_mean,
            "Q_se": q_se, "ess": ess, "n": n}


def sample_ensemble(basis: Basis, T: int, beta: float, epsilon: float,
                    count: int, seed: int, init: str = "zero",
                    conv: Convention = Convention.LITERAL
                    ) -> WeightedEnsemble:
    """Importance-sampling ensemble: free trajectories from the base law
    that metropolis_sampler targets (same init and convention), with
    Boltzmann log weights attached.  init "stationary" draws the first
    row from the exact stationary law of the modes m >= 1.  Chunks of
    _CHUNK replicates run as one batch each, accumulating R and the pair
    counts across time in place on four (chunk, J) buffers (the profile,
    the Laplacian, the noise and the deviation), so memory stays
    O(chunk*J) for any T and a step allocates nothing but its pair
    count.

    The pair count runs in the calling thread.  On a worker thread
    beside the recursion it cut the op by 40 % on an idle 2-core host,
    but the two threads pass the GIL through the count's many small
    numpy calls and meet at every step, so on a shared host the op's
    time swung by a factor of two from run to run."""
    modes = free_modes(basis, conv, init)
    # checked here, so bad arguments cost no step
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if T < 1 or count < 1:
        raise ValueError(f"T and count must be positive, got T={T}, "
                         f"count={count}")
    J = basis.J
    # LITERAL drives every mode with unit innovations: white site noise
    sig = (None if conv is Convention.LITERAL
           else mode_innovation_std(basis, conv))
    rng = counter_rng(seed)
    Rs, Ns = [], []
    for done in range(0, count, _CHUNK):
        c = min(_CHUNK, count - done)
        # the zero start draws nothing
        u = (modes.start(rng, c) @ modes.e1 if init == "stationary"
             else np.zeros((c, J)))
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
    # a huge beta gives -inf log weights, which _checked_weights reports
    with np.errstate(over="ignore"):
        log_w = -beta * n_sum.astype(float)
    return WeightedEnsemble(obs={"R": np.concatenate(Rs), "N_sum": n_sum},
                            log_weights=log_w,
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
                "ess": _checked_weights(ens, ess_floor)[1]})
        except SamplerDegeneracyError:
            if sampler == "importance":
                raise
    return metropolis_sampler(basis, T, beta, epsilon, count, seed,
                              init=init, conv=conv)


def mean_pair_counts(modes: FreeModes, T: int, epsilon: float
                     ) -> np.ndarray:
    """Exact E[N(t)] for t = 1..T under the free law of the modes.  A
    pair difference u_i - u_j is centred normal with variance
    v_ij(t) = sum_m Var X_{m,t} (e_mi - e_mj)^2, so the ordered pair is
    near with probability erf(eps / sqrt(2 v_ij)), which is 1 where
    v_ij = 0: E[N(t)] = J + 2 sum_{i<j} erf(eps / sqrt(2 v_ij(t)))."""
    J = modes.e1.shape[1]
    i, j = np.triu_indices(J, 1)
    v = modes.variance(np.arange(1, T + 1)) @ (modes.e1[:, i]
                                               - modes.e1[:, j]) ** 2
    with np.errstate(divide="ignore"):      # v = 0: erf(inf) = 1
        p = np.vectorize(math.erf, otypes=[float])(epsilon / np.sqrt(2 * v))
    return J + 2.0 * p.sum(axis=1)


def jensen_lower_bound(basis: Basis, T: int, beta: float, epsilon: float,
                       a: float, samples: int, seed: int,
                       conv: Convention = Convention.LITERAL,
                       ess_floor: float = 50.0) -> dict:
    """Variational bound (1/T) log Z >= -(beta/T) E[sum_t N(t)] - a^2 J/2.

    The drift shifts every site by the same a*t, so near-pair counts are
    drift-invariant and the expectation is the exact free mean from the
    zero profile (mean_pair_counts); the drift enters only through the
    relative-entropy cost a^2 J / 2 per time step over J sites.  The
    left side is estimated by importance sampling from the zero profile,
    and `holds` allows it three of its standard errors.
    """
    # log Z's standard error needs two samples
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got samples={samples}")
    en = float(mean_pair_counts(free_modes(basis, conv, "zero"), T,
                                epsilon).mean())
    bound = -beta * en - 0.5 * a * a * basis.J
    ens = sample_ensemble(basis, T, beta, epsilon, samples, seed, conv=conv)
    est = estimate_measure(ens, "R", ess_floor=ess_floor)
    logz_t = est["log_Z_hat"] / T
    logz_t_se = est["log_Z_se"] / T
    return {"bound": bound, "logZ_over_T": logz_t,
            "logZ_se_over_T": logz_t_se,
            "holds": bool(logz_t >= bound - 3.0 * logz_t_se),
            "ess": est["ess"], "mean_pairs": en}


class _NoiseChain:
    """Metropolis state over the white-noise representation of a string.

    The state is the white mode noise W (T x (J - 1) standard normals,
    the innovations of the modes m >= 1 in units of their sig) plus,
    under stationary initialization, a white vector w0 for the initial
    modes.  Proposals are preconditioned Crank-Nicolson moves: they mix a
    scaled fresh draw into part of the state, x' = keep x + scale z with
    keep = sqrt(1 - scale^2), which leaves the Gaussian base invariant, so
    the acceptance ratio reduces to the Boltzmann factor alone.

    The mean mode shifts every site equally and affects neither the
    weight nor any reported observable, so it is not kept.  A change c of
    the mode innovation at row s moves the sites of rows s.. by
    (rho^k c) @ e1, k = 0, 1, ..., and the initial-vector move by
    rho^(k+1) c; sweeps add these to the rows u (times 1..T) in place and
    keep no mode trajectory.  _rebuild() evolves the modes from the white
    state and runs before every recorded sample, so the float drift of
    the in-place updates (about 1e-13) never reaches a recorded R or N.

    The pair state is the near-pair mask of the rows u, from
    observables.near_pairs.  A row's near-pair count is J + 2 * (its mask
    sum), so a tail update of rows s.. has log ratio
    -beta * 2 * (count_nonzero(new mask) - count_nonzero(near[s:])), and
    no per-row sum is taken.  The mask compares the same rounded
    differences as intersection_counts_batch on the always finite rows.
    """

    def __init__(self, basis, T, beta, epsilon, rng, init, conv, scale):
        self.T = T
        self.beta = beta
        self.epsilon = epsilon
        self.rng = rng
        self.scale = scale
        self.keep = float(np.sqrt(1.0 - scale * scale))
        modes = free_modes(basis, conv, init)
        self.rho, self.sig, self.x0, self.e1 = (modes.rho, modes.sig,
                                                modes.x0, modes.e1)
        self.init = init
        self.w0 = rng.standard_normal(basis.J - 1)
        self.W = rng.standard_normal((T, basis.J - 1))
        # rho^k rows for k = 0..T, shared by every tail update
        self.rho_pow = self.rho[None, :] ** np.arange(T + 1)[:, None]
        self._rebuild()

    def _rebuild(self):
        """Rows u and their mask, evolved from the white state."""
        x = self.w0 * self.x0
        X = np.empty((self.T, len(self.rho)))
        for t in range(self.T):
            x = X[t] = self.rho * x + self.sig * self.W[t]
        self.u = X @ self.e1
        self.near = near_pairs(self.u, self.epsilon)

    def _propose(self, s, lag0, c, tail, log_v):
        """Accept/reject moving rows s.. by (rho^(lag0 + k) c) @ e1, whose
        mask holds tail near pairs now.  Returns the tail's near-pair
        count after the decision and whether the move was accepted."""
        new_u = (self.rho_pow[lag0:lag0 + self.T - s] * c) @ self.e1
        new_u += self.u[s:]
        new_near = near_pairs(new_u, self.epsilon)
        count = int(np.count_nonzero(new_near))
        d = count - tail
        if d > 0 and not log_v < -2.0 * self.beta * d:
            return tail, False
        self.u[s:] = new_u
        self.near[s:] = new_near
        return count, True

    def sweep(self):
        """One sweep: a whole-row move at each row s in turn, and under
        stationary initialization a final initial-vector move: T (+1)
        proposals.  Every random number of the sweep is drawn up front,
        in this order: the row moves' (T, J - 1) normals and T + 1
        uniforms; the initial-vector move's J - 1 normals follow the
        scan.  A proposal that adds d near pairs is accepted when d <= 0
        or log V < -2 beta d.  Returns the number of accepted proposals.
        """
        T, rng, W = self.T, self.rng, self.W
        Z = rng.standard_normal(W.shape)
        log_v = np.log(rng.random(T + 1)).tolist()
        # W[s] changes only at row s, so every row move is known up front
        new_rows = self.keep * W + self.scale * Z
        C = (new_rows - W) * self.sig
        tail = int(np.count_nonzero(self.near))
        accepted = 0
        for s in range(T):
            tail, ok = self._propose(s, 0, C[s], tail, log_v[s])
            if ok:
                W[s] = new_rows[s]
                accepted += 1
            tail -= int(np.count_nonzero(self.near[s]))
        if self.init == "stationary":
            new_w0 = self.keep * self.w0 + self.scale * rng.standard_normal(
                len(self.rho))
            _, ok = self._propose(0, 1, (new_w0 - self.w0) * self.x0,
                                  int(np.count_nonzero(self.near)), log_v[T])
            if ok:
                self.w0 = new_w0
                accepted += 1
        return accepted


def metropolis_sampler(basis: Basis, T: int, beta: float, epsilon: float,
                       n_samples: int, seed: int,
                       proposal_scale: float = 0.7, thin: int = 5,
                       burnin: int = 200, init: str = "zero",
                       conv: Convention = Convention.LITERAL
                       ) -> WeightedEnsemble:
    """Metropolis chain targeting the repelling measure; returns thinned
    samples with unit weights and acceptance diagnostics.

    One sweep (_NoiseChain.sweep) is a systematic scan of innovation-row
    proposals plus, under stationary initialization, one initial-vector
    proposal: T (+1) proposals, whose random numbers are drawn as one
    block per sweep.  Proposals move the site rows in place; before each
    recorded sample the rows are rebuilt from the white state, so R and
    N_sum are exact functions of it.  An acceptance rate outside
    [0.05, 0.95] triggers a tuning warning, not a failure, unless every
    mode's innovation is zero: then no proposal moves the string.
    """
    if not (0.0 < proposal_scale <= 1.0):
        raise ValueError("proposal scale must lie in (0, 1]")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if T < 1 or n_samples < 1 or thin < 1:
        raise ValueError(f"T, n_samples and thin must be positive, got "
                         f"T={T}, n_samples={n_samples}, thin={thin}")
    if burnin < 0:
        raise ValueError(f"burnin must be nonnegative, got {burnin}")
    J = basis.J
    rng = counter_rng(seed, 2)
    chain = _NoiseChain(basis, T, beta, epsilon, rng, init, conv,
                        proposal_scale)
    accepted = 0
    Rs = np.empty(n_samples)
    Ns = np.empty(n_samples, dtype=np.int64)
    sweeps = burnin + n_samples * thin
    k = 0
    for sweep in range(sweeps):
        accepted += chain.sweep()
        if sweep >= burnin and (sweep - burnin) % thin == thin - 1:
            chain._rebuild()
            Rs[k] = np.sqrt(np.mean(chain.u ** 2))
            Ns[k] = T * J + 2 * np.count_nonzero(chain.near)
            k += 1
    proposed = sweeps * (T + (init == "stationary"))
    rate = accepted / proposed
    if not (0.05 <= rate <= 0.95) and beta > 0 and chain.sig.any():
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
