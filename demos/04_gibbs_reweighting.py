"""Interacting string by reweighting and by Markov chain.

Importance sampling attaches Boltzmann weights to free trajectories;
the Metropolis chain targets the same repelling law directly.  The two
routes should agree, the partition function should respect its
convexity lower bound, and a two-site chain has a closed form to pin
the whole construction down.
"""

import numpy as np
from scipy.stats import norm

from polymerlab import (build_basis, estimate_measure, jensen_lower_bound,
                        metropolis_sampler, sample_ensemble)


def main():
    J, T, beta, eps = 6, 24, 0.05, 0.5
    b = build_basis(J)
    ens = sample_ensemble(b, T, beta, eps, count=40_000, seed=11)
    imp = estimate_measure(ens, "R")
    print(f"importance sampling  (J={J}, T={T}, beta={beta}):")
    print(f"  E_Q[R] = {imp['Q_mean']:.4f} +- {imp['Q_se']:.4f}   "
          f"ESS = {imp['ess']:.0f}/{len(ens)}")
    print(f"  (1/T) log Z = {imp['log_Z_hat'] / T:+.5f}")

    chain = metropolis_sampler(b, T, beta, eps, 4000, seed=11, thin=5,
                               burnin=200)
    met = estimate_measure(chain, "R")
    print(f"metropolis chain:      E_Q[R] = {met['Q_mean']:.4f} "
          f"(acceptance {chain.diagnostics['acceptance_rate']:.2f})")
    print()

    for a in (0.0, 0.5):
        rep = jensen_lower_bound(b, T, beta, eps, a, samples=30_000,
                                 seed=11)
        print(f"Jensen bound, drift a={a}: "
              f"{rep['bound']:+.5f} <= {rep['logZ_over_T']:+.5f}  "
          f"holds={rep['holds']}")
    print()

    # two sites, one step: Q[both sites near] in closed form
    beta2, eps2 = 0.5, 0.8
    b2 = build_basis(2)
    gap = abs(b2.e[1, 0] - b2.e[1, 1])
    p0 = 2 * norm.cdf(eps2 / gap) - 1
    w = np.exp(-2 * beta2)
    print("two-site cross-check, P[sites within eps] under the tilt:")
    print(f"  closed form {w * p0 / (w * p0 + 1 - p0):.4f}")
    chain2 = metropolis_sampler(b2, 1, beta2, eps2, 20_000, seed=3,
                                thin=3, burnin=100)
    print(f"  chain       {(chain2.obs['N_sum'] == 4).mean():.4f}")


if __name__ == "__main__":
    main()
