"""Mode-by-mode view: autoregressive structure and rare-event rates.

Decomposes a simulated string into cosine modes (one column of the
series array per mode), confirms each follows its first-order
autoregression, then compares three routes to the decay
rate of P(time-averaged square > K): the closed-form rate function, its
Legendre-transform construction, and a brute-force tail count.
"""

import numpy as np

from polymerlab import (AR1Params, build_basis, legendre_rate,
                        mode_decompose, radius_of_gyration, rate_function,
                        sample_noise, simulate_recursion, tail_probe)


def main():
    J, T = 8, 20_000
    b = build_basis(J)
    traj = simulate_recursion(np.zeros(J),
                              sample_noise(23, T, J))
    modes = mode_decompose(traj, b)
    print("fitted lag-1 coefficient per mode (expected rho_m):")
    for m in range(1, 5):
        x = modes[:, m - 1]
        slope = x[:-1] @ x[1:] / (x[:-1] @ x[:-1])
        print(f"  m={m}:  {slope:+.4f}  (rho = {b.rho[m]:+.4f})")

    r2_spectral = sum(float(np.mean(x ** 2)) for x in modes.T) / J
    print(f"R^2 direct {radius_of_gyration(traj) ** 2:.4f} vs spectral "
          f"{r2_spectral:.4f}")
    print()

    # mode 1 under the literal convention: unit innovations
    p = AR1Params(rho=float(b.rho[1]), sigma2=1.0)
    x0 = p.sigma2 / (1 - p.rho ** 2)
    xs = np.array([1.5 * x0, 2 * x0, 3 * x0])
    print(f"mode 1 rate function (zero at {x0:.3f}):")
    for x, direct, dual in zip(xs, rate_function(p, xs),
                               legendre_rate(p, xs)):
        print(f"  I({x:6.3f}) = {direct:.6f}   legendre {dual:.6f}")
    print()

    q = AR1Params(rho=0.0, sigma2=1.0)
    probe = tail_probe(q, T=20, K=2.0, samples=500_000, seed=23)
    print("independent case, T=20, K=2:")
    print(f"  -(1/T) log P(S_T > K) = "
          f"{probe['empirical_log_prob_over_T']:.4f}  "
          f"({probe['exceedances']} exceedances)")
    print(f"  limiting rate I(K)    = {probe['rate_at_K']:.4f}")
    print("  the empirical value sits above the limit and drifts toward "
          "it as T grows")


if __name__ == "__main__":
    main()
