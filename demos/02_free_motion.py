"""Free string dynamics: recursion vs closed-form solution, mean-height
diffusion, and the increment variance scan with its scaling bands.

increment_variance gives the exact stationary variance of u(0) - u(d)
as a float; variance_scaling_scan returns its rows as plain dicts with
the ratio band over all of them."""

import numpy as np

from polymerlab import (Convention, build_basis, counter_rng,
                        increment_variance, sample_noise, simulate_recursion,
                        solution_formula, variance_scaling_scan)


def main():
    J, T = 16, 128
    b = build_basis(J)
    noise = sample_noise(31, T, J)
    traj = simulate_recursion(np.zeros(J), noise)
    direct = solution_formula(np.zeros(J), noise, b)
    print(f"recursion vs spectral solution, J={J}, T={T}: "
          f"max gap {np.max(np.abs(traj.u - direct.u)):.2e}")

    # the site average performs a random walk with variance t/J
    reps, horizon = 20_000, 32
    rng = counter_rng(7)
    means = np.zeros(reps)
    for _ in range(horizon):
        means += rng.standard_normal((reps, J)).mean(axis=1)
    print(f"mean-height variance after t={horizon}: "
          f"{means.var():.4f} (expected {horizon / J:.4f})")
    print()

    for conv in (Convention.LITERAL, Convention.PAPER):
        print(f"stationary increment variances, {conv.name.lower()} "
              "weights, pair (0, d) at J=16:")
        for d in (1, 2, 4, 8):
            print(f"  d={d}:  var = {increment_variance(b, 0, d, conv):.6f}")
        scan = variance_scaling_scan((8, 16, 32, 64), conv)
        print(f"  scan ratio band over J in 8..64: "
              f"[{scan.min_ratio:.6g}, {scan.max_ratio:.6g}]  "
              f"(spread {scan.max_ratio / scan.min_ratio:.3f})")
        print()


if __name__ == "__main__":
    main()
