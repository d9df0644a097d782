"""Local observables on one stationary row, shifted to vanish at a site.

Draws a row from the exact stationary law, shifted by its middle value
so that it vanishes at the middle site, then exercises the local
observables on it: near-pair counts, the occupancy histogram, a plain
map z -> l(z) from bin index to site count, and the pair-count lower
bound N >= sum_z l(z)^2 through those occupancies.
"""

from polymerlab import (Convention, build_basis, counter_rng, free_modes,
                        local_inequality_check, occupancy_histogram,
                        self_intersection_count)


def main():
    J = 16
    modes = free_modes(build_basis(J), Convention.LITERAL, "stationary")
    row = (modes.start(counter_rng(5), 1) @ modes.e1)[0]
    row = row - row[J // 2]
    print(f"shifted stationary row: u[{J // 2}] = "
          f"{row[J // 2]:+.2e} (shifted to 0)")

    eps = 0.75
    n_pairs = self_intersection_count(row, 0, eps)
    hist = occupancy_histogram(row, 0, eps)
    rep = local_inequality_check(row, 0, eps, window=(-2, 3))
    print(f"near pairs within {eps}: {n_pairs}")
    print(f"occupied bins: {sorted(hist)}")
    print(f"pair count {rep.lhs} >= occupancy square sum {rep.rhs}: "
          f"{rep.holds}")
    print(f"window chain bound {rep.window_quadratic_mean_bound:.2f} "
          f"<= {rep.rhs} <= {rep.lhs}: {rep.chain_holds}")


if __name__ == "__main__":
    main()
