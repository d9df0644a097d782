"""Gyration-radius scaling in the width, and tail control under
repulsion.  The two weight conventions give different exponents; both
studies print their fitted slope next to the closed-form prediction.
The tail run switches the interaction on and watches both tail
probabilities stay controlled as the horizon grows."""

from polymerlab import (Convention, StudyConfig, run_scaling_study,
                        run_tail_probes)


def main():
    for conv in (Convention.LITERAL, Convention.PAPER):
        cfg = StudyConfig(J_list=(8, 16, 32, 64), T=256, replicates=800,
                          seed=41, convention=conv)
        rep = run_scaling_study(cfg)
        print(f"{conv.name.lower():8s} exponent "
              f"{rep.meta['fitted_exponent']:.4f} +- "
              f"{rep.meta['exponent_se']:.4f}")
        for row in rep.rows:
            print(f"   J={row['J']:3d}  R = {row['R_mean']:8.4f}  "
                  f"exact {row['R_exact']:8.4f}  ({row['sampler']})")
        print()

    cfg = StudyConfig(J_list=(8,), T_list=(32, 96), beta=0.02,
                      epsilon=0.5, replicates=300, seed=41)
    out = run_tail_probes(cfg, 0.2, 0.3)
    print("repulsive string, J=8, beta=0.02: tail probabilities by "
          "horizon")
    for r in out.rows:
        print(f"   T={r['T']:4d}  P(R < 1.6) = {r['lower_prob']:.4f}  "
              f"P(R > 2.4) = {r['upper_prob']:.4f}")
    print(f"lower tail nonincreasing: {out.meta['lower_nonincreasing']}")
    print(f"upper tail nonincreasing: {out.meta['upper_nonincreasing']}")


if __name__ == "__main__":
    main()
