import numpy as np
import pytest

from polymerlab.increments import (SCAN_FIELDS, increment_variance,
                                   monte_carlo_increment_check,
                                   scan_distances, variance_scaling_scan)
from polymerlab.spectral import Convention, build_basis


def _brute_variance(basis, i, j, conv):
    # direct mode sum of the stationary variances against a^2 dphi^2:
    # 1/(1-rho^2) under LITERAL, (J/2) rho^2/(1-rho^2) under PAPER
    rho2 = basis.rho[1:] ** 2
    var = 1.0 / (1.0 - rho2)
    if conv is Convention.PAPER:
        var = var * (basis.J / 2.0) * rho2
    a = basis.a[1:]
    dphi = basis.phi[1:, j] - basis.phi[1:, i]
    return float(np.sum(var * a ** 2 * dphi ** 2))


def test_closed_form_matches_brute_mode_sum():
    for J in (4, 8, 13):
        b = build_basis(J)
        for conv in (Convention.LITERAL, Convention.PAPER):
            for (i, j) in ((0, 1), (0, J // 2), (1, J - 2)):
                var = increment_variance(b, i, j, conv)
                assert isinstance(var, float)
                assert var == pytest.approx(
                    _brute_variance(b, i, j, conv), rel=1e-12)


def test_same_site_variance_is_zero():
    b = build_basis(8)
    var = increment_variance(b, 3, 3, Convention.LITERAL)
    assert var == pytest.approx(0.0, abs=1e-12)


def test_known_values_at_width_eight():
    b = build_basis(8)
    lit = increment_variance(b, 0, 3, Convention.LITERAL)
    assert lit == pytest.approx(6.0, rel=1e-12)
    # the two shortest boundary-anchored separations coincide exactly
    p1 = increment_variance(b, 0, 1, Convention.PAPER)
    p2 = increment_variance(b, 0, 2, Convention.PAPER)
    assert p1 == pytest.approx(6.0, rel=1e-12)
    assert p2 == pytest.approx(6.0, rel=1e-12)


def test_scan_distances_powers_of_two():
    assert scan_distances(8) == [1, 2, 4]
    assert scan_distances(64) == [1, 2, 4, 8, 16, 32]
    assert scan_distances(4) == [1, 2]


def test_scan_rows_structure_and_symmetry():
    res = variance_scaling_scan([8, 16], Convention.PAPER)
    for row in res.rows:
        assert tuple(row) == SCAN_FIELDS
        assert row["convention"] == "paper"
        assert row["i"] == 0 and row["j"] == row["d"]
        assert row["i"] + row["j"] < row["J"] - 1
        assert row["ratio"] == row["variance"] / (row["J"] * row["d"])
        # reflected diagnostic pair has the same variance by symmetry
        assert row["reflected_i"] == row["J"] - 1 - row["d"]
        assert row["reflected_j"] == row["J"] - 1
        assert row["reflected_variance"] == pytest.approx(row["variance"],
                                                          rel=1e-12)


def test_paper_ratio_band_within_factor_twenty():
    res = variance_scaling_scan([8, 16, 32, 64], Convention.PAPER)
    assert res.min_ratio == pytest.approx(0.375, rel=1e-12)
    assert res.max_ratio == pytest.approx(0.96875, rel=1e-12)
    assert res.max_ratio / res.min_ratio < 20.0


def test_literal_per_distance_band():
    res = variance_scaling_scan([8, 16, 32, 64], Convention.LITERAL)
    assert res.min_ratio == pytest.approx(1.5, rel=1e-12)
    assert res.max_ratio == pytest.approx(3.9375, rel=1e-12)
    assert res.max_ratio / res.min_ratio < 20.0


def test_doubling_width_doubles_paper_variance_within_quarter():
    rows = {(r["J"], r["d"]): r["variance"]
            for r in variance_scaling_scan([8, 16, 32, 64],
                                           Convention.PAPER).rows}
    worst = 0.0
    for J in (8, 16, 32):
        for d in scan_distances(J):
            if (2 * J, d) in rows:
                ratio = rows[(2 * J, d)] / rows[(J, d)]
                worst = max(worst, abs(ratio - 2.0) / 2.0)
    assert worst <= 0.2501


def test_scan_rejects_tiny_widths():
    with pytest.raises(ValueError):
        variance_scaling_scan([2], Convention.PAPER)


def test_monte_carlo_check_agrees():
    b = build_basis(8)
    for conv in (Convention.LITERAL, Convention.PAPER):
        r = monte_carlo_increment_check(b, 0, 3, conv, 20_000, seed=99)
        assert abs(r["mc_mean"]) < 5 * r["mean_se"]
        assert r["variance_rel_err"] < 0.05
        assert r["closed_variance"] == pytest.approx(
            increment_variance(b, 0, 3, conv))
