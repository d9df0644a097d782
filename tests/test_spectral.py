import numpy as np
import pytest

from polymerlab.spectral import (MAX_J, Basis, Convention, build_basis,
                                 cosecant_square_sum, green_function,
                                 normalizing_constant_c0, transition_matrix,
                                 transition_matrix_power)


def test_eigenvalues_half_kappa_are_cosines():
    b = build_basis(8)
    m = np.arange(8)
    assert np.allclose(b.rho, np.cos(m * np.pi / 8), atol=1e-14)


def test_eigenvalues_general_kappa():
    b = build_basis(6, kappa=0.3)
    m = np.arange(6)
    expect = 1.0 - 2 * 0.3 * (1.0 - np.cos(m * np.pi / 6))
    assert np.allclose(b.rho, expect, atol=1e-14)
    # kappa below 1/2 keeps all eigenvalues strictly inside (-1, 1]
    assert b.rho[0] == 1.0
    assert np.all(b.rho[1:] < 1.0) and np.all(b.rho[1:] > -1.0)


def test_middle_mode_eigenvalue_is_exact():
    # for even J, rho_(J/2) = 1 - 2 kappa exactly, and 0 at kappa = 1/2,
    # where cos(pi/2) alone would leave 1e-16; P's eigenvalue agrees
    for J in (2, 4, 8, 64):
        for kappa in (0.5, 0.3, 0.1):
            b = build_basis(J, kappa)
            assert b.rho[J // 2] == 1.0 - 2.0 * kappa
            v = b.e[J // 2]
            P = transition_matrix(J, kappa)
            assert np.abs(P @ v - b.rho[J // 2] * v).max() < 1e-14


def test_basis_orthonormality():
    for J in (2, 3, 8, 17):
        b = build_basis(J)
        gram = b.e @ b.e.T
        assert np.abs(gram - np.eye(J)).max() < 1e-12


def test_mode_zero_weight_and_profile():
    b = build_basis(9)
    assert b.a[0] == pytest.approx(np.sqrt(1.0 / 9))
    assert np.allclose(b.phi[0], 1.0)
    assert np.allclose(b.a[1:], np.sqrt(2.0 / 9))


def test_basis_arrays_readonly():
    b = build_basis(4)
    with pytest.raises(ValueError):
        b.rho[0] = 0.0


def test_build_basis_validation():
    with pytest.raises(ValueError):
        build_basis(0)
    with pytest.raises(ValueError):
        build_basis(4, kappa=0.0)
    with pytest.raises(ValueError):
        build_basis(4, kappa=0.6)
    with pytest.raises(ValueError):
        build_basis(MAX_J + 1)


def test_transition_matrix_structure():
    P = transition_matrix(5)
    # reflecting ends fold the ghost step back onto the boundary site
    assert P[0, 0] == pytest.approx(0.5)
    assert P[0, 1] == pytest.approx(0.5)
    assert P[2, 1] == P[2, 3] == pytest.approx(0.5)
    assert P[2, 2] == pytest.approx(0.0)
    assert np.allclose(P.sum(axis=1), 1.0)
    assert np.allclose(P, P.T)


def test_kernel_equals_matrix_power_literal():
    for J in (2, 3, 8):
        b = build_basis(J)
        for t in (0, 1, 2, 9):
            G = green_function(b, t)
            P = transition_matrix_power(J, t)
            assert np.abs(G - P).max() < 1e-12


def test_kernel_time_zero_is_identity():
    b = build_basis(6)
    assert np.abs(green_function(b, 0) - np.eye(6)).max() < 1e-12


def test_kernel_rows_sum_to_one():
    b = build_basis(10)
    G = green_function(b, 17)
    assert np.allclose(G.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(G, G.T, atol=1e-12)


def test_kernel_general_kappa():
    b = build_basis(7, kappa=0.25)
    G = green_function(b, 6)
    P = transition_matrix_power(7, 6, kappa=0.25)
    assert np.abs(G - P).max() < 1e-12


def test_paper_kernel_uses_single_weight():
    # the alternative normalization replaces a_m^2 by a_m in the mode sum
    b = build_basis(5)
    t = 3
    expect = np.zeros((5, 5))
    for m in range(5):
        expect += (b.a[m] * b.rho[m] ** t) * np.outer(b.phi[m], b.phi[m])
    G = green_function(b, t, conv=Convention.PAPER)
    assert np.abs(G - expect).max() < 1e-12


def test_negative_time_rejected():
    b = build_basis(4)
    with pytest.raises(ValueError):
        green_function(b, -1)


def test_cosecant_square_sum_identity():
    for J in range(2, 129):
        assert abs(cosecant_square_sum(J) - (J * J - 1) / 3.0) < 1e-9


def test_normalizing_constant():
    assert normalizing_constant_c0(2) == pytest.approx(1.0)
    for J in (2, 5, 32):
        assert normalizing_constant_c0(J) == pytest.approx(3.0 / (J * J - 1))
    with pytest.raises(ValueError):
        normalizing_constant_c0(1)


def test_c0_matches_mode_variance_sum():
    # 1/c0 equals the total stationary mode variance at kappa = 1/2
    for J in (3, 8, 21):
        b = build_basis(J)
        s = np.sum(1.0 / (1.0 - b.rho[1:] ** 2))
        assert normalizing_constant_c0(J) * s == pytest.approx(1.0,
                                                               abs=1e-12)


def test_convention_values_fixed():
    assert Convention.LITERAL.value == "literal"
    assert Convention.PAPER.value == "paper"
    assert Convention("paper") is Convention.PAPER


def test_basis_is_frozen():
    b = build_basis(3)
    with pytest.raises(AttributeError):
        b.J = 5
    assert isinstance(b, Basis)


@pytest.mark.parametrize("name", ["rho", "a", "phi", "e"])
def test_basis_arrays_are_not_constructor_arguments(name):
    # the arrays follow from J and kappa: one passed in would be dropped
    # for the cosine basis without a word
    with pytest.raises(TypeError, match=name):
        Basis(J=4, **{name: np.zeros(4)})
    assert np.array_equal(Basis(J=4).e, build_basis(4).e)
