"""Cosine eigenstructure of the discrete Neumann heat propagator.

The chain {0..J-1} evolves by local averaging with diffusion constant
kappa; the one-step propagator P = I + kappa*Lap (Neumann Laplacian) is
diagonalized by the half-integer cosine modes

    phi_m(n) = cos(m*pi*(n + 1/2)/J),   rho_m = 1 - 2*kappa*(1 - cos(m*pi/J)),

with normalizers a_0 = sqrt(1/J) and a_m = sqrt(2/J) for m >= 1 so that
e_m = a_m * phi_m is an orthonormal basis.  At the default kappa = 1/2 the
eigenvalues reduce to rho_m = cos(m*pi/J).

Two kernel normalizations are carried throughout the package:

* LITERAL: G_t = sum_m a_m^2 rho_m^t phi_m(n) phi_m(k).  This equals P^t
  entrywise, so G_0 is the identity and every row sums to 1.
* PAPER: a single power of a_m in the same sum.  G_0 is then not the
  identity and rows are not stochastic; mode variances pick up an extra
  J/2.  It is kept selectable so the alternative normalization can be
  reproduced and compared verbatim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

MAX_J = 4096


class Convention(enum.Enum):
    """Kernel normalization: squared amplitudes (LITERAL, recursion-exact)
    or single amplitudes (PAPER)."""

    LITERAL = "literal"
    PAPER = "paper"


@dataclass(frozen=True)
class Basis:
    """Immutable spectral data for a chain of length J.

    rho, a are length-J vectors; phi is the (J, J) matrix phi[m, n].
    e = a[:, None] * phi has orthonormal rows.
    """

    J: int
    kappa: float = 0.5
    rho: np.ndarray = field(repr=False, default=None)
    a: np.ndarray = field(repr=False, default=None)
    phi: np.ndarray = field(repr=False, default=None)
    e: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        J = self.J
        if not isinstance(J, (int, np.integer)) or J < 1:
            raise ValueError(f"chain length must be a positive integer, got {J!r}")
        if J > MAX_J:
            raise ValueError(f"chain length {J} exceeds the supported cap {MAX_J}")
        if not (0.0 < self.kappa <= 0.5):
            raise ValueError(f"kappa must lie in (0, 1/2], got {self.kappa}")
        m = np.arange(J)
        rho = 1.0 - 2.0 * self.kappa * (1.0 - np.cos(m * np.pi / J))
        if J % 2 == 0:
            # cos(pi/2) rounds to 6e-17: at kappa = 1/2 the mode would
            # keep a 1e-16 rho where the exact value is 0
            rho[J // 2] = 1.0 - 2.0 * self.kappa
        a = np.full(J, np.sqrt(2.0 / J))
        a[0] = np.sqrt(1.0 / J)
        n = np.arange(J)
        phi = np.cos(np.outer(m, np.pi * (n + 0.5) / J))
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "e", a[:, None] * phi)
        for arr in (self.rho, self.a, self.phi, self.e):
            arr.setflags(write=False)


def build_basis(J: int, kappa: float = 0.5) -> Basis:
    return Basis(J=int(J), kappa=kappa)


def green_function(basis: Basis, t: int,
                   conv: Convention = Convention.LITERAL) -> np.ndarray:
    """Heat kernel G_t as a (J, J) matrix by eigen-expansion.  Under
    LITERAL it equals the t-th power of the averaging matrix; G_0 is the
    identity.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    weight = basis.a ** 2 if conv is Convention.LITERAL else basis.a
    # rho_m^t with 0^0 = 1 so that t = 0 keeps every mode
    rpow = np.ones(basis.J) if t == 0 else basis.rho ** t
    return (basis.phi.T * (weight * rpow)) @ basis.phi


def transition_matrix(J: int, kappa: float = 0.5) -> np.ndarray:
    """One-step propagator P = I + kappa*Lap with Neumann ghost cells."""
    if J < 1:
        raise ValueError("chain length must be positive")
    if not (0.0 < kappa <= 0.5):
        raise ValueError(f"kappa must lie in (0, 1/2], got {kappa}")
    P = np.zeros((J, J))
    idx = np.arange(J)
    P[idx, idx] = 1.0 - 2.0 * kappa
    if J > 1:
        P[idx[:-1], idx[:-1] + 1] = kappa
        P[idx[1:], idx[1:] - 1] = kappa
    # ghost reflection folds back onto the boundary sites
    P[0, 0] += kappa
    P[J - 1, J - 1] += kappa
    return P


def transition_matrix_power(J: int, t: int, kappa: float = 0.5) -> np.ndarray:
    """Exact matrix-power oracle P^t for the eigen-expansion kernel."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return np.linalg.matrix_power(transition_matrix(J, kappa), t)


def cosecant_square_sum(J: int) -> float:
    """Raw sum over m = 1..J-1 of 1/sin^2(m*pi/J)."""
    if J < 2:
        raise ValueError("sum over m = 1..J-1 is empty for J < 2")
    m = np.arange(1, J)
    return float(np.sum(1.0 / np.sin(m * np.pi / J) ** 2))


def normalizing_constant_c0(J: int) -> float:
    """The gyration normalizer 3/(J^2 - 1), the reciprocal of the
    cosecant-square sum."""
    if J < 2:
        raise ValueError("normalizing constant needs J >= 2")
    return 3.0 / (J * J - 1.0)
