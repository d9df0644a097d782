"""Noise generation, the forward height recursion, closed-form solutions,
the free law of the modes and binary file IO of the random string.

The field u(t, n) on {0..T} x {0..J-1} evolves by

    u(t+1, n) = u(t, n) + kappa*(u(t, n+1) - 2 u(t, n) + u(t, n-1)) + xi(t, n)

with Neumann ghost cells u(t, -1) = u(t, 0) and u(t, J) = u(t, J-1), and
iid standard normal xi (optionally mean-shifted by a drift a).  In the
orthonormal mode basis e_m the recursion decouples into AR(1) chains
X_{t+1} = rho_m X_t + innovation; free_modes gives their law, from
which every sampler and closed form of the free string starts.
"""

from __future__ import annotations

import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .spectral import Basis, Convention, green_function

_BINARY_MAGIC = b"PLY1"
_BINARY_VERSION = 2
_BINARY_HEADERS = {1: "<4sIIIqB", 2: "<4sIIIqBd"}    # version 2 adds kappa


@dataclass(frozen=True)
class NoiseField:
    T: int
    J: int
    xi: np.ndarray
    seed: int
    drift: float = 0.0

    def __post_init__(self):
        if self.xi.shape != (self.T, self.J):
            raise ValueError(
                f"noise shape {self.xi.shape} does not match (T, J) = "
                f"({self.T}, {self.J})")
        self.xi.setflags(write=False)


@dataclass(frozen=True)
class Trajectory:
    """Field values u with shape (T+1, J); row 0 is the initial profile."""

    u: np.ndarray
    kappa: float = 0.5
    convention: Convention = Convention.LITERAL
    seed: int | None = None

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] < 1:
            raise ValueError("field must be (T+1, J) with T >= 0, J >= 1")
        object.__setattr__(self, "u", u)

    @property
    def T(self) -> int:
        return self.u.shape[0] - 1

    @property
    def J(self) -> int:
        return self.u.shape[1]


def counter_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator on a counter-based stream; identical (seed, stream)
    gives identical draws regardless of what ran before."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, or the machine's
    count where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_costliest_first(fn, items, cost) -> list:
    """[fn(item) for item in items] on one thread per usable CPU.

    Items start in descending cost(item), ties in item order, so the
    longest task does not start behind the others (Graham's
    longest-processing-time rule); results come back in item order.
    """
    items = list(items)
    order = sorted(range(len(items)), key=lambda i: cost(items[i]),
                   reverse=True)
    workers = max(1, min(usable_cpus(), len(items)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        done = dict(zip(order, pool.map(lambda i: fn(items[i]), order)))
    return [done[i] for i in range(len(items))]


def sample_noise(seed: int, T: int, J: int, drift: float = 0.0) -> NoiseField:
    """T x J iid Normal(drift, 1) draws, filled t-major then n-ascending."""
    if T < 1 or J < 1:
        raise ValueError("need T >= 1 and J >= 1")
    rng = counter_rng(seed)
    xi = drift + rng.standard_normal((T, J))
    return NoiseField(T=T, J=J, xi=xi, seed=seed, drift=drift)


def neumann_laplacian(u: np.ndarray, out: np.ndarray | None = None
                      ) -> np.ndarray:
    """Second difference with reflecting ghost cells, along the last axis.
    The interior is summed in place in the result, with the rounding of
    u[2:] - 2 u[1:-1] + u[:-2], so a call allocates only the result, and
    nothing when it is written into `out` (an array of u's shape that
    does not overlap u)."""
    lap = np.empty_like(u) if out is None else out
    mid = lap[..., 1:-1]
    np.multiply(u[..., 1:-1], -2.0, out=mid)
    mid += u[..., 2:]
    mid += u[..., :-2]
    if u.shape[-1] == 1:
        lap[..., 0] = 0.0
        return lap
    lap[..., 0] = u[..., 1] - u[..., 0]
    lap[..., -1] = u[..., -2] - u[..., -1]
    return lap


def simulate_recursion(u0, noise: NoiseField, kappa: float = 0.5) -> Trajectory:
    """Run the height recursion forward from u0 (zero profile if None)."""
    if not (0.0 < kappa <= 0.5):
        raise ValueError(f"kappa must lie in (0, 1/2], got {kappa}")
    J = noise.J
    if u0 is None:
        u0 = np.zeros(J)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (J,):
        raise ValueError(f"u0 shape {u0.shape} does not match J = {J}")
    u = np.empty((noise.T + 1, J))
    u[0] = u0
    for t in range(noise.T):
        u[t + 1] = u[t] + kappa * neumann_laplacian(u[t]) + noise.xi[t]
    return Trajectory(u=u, kappa=kappa, seed=noise.seed)


def solution_formula(u0, noise: NoiseField, basis: Basis,
                     conv: Convention = Convention.LITERAL) -> Trajectory:
    """Closed-form solution by kernel expansion.

    LITERAL propagates the noise of step s through kernel power t-1-s and
    reproduces simulate_recursion exactly.  PAPER uses power t-s (and the
    single-amplitude kernel), which shifts every noise row through one
    extra smoothing step; the difference is kept observable on purpose.
    """
    J = basis.J
    if noise.J != J:
        raise ValueError("noise width does not match basis")
    if u0 is None:
        u0 = np.zeros(J)
    u0 = np.asarray(u0, dtype=float)
    T = noise.T
    kernels = np.stack([green_function(basis, r, conv=conv)
                        for r in range(T + 1)])
    u = np.empty((T + 1, J))
    u[0] = u0
    for t in range(1, T + 1):
        hom = kernels[t] @ u0
        if conv is Convention.LITERAL:
            powers = kernels[t - 1::-1][:t]      # t-1-s for s = 0..t-1
        else:
            powers = kernels[t:0:-1]             # t-s   for s = 0..t-1
        u[t] = hom + np.einsum("sij,sj->i", powers, noise.xi[:t])
    return Trajectory(u=u, kappa=basis.kappa, convention=conv, seed=noise.seed)


def mode_innovation_std(basis: Basis, conv: Convention) -> np.ndarray:
    """Per-mode AR(1) innovation standard deviation in the e basis.

    LITERAL: 1 for every mode.  PAPER: |rho_m| * sqrt(J/2); the extra
    smoothing step scales the innovation by rho_m and the single-amplitude
    kernel leaves a factor sqrt(J/2) against the orthonormal basis.
    """
    if conv is Convention.LITERAL:
        return np.ones(basis.J)
    return np.abs(basis.rho) * np.sqrt(basis.J / 2.0)


@dataclass(frozen=True)
class FreeModes:
    """The free law of the modes m >= 1: X_t = rho X_(t-1) + sig xi_t with
    standard normal xi_t, from X_0 = x0 w with w standard normal.  x0 is
    the stationary deviation sig / sqrt(1 - rho^2), or 0 for the zero
    start.  rho, sig and x0 have length J - 1; e1 is the (J - 1, J)
    mode-to-site matrix."""

    rho: np.ndarray
    sig: np.ndarray
    x0: np.ndarray
    e1: np.ndarray

    def start(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """X_0 for `size` strings, shape (size, J - 1), from as many rows
        of J - 1 standard normals."""
        return rng.standard_normal((size, len(self.rho))) * self.x0

    def variance(self, t) -> np.ndarray:
        """Var X_t per mode at the times t, shape t.shape + (J - 1,):
        x0^2 rho^(2t) + s (1 - rho^(2t)), s = sig^2 / (1 - rho^2) the
        stationary variance."""
        r2t = self.rho ** (2 * np.asarray(t)[..., None])
        stat = self.sig ** 2 / (1.0 - self.rho ** 2)
        return self.x0 ** 2 * r2t + stat * (1.0 - r2t)

    def variance_sum(self, T: int) -> np.ndarray:
        """Sum over t = 1..T of Var X_t per mode.  Var X_t relaxes
        geometrically from x0^2 to the stationary sig^2 / (1 - rho^2);
        |rho| < 1 for every m >= 1.  1 - rho^(2T) is taken by expm1,
        which keeps its digits as rho^2 -> 1."""
        r2 = self.rho ** 2
        stat = self.sig ** 2 / (1.0 - r2)
        with np.errstate(divide="ignore"):      # rho = 0: log 0 = -inf
            decay = -np.expm1(T * np.log(r2))
        return T * stat + (self.x0 ** 2 - stat) * r2 * decay / (1.0 - r2)


def free_modes(basis: Basis, conv: Convention, init: str) -> FreeModes:
    """The free law of the modes m >= 1 under a convention, started from
    zero (init "zero") or from the stationary law (init "stationary")."""
    if init not in ("zero", "stationary"):
        raise ValueError(f"unknown init {init!r}")
    rho = basis.rho[1:]
    sig = mode_innovation_std(basis, conv)[1:]
    x0 = (sig / np.sqrt(1.0 - rho ** 2) if init == "stationary"
          else np.zeros(basis.J - 1))
    return FreeModes(rho=rho, sig=sig, x0=x0, e1=basis.e[1:])


def write_trajectory_binary(traj: Trajectory, path) -> None:
    """Compact dump: header (magic 'PLY1', version 2, J, T, seed,
    convention byte: 0 literal / 1 paper, kappa as float64) followed by
    the field as little-endian float64 in C order."""
    seed = -1 if traj.seed is None else int(traj.seed)
    conv_byte = 0 if traj.convention is Convention.LITERAL else 1
    header = struct.pack(_BINARY_HEADERS[_BINARY_VERSION], _BINARY_MAGIC,
                         _BINARY_VERSION, traj.J, traj.T, seed, conv_byte,
                         traj.kappa)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(traj.u, dtype="<f8").tobytes())


def read_trajectory_binary(path) -> Trajectory:
    """Inverse of write_trajectory_binary.  A version-1 dump stores no
    kappa and reads back with kappa 0.5 and a warning; a file whose
    length does not match its header raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, version = data[:4], int.from_bytes(data[4:8], "little")
    if magic != _BINARY_MAGIC:
        raise ValueError(f"not a trajectory dump (magic {magic!r})")
    if version not in _BINARY_HEADERS:
        raise ValueError(f"unsupported dump version {version}")
    fmt = _BINARY_HEADERS[version]
    head = struct.calcsize(fmt)
    if len(data) < head:
        raise ValueError(f"{path}: expected a {head}-byte header, found "
                         f"{len(data)} bytes")
    _, _, J, T, seed, conv_byte, *kappa = struct.unpack_from(fmt, data)
    if len(data) != head + 8 * (T + 1) * J:
        raise ValueError(f"{path}: expected {head + 8 * (T + 1) * J} bytes "
                         f"for T={T}, J={J}, found {len(data)}")
    if not kappa:
        warnings.warn(f"{path}: version-1 dump stores no kappa; reading "
                      f"kappa as 0.5", UserWarning)
    u = np.frombuffer(data, dtype="<f8", offset=head).reshape(T + 1, J).copy()
    conv = Convention.LITERAL if conv_byte == 0 else Convention.PAPER
    return Trajectory(u=u, kappa=kappa[0] if kappa else 0.5, convention=conv,
                      seed=None if seed < 0 else seed)
