"""Noise generation, the forward height recursion, closed-form solutions,
the free law of the modes and binary file IO of the random string.

The field u(t, n) on {0..T} x {0..J-1} evolves by

    u(t+1, n) = u(t, n) + kappa*(u(t, n+1) - 2 u(t, n) + u(t, n-1)) + xi(t, n)

with Neumann ghost cells u(t, -1) = u(t, 0) and u(t, J) = u(t, J-1), and
iid standard normal xi.  In the orthonormal mode basis e_m the recursion
decouples into AR(1) chains X_{t+1} = rho_m X_t + innovation; free_modes
gives their law, from which every sampler and closed form of the free
string starts.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .spectral import Basis, Convention, green_function

# values (rows * width) in one unit of a replicate loop: 512 rows at
# J = 128, whose pair-count temporaries (0.5 MB) stay in cache.  On the
# 64 batches of 2000 rows at J = 128 that the importance-wide benchmark
# counts, the counter took 0.36-0.42 s in pieces of 2^16 values,
# 0.48-0.52 s in pieces of 2^14 and 0.71-0.73 s as one piece of 2^18
# (best of 5, two runs, on a 2-core Xeon with numpy 2.4)
_UNIT_VALUES = 1 << 16

_BINARY_MAGIC = b"PLY1"
_BINARY_VERSION = 2
# magic, version, J, T, seed, convention byte, kappa
_BINARY_HEADER = "<4sIIIqBd"


@dataclass(frozen=True)
class NoiseField:
    T: int
    J: int
    xi: np.ndarray
    seed: int

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


def map_units(fn, count: int, width: int) -> list:
    """[fn(index, rows) for each unit] on map_costliest_first.

    `count` replicates of `width` values each are cut into units of
    max(1, _UNIT_VALUES // width) rows, the last one ragged.  Unit sizes
    never rise, so units start in unit order; results come back in unit
    order.  A caller that draws unit `index` from its own stream gets the
    same results at any number of workers.
    """
    size = max(1, _UNIT_VALUES // width)
    units = [(index, min(size, count - start))
             for index, start in enumerate(range(0, count, size))]
    return map_costliest_first(lambda unit: fn(*unit), units,
                               cost=lambda unit: unit[1])


def sample_noise(seed: int, T: int, J: int) -> NoiseField:
    """T x J iid standard normal draws, filled t-major then n-ascending."""
    if T < 1 or J < 1:
        raise ValueError("need T >= 1 and J >= 1")
    rng = counter_rng(seed)
    return NoiseField(T=T, J=J, xi=rng.standard_normal((T, J)), seed=seed)


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
    the field as little-endian float64 in C order.  The header's seed -1
    stands for no seed, so a seed outside 0..2^63-1 raises ValueError."""
    seed = -1 if traj.seed is None else int(traj.seed)
    if traj.seed is not None and not 0 <= seed < 1 << 63:
        raise ValueError(f"a dump holds seeds 0..2^63-1, got {seed}")
    conv_byte = 0 if traj.convention is Convention.LITERAL else 1
    header = struct.pack(_BINARY_HEADER, _BINARY_MAGIC, _BINARY_VERSION,
                         traj.J, traj.T, seed, conv_byte, traj.kappa)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(traj.u, dtype="<f8").tobytes())


def read_trajectory_binary(path) -> Trajectory:
    """Inverse of write_trajectory_binary.  Another magic or version, or
    a file whose length does not match its header, raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, version = data[:4], int.from_bytes(data[4:8], "little")
    if magic != _BINARY_MAGIC:
        raise ValueError(f"not a trajectory dump (magic {magic!r})")
    if version != _BINARY_VERSION:
        raise ValueError(f"unsupported dump version {version}")
    head = struct.calcsize(_BINARY_HEADER)
    if len(data) < head:
        raise ValueError(f"{path}: expected a {head}-byte header, found "
                         f"{len(data)} bytes")
    _, _, J, T, seed, conv_byte, kappa = struct.unpack_from(_BINARY_HEADER,
                                                            data)
    if len(data) != head + 8 * (T + 1) * J:
        raise ValueError(f"{path}: expected {head + 8 * (T + 1) * J} bytes "
                         f"for T={T}, J={J}, found {len(data)}")
    u = np.frombuffer(data, dtype="<f8", offset=head).reshape(T + 1, J).copy()
    conv = Convention.LITERAL if conv_byte == 0 else Convention.PAPER
    return Trajectory(u=u, kappa=kappa, convention=conv,
                      seed=None if seed < 0 else seed)
