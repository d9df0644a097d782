import struct
import threading

import numpy as np
import pytest

from polymerlab import dynamics
from polymerlab.dynamics import (NoiseField, Trajectory, counter_rng,
                                 free_modes, map_costliest_first, map_units,
                                 mode_innovation_std,
                                 neumann_laplacian, read_trajectory_binary,
                                 sample_noise, simulate_recursion,
                                 solution_formula, write_trajectory_binary)
from polymerlab.spectral import Convention, build_basis


def test_counter_rng_reproducible_and_stream_separated():
    a = counter_rng(5).standard_normal(4)
    b = counter_rng(5).standard_normal(4)
    c = counter_rng(5, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_map_costliest_first_starts_by_cost_and_returns_in_order(
        monkeypatch):
    # one worker shows the start order: descending cost, ties in item order
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: 1)
    started = []

    def fn(item):
        started.append(item)
        return 10 * item[0]

    items = [(0, 3), (1, 5), (2, 3), (3, 1)]
    assert map_costliest_first(fn, items, cost=lambda it: it[1]) == \
        [0, 10, 20, 30]
    assert started == [(1, 5), (0, 3), (2, 3), (3, 1)]

    def fail(item):
        raise ArithmeticError(item)

    monkeypatch.setattr(dynamics, "usable_cpus", lambda: 4)
    with pytest.raises(ArithmeticError):
        map_costliest_first(fail, items, cost=lambda it: it[1])


def test_map_units_cuts_rows_that_never_rise(monkeypatch):
    # 12 values per unit; one worker shows the start order
    monkeypatch.setattr(dynamics, "_UNIT_VALUES", 12)
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: 1)
    started = []

    def fn(index, rows):
        started.append(index)
        return index, rows

    assert map_units(fn, 11, 4) == [(0, 3), (1, 3), (2, 3), (3, 2)]
    for count, width in ((1, 1), (10, 1), (12, 1), (13, 5), (5, 12),
                         (4, 13), (3, 1000)):
        started.clear()
        units = map_units(fn, count, width)
        sizes = [rows for _, rows in units]
        assert [index for index, _ in units] == list(range(len(units)))
        assert started == list(range(len(units)))
        assert sum(sizes) == count
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        if width >= 12:
            # a replicate wider than a unit still runs as one row
            assert sizes == [1] * count


def test_map_units_returns_in_unit_order(monkeypatch):
    # four units on four workers: unit 0 finishes last, after unit 3 has
    # finished, and still comes back first
    monkeypatch.setattr(dynamics, "_UNIT_VALUES", 2)
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: 4)
    last = threading.Event()
    finished = []

    def fn(index, rows):
        if index == 0:
            assert last.wait(timeout=60)
        finished.append(index)
        if index == 3:
            last.set()
        return 10 * index + rows

    assert map_units(fn, 7, 1) == [2, 12, 22, 31]
    assert finished[-1] == 0


def test_sample_noise_shape_and_determinism():
    nf = sample_noise(3, 7, 5)
    assert nf.xi.shape == (7, 5)
    assert np.array_equal(nf.xi, sample_noise(3, 7, 5).xi)
    assert nf.seed == 3


def test_neumann_laplacian_interior_and_edges():
    u = np.array([1.0, 4.0, 9.0, 16.0])
    lap = neumann_laplacian(u)
    # ghost sites copy the boundary value, so the edge stencil collapses
    assert lap[0] == pytest.approx(u[1] - u[0])
    assert lap[-1] == pytest.approx(u[-2] - u[-1])
    assert lap[1] == pytest.approx(u[0] - 2 * u[1] + u[2])
    assert lap[2] == pytest.approx(u[1] - 2 * u[2] + u[3])


def test_neumann_laplacian_equals_the_stencil_expression():
    # the interior is summed in place; it must round as the expression
    rng = np.random.default_rng(3)
    for shape in ((2,), (7,), (5, 9), (3, 4, 33)):
        u = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        want = u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]
        assert np.array_equal(neumann_laplacian(u)[..., 1:-1], want)
        out = np.full(shape, np.nan)
        assert neumann_laplacian(u, out=out) is out
        assert np.array_equal(out, neumann_laplacian(u))


def test_neumann_laplacian_single_site_is_zero():
    assert neumann_laplacian(np.array([3.0]))[0] == 0.0


def test_laplacian_annihilates_constants_and_checkerboard_eigen():
    J = 6
    const = np.full(J, 2.5)
    assert np.abs(neumann_laplacian(const)).max() == 0.0
    n = np.arange(J)
    checker = np.cos(np.pi * (n + 0.5))      # roughest mode, eigenvalue -4
    lap = neumann_laplacian(checker)
    assert np.allclose(lap, -4.0 * checker, atol=1e-12)


def test_recursion_conserves_mean_when_noise_is_centered():
    J = 5
    nf = NoiseField(4, J, np.zeros((4, J)), None)
    u0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    traj = simulate_recursion(u0, nf)
    assert np.allclose(traj.u.mean(axis=1), u0.mean(), atol=1e-12)


def test_recursion_hand_step():
    # one explicit half-diffusion step
    nf = NoiseField(1, 3, np.array([[0.1, 0.2, 0.3]]), None)
    traj = simulate_recursion(np.array([0.0, 1.0, 0.0]), nf, kappa=0.5)
    expect = np.array([0.0 + 0.5 * 1.0 + 0.1,
                       1.0 + 0.5 * (0.0 - 2.0 + 0.0) + 0.2,
                       0.0 + 0.5 * 1.0 + 0.3])
    assert np.allclose(traj.u[1], expect, atol=1e-14)


def test_solution_formula_matches_recursion_many_seeds():
    b = build_basis(6)
    for seed in range(5):
        nf = sample_noise(seed, 12, 6)
        u0 = counter_rng(seed, 9).standard_normal(6)
        t1 = simulate_recursion(u0, nf)
        t2 = solution_formula(u0, nf, b)
        assert np.abs(t1.u - t2.u).max() < 1e-10


def test_solution_formula_general_kappa():
    b = build_basis(5, kappa=0.2)
    nf = sample_noise(11, 9, 5)
    t1 = simulate_recursion(np.zeros(5), nf, kappa=0.2)
    t2 = solution_formula(np.zeros(5), nf, b)
    assert np.abs(t1.u - t2.u).max() < 1e-10


@pytest.mark.parametrize("J, kappa", [(2, 0.5), (8, 0.5), (9, 0.5),
                                      (16, 0.3)])
def test_paper_solution_is_the_literal_recursion_of_smoothed_noise(J, kappa):
    # PAPER pushes step s's noise through power t-s of the single-amplitude
    # kernel: about the mean, that is the LITERAL recursion driven by
    # sqrt(J/2) (xi + kappa Lap xi)
    T = 40
    nf = sample_noise(J, T, J)
    paper = solution_formula(np.zeros(J), nf, build_basis(J, kappa),
                             Convention.PAPER)
    smoothed = np.sqrt(J / 2.0) * (nf.xi + kappa * neumann_laplacian(nf.xi))
    literal = simulate_recursion(np.zeros(J), NoiseField(T, J, smoothed, J),
                                 kappa)
    assert paper.convention is Convention.PAPER

    def centred(u):
        return u - u.mean(axis=1, keepdims=True)
    assert np.abs(centred(paper.u) - centred(literal.u)).max() < 1e-12


def test_mode_innovation_std_by_convention():
    b = build_basis(8)
    lit = mode_innovation_std(b, Convention.LITERAL)
    assert np.allclose(lit, 1.0)
    pap = mode_innovation_std(b, Convention.PAPER)
    assert np.allclose(pap, np.abs(b.rho) * np.sqrt(8 / 2.0))


def test_free_modes_stationary_deviation_closed_form():
    b = build_basis(8)
    lit = free_modes(b, Convention.LITERAL, "stationary")
    assert np.array_equal(lit.rho, b.rho[1:])
    assert np.array_equal(lit.e1, b.e[1:])
    assert np.allclose(lit.sig, 1.0)
    assert np.allclose(lit.x0, np.sqrt(1.0 / (1.0 - b.rho[1:] ** 2)))
    pap = free_modes(b, Convention.PAPER, "stationary")
    expect = np.sqrt((8 / 2.0) * b.rho[1:] ** 2 / (1.0 - b.rho[1:] ** 2))
    assert np.allclose(pap.x0, expect)
    for conv in Convention:
        assert np.array_equal(free_modes(b, conv, "zero").x0, np.zeros(7))


def test_free_modes_ar1_law_of_single_modes():
    # mode m steps X_t = rho_m X_{t-1} + sig_m xi_t: unit innovations
    # under LITERAL, sigma^2 = rho^2 J / 2 under PAPER (mode 2, J = 8)
    b = build_basis(8)
    lit = free_modes(b, Convention.LITERAL, "zero")
    assert lit.rho[0] == pytest.approx(np.cos(np.pi / 8))
    assert lit.sig[0] ** 2 == pytest.approx(1.0)
    pap = free_modes(b, Convention.PAPER, "zero")
    assert pap.sig[1] ** 2 == pytest.approx(pap.rho[1] ** 2 * 4.0)


def test_free_modes_rejects_unknown_init():
    with pytest.raises(ValueError, match="warm"):
        free_modes(build_basis(4), Convention.LITERAL, "warm")


@pytest.mark.parametrize("J", [2, 3, 8, 64])
@pytest.mark.parametrize("init", ["zero", "stationary"])
@pytest.mark.parametrize("conv", list(Convention))
def test_variance_sum_meets_the_recursion(J, init, conv):
    modes = free_modes(build_basis(J), conv, init)
    var, acc = modes.x0 ** 2, np.zeros(J - 1)
    per_step = modes.variance(np.arange(1, 201))
    assert per_step.shape == (200, J - 1)
    for T in range(1, 201):
        var = modes.rho ** 2 * var + modes.sig ** 2
        acc += var
        assert per_step[T - 1] == pytest.approx(var, rel=1e-12)
        if T in (1, 2, 7, 64, 200):
            assert modes.variance_sum(T) == pytest.approx(acc, rel=1e-12)
            assert modes.variance(T) == pytest.approx(var, rel=1e-12)
            # the per-step variances sum to the closed form
            assert per_step[:T].sum(axis=0) == pytest.approx(
                modes.variance_sum(T), rel=1e-12)


def test_stationary_field_covariance():
    # start has covariance diag(x0^2), so the field X_0 @ e1 has
    # sum_m x0_m^2 e_m e_m^T; under PAPER the middle mode has x0 = 0
    b = build_basis(4)
    for conv in Convention:
        modes = free_modes(b, conv, "stationary")
        X = modes.start(counter_rng(42), 200_000)
        assert X.shape == (200_000, 3)
        top = modes.x0.max() ** 2
        cov = np.cov(X.T)
        assert np.abs(cov - np.diag(modes.x0 ** 2)).max() < 0.02 * top
        expect = (b.e[1:].T * modes.x0 ** 2) @ b.e[1:]
        got = np.cov((X @ modes.e1).T)
        assert np.abs(got - expect).max() < 0.02 * top


def test_stationary_evolution_is_invariant():
    # one recursion step applied to a stationary draw keeps the variance
    b = build_basis(5)
    rng = counter_rng(7)
    modes = free_modes(b, Convention.LITERAL, "stationary")
    u = modes.start(rng, 100_000) @ modes.e1
    xi = rng.standard_normal(u.shape)
    v = u + 0.5 * neumann_laplacian(u) + xi
    v = v - v.mean(axis=1, keepdims=True)
    var_u = (u ** 2).sum(axis=1).mean()
    var_v = (v ** 2).sum(axis=1).mean()
    assert var_v == pytest.approx(var_u, rel=0.02)


def test_binary_round_trip(tmp_path):
    nf = sample_noise(9, 4, 5)
    traj = simulate_recursion(np.zeros(5), nf)
    path = tmp_path / "t.bin"
    write_trajectory_binary(traj, path)
    back = read_trajectory_binary(path)
    assert np.array_equal(back.u, traj.u)
    assert back.seed == traj.seed
    assert back.convention == traj.convention
    # same bytes on rewrite
    path2 = tmp_path / "t2.bin"
    write_trajectory_binary(traj, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_binary_round_trips_the_largest_seed_and_no_seed(tmp_path):
    u = np.arange(6.0).reshape(3, 2)
    for seed in (0, 2 ** 63 - 1, None):
        path = tmp_path / f"s{seed}.bin"
        write_trajectory_binary(Trajectory(u, seed=seed), path)
        back = read_trajectory_binary(path)
        assert back.seed == seed and np.array_equal(back.u, u)


@pytest.mark.parametrize("seed", [-1, -5, 2 ** 63, 2 ** 64])
def test_binary_rejects_a_seed_the_header_cannot_hold(tmp_path, seed):
    # -1 would read back as no seed, and 2^63 does not fit the field
    path = tmp_path / "s.bin"
    with pytest.raises(ValueError, match="seeds 0..2\\^63-1"):
        write_trajectory_binary(Trajectory(np.zeros((3, 2)), seed=seed),
                                path)
    assert not path.exists()


def test_binary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        read_trajectory_binary(path)


def test_binary_stores_kappa(tmp_path):
    traj = simulate_recursion(np.zeros(5), sample_noise(9, 4, 5), kappa=0.3)
    path = tmp_path / "k.bin"
    write_trajectory_binary(traj, path)
    assert read_trajectory_binary(path).kappa == 0.3


def test_binary_rejects_version_one(tmp_path):
    # a version-1 dump stores no kappa; only version 2 is read
    u = np.arange(6.0).reshape(3, 2)
    path = tmp_path / "v1.bin"
    path.write_bytes(struct.pack("<4sIIIqB", b"PLY1", 1, 2, 2, 17, 1)
                     + u.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="unsupported dump version 1"):
        read_trajectory_binary(path)


def test_binary_short_file_names_file_and_sizes(tmp_path):
    traj = simulate_recursion(np.zeros(5), sample_noise(9, 4, 5))
    path = tmp_path / "cut.bin"
    write_trajectory_binary(traj, path)
    full = path.read_bytes()
    path.write_bytes(full[:-3])
    with pytest.raises(ValueError, match=rf"cut\.bin.*{len(full)}.*"
                                         rf"{len(full) - 3}"):
        read_trajectory_binary(path)
    path.write_bytes(full[:20])
    with pytest.raises(ValueError, match="cut.bin"):
        read_trajectory_binary(path)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        simulate_recursion(np.zeros(3), sample_noise(0, 4, 5))
    with pytest.raises(ValueError):
        Trajectory(u=np.zeros((0, 3)), kappa=0.5,
                   convention=Convention.LITERAL, seed=None)
