"""Steady and time-periodic drift solver behavior, wake signature, reports."""

from __future__ import annotations

import numpy as np
import pytest

from oseenlab.fields import (
    GridSpec,
    SpatialField,
    TimePeriodicField,
    _fftn,
    _ifftn,
    divergence,
    gradient,
)
from oseenlab.harness import random_timeperiodic_forcing
from oseenlab.lifting import build_lifting, default_cutoff
from oseenlab.norms import lq_norm, spacetime_l2_plancherel
from oseenlab.oseen import (
    OseenParams,
    SolveReport,
    StokesPair,
    _mode_solution_coeff,
    apply_oseen,
    leray_project,
    project_oscillatory,
    project_steady,
    residual,
    solve_mode,
    solve_steady,
    solve_timeperiodic,
    wake_asymmetry,
)

from conftest import trig_scalar, trig_values, trig_vector, zero_field


def _channel_forcing(grid: GridSpec) -> SpatialField:
    """Divergence-free rightward stream modulated across the channel."""
    x = grid.coordinates()
    components = np.zeros((grid.dim,) + grid.shape)
    components[0] = np.sin(x[1] / grid.half_period) * np.ones(grid.shape)
    return SpatialField(grid, components)


def _sine_e2_forcing(grid: GridSpec) -> SpatialField:
    x = grid.coordinates()[0]
    components = np.zeros((grid.dim,) + grid.shape)
    components[1] = np.sin(x / grid.half_period) * np.ones(grid.shape)
    return SpatialField(grid, components)


# ---------------------------------------------------------------------------
# projection


def test_leray_output_is_divergence_free(grid2, grid3):
    for grid, seed in ((grid2, 1), (grid3, 2)):
        field = trig_vector(grid, seed)
        projected = leray_project(field)
        scale = np.max(np.abs(projected.components)) + 1.0
        assert np.max(np.abs(divergence(projected).components[0])) <= 1e-12 * scale


def test_leray_is_idempotent_and_kills_gradients(grid2):
    field = trig_vector(grid2, 3)
    once = leray_project(field)
    twice = leray_project(once)
    assert np.max(np.abs(twice.components - once.components)) <= 1e-13
    grad = gradient(trig_scalar(grid2, 4))
    assert np.max(np.abs(leray_project(grad).components)) <= 1e-13
    with pytest.raises(ValueError, match="Leray projection takes a vector field"):
        leray_project(trig_scalar(grid2, 4))


# ---------------------------------------------------------------------------
# steady solves


def test_parameter_validation():
    with pytest.raises(ValueError, match="lam"):
        OseenParams(-1.0)


def test_gradient_forcing_goes_into_pressure(grid2):
    g = trig_scalar(grid2, 6)
    pair = solve_steady(gradient(g), OseenParams(0.7))
    assert np.max(np.abs(pair.velocity.components)) <= 1e-13
    centered = g.components[0] - np.mean(g.components[0])
    assert np.max(np.abs(pair.pressure.components[0] - centered)) <= 1e-12


def test_steady_single_harmonic_closed_form():
    # f = sin(x1) e2 on the 2-pi box: the solution is
    # u = (sin(x1) - lam cos(x1)) / (1 + lam^2) e2 with zero pressure.
    grid = GridSpec(2, 1.0, 32)
    f = _sine_e2_forcing(grid)
    lam = 0.8
    pair = solve_steady(f, OseenParams(lam))
    x = grid.coordinates()[0]
    expected = (np.sin(x) - lam * np.cos(x)) / (1.0 + lam**2) * np.ones(grid.shape)
    assert np.max(np.abs(pair.velocity.components[1] - expected)) <= 1e-12
    assert np.max(np.abs(pair.velocity.components[0])) <= 1e-14
    assert np.max(np.abs(pair.pressure.components[0])) <= 1e-14


def test_driftless_limit_matches_independent_spectral_solve(grid2):
    f = leray_project(trig_vector(grid2, 7))
    pair = solve_steady(f, OseenParams(0.0))
    # independent evaluation with numpy's FFT stack
    n = grid2.points_per_axis
    coeff = np.fft.fftn(f.components, axes=(1, 2)) / n**2
    m = np.fft.fftfreq(n) * n
    m[np.abs(m) == n // 2] = 0.0
    xi = [
        (m / grid2.half_period)[:, None],
        (m / grid2.half_period)[None, :],
    ]
    ksq = xi[0] ** 2 + xi[1] ** 2
    dotted = xi[0] * coeff[0] + xi[1] * coeff[1]
    mask = ksq > 0
    u_hat = np.zeros_like(coeff)
    for a in range(2):
        leray = coeff[a] - np.where(mask, xi[a] * dotted / np.where(mask, ksq, 1.0), 0.0)
        u_hat[a] = np.where(mask, leray / np.where(mask, ksq, 1.0), 0.0)
    expected = np.fft.ifftn(u_hat, axes=(1, 2)).real * n**2
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(pair.velocity.components - expected)) <= 1e-10 * scale


def test_velocity_is_divergence_free_and_mean_free(grid3):
    pair = solve_steady(trig_vector(grid3, 8), OseenParams(1.3))
    scale = np.max(np.abs(pair.velocity.components)) + 1.0
    assert np.max(np.abs(divergence(pair.velocity).components[0])) <= 1e-12 * scale
    for comp in range(3):
        assert abs(np.mean(pair.velocity.components[comp])) <= 1e-13
    assert abs(np.mean(pair.pressure.components[0])) <= 1e-13


def test_solver_linearity(grid2):
    fa, fb = trig_vector(grid2, 9), trig_vector(grid2, 10)
    params = OseenParams(1.1)
    combo = solve_steady(fa * 2.0 + fb * (-0.5), params)
    pa, pb = solve_steady(fa, params), solve_steady(fb, params)
    expected = 2.0 * pa.velocity.components - 0.5 * pb.velocity.components
    scale = np.max(np.abs(expected)) + 1.0
    assert np.max(np.abs(combo.velocity.components - expected)) <= 1e-12 * scale


def _standalone_solve_steady(f: SpatialField, params: OseenParams):
    """The steady solve as it stood before it became the k = 0 block."""
    grid = f.grid
    coeff = _fftn(f.components, grid.dim)
    u_coeff, p_coeff = _mode_solution_coeff(grid, coeff, params.lam, 0.0)
    velocity = _ifftn(u_coeff, grid.dim).real
    return velocity, _ifftn(p_coeff[None], grid.dim).real[0]


@pytest.mark.parametrize("lam", [0.0, 1.3])
@pytest.mark.parametrize("dim", [2, 3])
def test_steady_solve_is_bitwise_the_real_k0_block(dim, lam):
    # Real samples keep the real-input transform, so the steady solve is
    # bit for bit what it was as a standalone transform-solve-transform.
    grid = GridSpec(dim, np.pi, 16)
    f = trig_vector(grid, 45) + gradient(trig_scalar(grid, 46))
    params = OseenParams(lam)
    pair = solve_steady(f, params)
    u_mode, p_mode = solve_mode(grid, f.components, 0.0, params)
    for velocity, pressure in (
        _standalone_solve_steady(f, params),
        (u_mode.real, p_mode.real[0]),
    ):
        assert np.array_equal(pair.velocity.components, velocity)
        assert np.array_equal(pair.pressure.components[0], pressure)


def test_stokes_pair_unpacks_and_holds_either_kind(grid2):
    params = OseenParams(1.0)
    forcing = random_timeperiodic_forcing(grid2, 2.0, 1, (26,))
    stacks = solve_timeperiodic(forcing, params)
    steady = solve_steady(trig_vector(grid2, 47), params)
    for pair in (stacks, steady):
        assert isinstance(pair, StokesPair)
        velocity, pressure = pair
        assert velocity is pair.velocity and pressure is pair.pressure
    momentum, div = residual(stacks, forcing, params)
    assert momentum <= 1e-10 * lq_norm(forcing, 2.0) and div <= 1e-12
    other = GridSpec(2, np.pi, 16)
    with pytest.raises(ValueError, match="live on different grids"):
        StokesPair(steady.velocity, zero_field(other, 1))
    with pytest.raises(ValueError, match="live on different grids"):
        StokesPair(
            stacks.velocity,
            TimePeriodicField.from_steady(zero_field(other, 1), 2.0, 1),
        )
    message = "spatial pair needs 2 velocity components and 1 pressure component"
    for velocity, pressure in (
        (steady.pressure, steady.pressure),
        (steady.velocity, steady.velocity),
        (steady.pressure, steady.velocity),
    ):
        with pytest.raises(ValueError, match=message):
            StokesPair(velocity, pressure)


# ---------------------------------------------------------------------------
# time-frequency blocks


def test_zero_frequency_block_matches_steady_solver(grid2):
    f = trig_vector(grid2, 11)
    params = OseenParams(0.9)
    u_mode, p_mode = solve_mode(
        grid2, f.components.astype(np.complex128), 0.0, params
    )
    pair = solve_steady(f, params)
    assert np.max(np.abs(u_mode - pair.velocity.components)) <= 1e-14
    assert np.max(np.abs(p_mode[0] - pair.pressure.components[0])) <= 1e-14
    assert np.max(np.abs(u_mode.imag)) <= 1e-15


def test_oscillating_spatial_mean_is_integrated_in_time(grid2):
    # A spatially constant forcing mode at frequency k has the exact
    # solution f / (i omega_k): pure time integration, no spatial coupling.
    period = 2.0
    k = 2
    omega = 2.0 * np.pi * k / period
    f_mode = np.zeros((2,) + grid2.shape, dtype=np.complex128)
    f_mode[0] = 1.5 + 0.25j
    u_mode, p_mode = solve_mode(grid2, f_mode, omega, OseenParams(1.0))
    assert np.max(np.abs(u_mode[0] - (1.5 + 0.25j) / (1j * omega))) <= 1e-13
    assert np.max(np.abs(u_mode[1])) <= 1e-15
    assert np.max(np.abs(p_mode)) <= 1e-15


def test_timeperiodic_single_harmonic_closed_form():
    # f(t, x) = cos(omega t) sin(x1) e2 on the 2-pi box.  The k = 1 block
    # carries (1/2) sin(x1) e2, whose +-1 spatial coefficients divide by
    # 1 + i(lam xi1 + omega):
    #   u_hat(+1) = (-i/4) / (1 + i(lam + omega))
    #   u_hat(-1) = (+i/4) / (1 + i(omega - lam))
    grid = GridSpec(2, 1.0, 32)
    lam = 0.6
    period = 5.0
    omega = 2.0 * np.pi / period
    phi = _sine_e2_forcing(grid)
    forcing = TimePeriodicField.from_modes(
        grid,
        period,
        [
            np.zeros((2,) + grid.shape, dtype=np.complex128),
            0.5 * phi.components.astype(np.complex128),
        ],
    )
    velocity, pressure = solve_timeperiodic(forcing, OseenParams(lam))
    x = grid.coordinates()[0] * np.ones(grid.shape)
    up = (-0.25j) / (1.0 + 1j * (lam + omega))
    um = (0.25j) / (1.0 + 1j * (omega - lam))
    expected = up * np.exp(1j * x) + um * np.exp(-1j * x)
    produced = velocity.mode(1)[1]
    assert np.max(np.abs(produced - expected)) <= 1e-12
    assert np.max(np.abs(velocity.mode(1)[0])) <= 1e-14
    assert np.max(np.abs(pressure.mode(1))) <= 1e-14
    assert np.max(np.abs(velocity.mode(0))) <= 1e-14


def test_timeperiodic_single_harmonic_real_system_cross_check():
    # The same block solved as a hand-built 4x4 real system in the basis
    # (sin x1, cos x1) x (cos omega t, sin omega t) for the e2 component:
    # (Delta - lam d1 - d_t) u = -f couples the four coefficients linearly.
    grid = GridSpec(2, 1.0, 16)
    lam = 1.2
    period = 3.0
    omega = 2.0 * np.pi / period
    phi = _sine_e2_forcing(grid)
    forcing = TimePeriodicField.from_modes(
        grid,
        period,
        [
            np.zeros((2,) + grid.shape, dtype=np.complex128),
            0.5 * phi.components.astype(np.complex128),
        ],
    )
    velocity, _ = solve_timeperiodic(forcing, OseenParams(lam))
    matrix = np.array(
        [
            [1.0, omega, -lam, 0.0],
            [-omega, 1.0, 0.0, -lam],
            [lam, 0.0, 1.0, omega],
            [0.0, lam, -omega, 1.0],
        ]
    )
    p, q, r, s = np.linalg.solve(matrix, np.array([1.0, 0.0, 0.0, 0.0]))
    x = grid.coordinates()[0] * np.ones(grid.shape)
    samples = velocity.sample_times(8)
    times = np.arange(8) * (period / 8)
    for j, t in enumerate(times):
        expected = (p * np.sin(x) + r * np.cos(x)) * np.cos(omega * t) + (
            q * np.sin(x) + s * np.cos(x)
        ) * np.sin(omega * t)
        assert np.max(np.abs(samples[j, 1] - expected)) <= 1e-12


def test_time_constant_forcing_has_no_oscillation(grid2):
    steady = trig_vector(grid2, 12)
    forcing = TimePeriodicField.from_steady(steady, period=2.0, max_mode=2)
    velocity, pressure = solve_timeperiodic(forcing, OseenParams(0.8))
    osc = project_oscillatory(velocity)
    assert np.max(np.abs(osc.modes)) <= 1e-14
    pair = solve_steady(steady, OseenParams(0.8))
    steady_part = project_steady(velocity)
    assert np.max(
        np.abs(steady_part.components - pair.velocity.components)
    ) <= 1e-13


def test_timeperiodic_linearity_and_zero_mode_consistency(grid2):
    from oseenlab.harness import random_timeperiodic_forcing

    params = OseenParams(1.4)
    fa = random_timeperiodic_forcing(grid2, 2.0, 2, (21,))
    fb = random_timeperiodic_forcing(grid2, 2.0, 2, (22,))
    ua, _ = solve_timeperiodic(fa, params)
    ub, _ = solve_timeperiodic(fb, params)
    combo, _ = solve_timeperiodic(fa * 0.75 + fb * 2.0, params)
    expected = 0.75 * ua.modes + 2.0 * ub.modes
    scale = np.max(np.abs(expected)) + 1.0
    assert np.max(np.abs(combo.modes - expected)) <= 1e-12 * scale
    # k = 0 block of the stack equals the steady solve of the time average
    pair = solve_steady(project_steady(fa), params)
    assert np.max(
        np.abs(ua.mode(0).real - pair.velocity.components)
    ) <= 1e-13 * scale


def test_projection_split_identity(grid2):
    from oseenlab.harness import random_timeperiodic_forcing

    field = random_timeperiodic_forcing(grid2, 2.0, 2, (23,))
    steady = project_steady(field)
    osc = project_oscillatory(field)
    recombined = TimePeriodicField.from_steady(
        steady, field.period, field.max_mode
    ) + osc
    assert np.max(np.abs(recombined.modes - field.modes)) <= 1e-15
    assert np.max(np.abs(osc.mode(0))) == 0.0
    # the steady projection is the time-grid average
    samples = field.sample_times(4 * field.max_mode + 4)
    average = np.mean(samples, axis=0)
    assert np.max(np.abs(steady.components - average)) <= 1e-13


# ---------------------------------------------------------------------------
# saddle-system cross-check


def test_mode_solutions_satisfy_saddle_system():
    # Every retained coefficient of (u, p) must satisfy the dim+1 square
    # block system assembled independently: momentum rows plus divergence.
    grid = GridSpec(3, np.pi, 16)
    f = trig_vector(grid, 13)
    lam = 1.7
    period = 2.0
    for k in (0, 1):
        omega = 2.0 * np.pi * k / period
        u_mode, p_mode = solve_mode(
            grid, f.components.astype(np.complex128), omega, OseenParams(lam)
        )
        n = grid.points_per_axis
        f_hat = np.fft.fftn(f.components, axes=(1, 2, 3)) / n**3
        u_hat = np.fft.fftn(u_mode, axes=(1, 2, 3)) / n**3
        p_hat = np.fft.fftn(p_mode[0]) / n**3
        m = np.rint(np.fft.fftfreq(n) * n).astype(int)
        cut = grid.dealias_cutoff
        worst = 0.0
        checked = 0
        for i1 in range(n):
            for i2 in range(n):
                for i3 in range(n):
                    mm = np.array([m[i1], m[i2], m[i3]])
                    if np.max(np.abs(mm)) > cut or not np.any(mm):
                        continue
                    xi = mm / grid.half_period
                    ksq = float(xi @ xi)
                    system = np.zeros((4, 4), dtype=np.complex128)
                    system[:3, :3] = (ksq + 1j * (lam * xi[0] + omega)) * np.eye(3)
                    system[:3, 3] = 1j * xi
                    system[3, :3] = 1j * xi
                    rhs = np.array(
                        [f_hat[0, i1, i2, i3], f_hat[1, i1, i2, i3], f_hat[2, i1, i2, i3], 0.0],
                        dtype=np.complex128,
                    )
                    solution = np.linalg.solve(system, rhs)
                    produced = np.array(
                        [
                            u_hat[0, i1, i2, i3],
                            u_hat[1, i1, i2, i3],
                            u_hat[2, i1, i2, i3],
                            p_hat[i1, i2, i3],
                        ]
                    )
                    worst = max(worst, float(np.max(np.abs(produced - solution))))
                    checked += 1
        assert checked > 1000
        assert worst <= 1e-12


# ---------------------------------------------------------------------------
# residuals


def test_residual_of_exact_solution_is_tiny():
    grid = GridSpec(2, np.pi, 64)
    f = _channel_forcing(grid)
    params = OseenParams(2.0)
    pair = solve_steady(f, params)
    momentum, div = residual(pair, f, params)
    assert momentum <= 1e-10 * lq_norm(f, 2.0)
    assert div <= 1e-12


def test_residual_of_zero_pair_with_zero_forcing(grid2):
    pair = StokesPair(zero_field(grid2, grid2.dim), zero_field(grid2, 1))
    momentum, div = residual(pair, zero_field(grid2, grid2.dim), OseenParams(1.0))
    assert momentum == 0.0
    assert div == 0.0


def test_residual_scales_linearly_with_perturbation():
    grid = GridSpec(2, np.pi, 64)
    f = _channel_forcing(grid)
    params = OseenParams(2.0)
    pair = solve_steady(f, params)
    noise = trig_vector(grid, 99)
    values = []
    for eps in (1e-6, 1e-5):
        bumped = StokesPair(
            SpatialField(grid, pair.velocity.components + eps * noise.components),
            pair.pressure,
        )
        momentum, _ = residual(bumped, f, params)
        values.append(momentum)
    assert values[1] / values[0] == pytest.approx(10.0, rel=0.05)


def test_timeperiodic_residual_of_exact_solution(grid2):
    forcing = random_timeperiodic_forcing(grid2, 2.0, 2, (24,))
    params = OseenParams(1.5)
    momentum, div = residual(solve_timeperiodic(forcing, params), forcing, params)
    assert momentum <= 1e-10 * lq_norm(forcing, 2.0)
    assert div <= 1e-12


def test_steady_residual_is_the_k0_case():
    grid = GridSpec(2, np.pi, 32)
    f = trig_vector(grid, 41)
    params = OseenParams(1.3)
    pair = solve_steady(f, params)
    pair = StokesPair(
        SpatialField(grid, pair.velocity.components + 1e-6 * trig_values(grid, 42)),
        pair.pressure,
    )
    stacks = [
        TimePeriodicField.from_steady(field, 3.0)
        for field in (pair.velocity, pair.pressure, f)
    ]
    stack_pair = StokesPair(*stacks[:2])
    assert residual(pair, f, params) == residual(stack_pair, stacks[2], params)


def _trig_stack(grid, period, max_mode, seed, ncomp):
    """A stack of cosine sums, FFT-free; mode 0 is real."""
    def samples(shift):
        values = [trig_values(grid, seed + shift + 101 * c) for c in range(ncomp)]
        return np.stack(values)

    modes = [samples(0)] + [
        samples(7 * k) + 1j * samples(7 * k + 3) for k in range(1, max_mode + 1)
    ]
    return TimePeriodicField.from_modes(grid, period, modes)


@pytest.mark.parametrize("max_mode", [0, 2])
def test_residual_is_the_plancherel_norm_of_the_operator_defect(max_mode):
    # A pair that solves nothing: the momentum residual is the space-time L^2
    # norm of apply_oseen(pair) - f once the k = 0 box mean of f is removed.
    grid = GridSpec(3, np.pi, 12)
    params = OseenParams(0.9)
    pair = StokesPair(
        _trig_stack(grid, 2.0, max_mode, 50, grid.dim),
        _trig_stack(grid, 2.0, max_mode, 60, 1),
    )
    forcing = _trig_stack(grid, 2.0, max_mode, 70, grid.dim)
    forcing = forcing + TimePeriodicField.from_steady(
        SpatialField(grid, np.full((grid.dim,) + grid.shape, 0.3)), 2.0, max_mode
    )
    modes = forcing.modes.copy()
    modes[0] -= modes[0].mean(axis=(1, 2, 3), keepdims=True)
    mean_free = TimePeriodicField(grid, 2.0, modes)
    defect = apply_oseen(pair, params) - mean_free
    momentum, _ = residual(pair, forcing, params)
    expected = spacetime_l2_plancherel(defect)
    assert abs(momentum - expected) <= 1e-12 * expected
    if max_mode == 0:
        steady = StokesPair(*(project_steady(field) for field in pair))
        momentum, _ = residual(steady, project_steady(forcing), params)
        expected = lq_norm(project_steady(defect), 2.0)
        assert abs(momentum - expected) <= 1e-12 * expected


def test_apply_oseen_rejects_stacks_of_different_modes():
    grid = GridSpec(2, np.pi, 12)
    velocity = _trig_stack(grid, 2.0, 1, 50, grid.dim)
    pair = StokesPair(velocity, _trig_stack(grid, 2.0, 2, 60, 1))
    with pytest.raises(ValueError, match="differ in period or modes"):
        apply_oseen(pair, OseenParams(1.0))


def _solved_stacks(grid, period=2.0, max_mode=1):
    """(velocity, pressure, forcing) of one time-periodic solve."""
    forcing = random_timeperiodic_forcing(grid, period, max_mode, (25,))
    return (*solve_timeperiodic(forcing, OseenParams(1.0)), forcing)


# mismatch -> (keyword of _solved_stacks, expected message)
_MISMATCHES = {
    "grid": ({"grid": GridSpec(2, 2.0 * np.pi, 16)}, "lives on a different grid"),
    "period": ({"period": 3.0}, "has period 3.0 and max_mode 1"),
    "max_mode": ({"max_mode": 2}, "has period 2.0 and max_mode 2"),
}


@pytest.mark.parametrize("name", ["pressure", "forcing"])
@pytest.mark.parametrize("kind", list(_MISMATCHES))
def test_timeperiodic_residual_rejects_mismatched_stacks(kind, name):
    # Before these checks a mismatched forcing was read only up to the
    # velocity's max_mode and certified as a tiny residual.
    grid = GridSpec(2, np.pi, 16)
    keywords, message = _MISMATCHES[kind]
    slot = 1 if name == "pressure" else 2
    stacks = list(_solved_stacks(grid))
    stacks[slot] = _solved_stacks(**{"grid": grid, **keywords})[slot]
    if (kind, name) == ("grid", "pressure"):
        # The pair itself rejects a pressure on another grid.
        message, name = "live on different grids", "velocity and pressure"
    with pytest.raises(ValueError, match=f"{name} {message}"):
        residual(StokesPair(*stacks[:2]), stacks[2], OseenParams(1.0))


def test_steady_residual_rejects_forcing_on_another_grid(grid2):
    pair = solve_steady(trig_vector(grid2, 43), OseenParams(1.0))
    other = GridSpec(2, 2.0 * np.pi, 32)
    with pytest.raises(ValueError, match="forcing lives on a different grid"):
        residual(pair, trig_vector(other, 43), OseenParams(1.0))


def test_timeperiodic_residual_transforms_each_stored_block_once(monkeypatch):
    # One forward transform per component of each stored block k = 0..K of
    # velocity, pressure and forcing; the conjugate blocks k < 0 are folded
    # in, not transformed.
    import oseenlab.oseen as oseen

    grid = GridSpec(2, np.pi, 16)
    cases = [(k, _solved_stacks(grid, max_mode=k)) for k in (0, 1, 2)]
    calls = []
    original = oseen._fftn

    def counting(values, dim):
        calls.append(values.shape)
        return original(values, dim)

    monkeypatch.setattr(oseen, "_fftn", counting)
    for max_mode, stacks in cases:
        calls.clear()
        residual(StokesPair(*stacks[:2]), stacks[2], OseenParams(1.0))
        assert calls == [grid.shape] * (2 * grid.dim + 1) * (max_mode + 1)


# ---------------------------------------------------------------------------
# wake signature


def test_obstacle_flow_wake_asymmetry():
    # Flow around the obstacle, driven by the drift-flow lifting load: with
    # drift the speed field skews downstream; without drift there is no
    # preferred side.
    grid = GridSpec(2, np.pi, 64)
    spec = default_cutoff(grid)

    def total_flow(lam: float) -> SpatialField:
        lift = build_lifting(lam, spec, grid)
        load = -lift.laplacian + lam * lift.jacobian[:, 0]
        pair = solve_steady(SpatialField(grid, -load), OseenParams(lam))
        return SpatialField(grid, pair.velocity.components + lift.velocity.components)

    assert abs(wake_asymmetry(total_flow(0.0))) <= 1e-12
    assert wake_asymmetry(total_flow(2.0)) > 0.05


def test_wake_asymmetry_sign_convention():
    grid = GridSpec(2, np.pi, 32)
    x = grid.coordinates()[0] * np.ones(grid.shape)
    center = grid.center[0]
    bump = np.exp(-((x - center - 2.0) ** 2))
    downstream = SpatialField(grid, np.stack([bump, np.zeros(grid.shape)]))
    assert wake_asymmetry(downstream) > 0.5
    mirrored = SpatialField(grid, downstream.components[:, ::-1, :])
    assert wake_asymmetry(mirrored) < -0.5


# ---------------------------------------------------------------------------
# iteration reporting


def test_contraction_rate_from_updates():
    assert np.isnan(SolveReport(()).contraction_rate)
    assert np.isnan(SolveReport((0.5,)).contraction_rate)
    assert SolveReport((1.0, 0.5, 0.2)).contraction_rate == pytest.approx(0.5)
    assert SolveReport((1.0, 0.25, 0.2)).contraction_rate == pytest.approx(0.8)
    # A zero update is no denominator.
    assert SolveReport((1.0, 0.0, 0.0)).contraction_rate == 0.0


def test_solve_report_derives_its_rate_and_verdict():
    partial = SolveReport((1.0, 0.5, 0.2))
    assert partial.contraction_rate == 0.5
    assert np.isnan(partial.final_residual)
    assert np.isnan(partial.residual_momentum) and np.isnan(partial.residual_div)
    done = SolveReport((1.0, 0.5), 1e-12, 2e-13, 0.0)
    assert np.isfinite(done.final_residual) and done.iterations == 2
    assert done.contraction_rate == 0.5
