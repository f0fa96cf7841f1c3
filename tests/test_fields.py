"""Grid, transform, derivative, dealiasing, and time-stack behavior."""

from __future__ import annotations

import numpy as np
import pytest

from oseenlab.fields import (
    GridSpec,
    ScalarField,
    SpectralField,
    TimePeriodicField,
    VectorField,
    dealias,
    dealiased_product,
    derivative,
    divergence,
    from_spectral,
    gradient,
    hermitian_defect,
    to_spectral,
    truncate_modes,
)
from oseenlab.lifting import LiftingField, default_cutoff

from conftest import trig_scalar, trig_values, trig_vector


# ---------------------------------------------------------------------------
# GridSpec


def test_grid_geometry():
    grid = GridSpec(2, 2.0, 8)
    assert grid.shape == (8, 8)
    assert grid.box_edge == pytest.approx(4.0 * np.pi)
    assert grid.volume == pytest.approx((4.0 * np.pi) ** 2)
    assert grid.spacing == pytest.approx(4.0 * np.pi / 8)
    x = grid.axis_coordinates()
    assert x[0] == 0.0
    assert x[-1] == pytest.approx(grid.box_edge - grid.spacing)


def test_grid_validation():
    with pytest.raises(ValueError, match="dim"):
        GridSpec(4, 1.0, 8)
    with pytest.raises(ValueError, match="even"):
        GridSpec(2, 1.0, 7)
    with pytest.raises(ValueError, match="even"):
        GridSpec(2, 1.0, 0)
    with pytest.raises(ValueError, match="half_period"):
        GridSpec(2, -1.0, 8)
    with pytest.raises(ValueError, match="dealias_fraction"):
        GridSpec(2, 1.0, 8, dealias_fraction=0.0)


def test_dealias_cutoff_is_two_thirds():
    assert GridSpec(2, 1.0, 32).dealias_cutoff == 10  # floor(2/3 * 16)
    assert GridSpec(3, 1.0, 16).dealias_cutoff == 5
    assert GridSpec(2, 1.0, 256).dealias_cutoff == 85


def test_wavenumber_scaling_and_nyquist_zero():
    grid = GridSpec(2, 2.0, 8)
    xi = grid.wavenumber(0)
    # mode m carries frequency m / L; the Nyquist slot is zeroed.
    profile = xi[:, 0]
    assert profile[0] == 0.0
    assert profile[1] == pytest.approx(1.0 / 2.0)
    assert profile[-1] == pytest.approx(-1.0 / 2.0)
    assert profile[4] == 0.0  # |m| = N/2
    with pytest.raises(ValueError, match="axis"):
        grid.wavenumber(2)


# ---------------------------------------------------------------------------
# transforms


def test_constant_field_energy_sits_in_zero_mode(grid2):
    field = ScalarField(grid2, np.full(grid2.shape, 3.25))
    coeff = to_spectral(field).coefficients[0]
    assert coeff[0, 0] == pytest.approx(3.25)
    off = coeff.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) <= 1e-14


def test_transform_round_trip(grid2, grid3):
    for grid, seed in ((grid2, 5), (grid3, 6)):
        field = trig_scalar(grid, seed)
        back = from_spectral(to_spectral(field))
        scale = np.max(np.abs(field.values))
        assert np.max(np.abs(back.values - field.values)) <= 1e-13 * scale


def test_single_harmonic_coefficients():
    grid = GridSpec(2, 1.5, 32)
    x = grid.coordinates()[0]
    field = ScalarField(grid, np.sin(x / 1.5) * np.ones(grid.shape))
    coeff = to_spectral(field).coefficients[0]
    # sin(x1/L) = -(i/2) e^{i x1/L} + (i/2) e^{-i x1/L}
    assert coeff[1, 0] == pytest.approx(-0.5j, abs=1e-14)
    assert coeff[-1, 0] == pytest.approx(0.5j, abs=1e-14)
    others = coeff.copy()
    others[1, 0] = 0.0
    others[-1, 0] = 0.0
    assert np.max(np.abs(others)) <= 1e-14


def test_parseval_identity(grid2):
    field = trig_scalar(grid2, 11)
    spectral = to_spectral(field).coefficients[0]
    physical = np.mean(field.values**2) * grid2.volume
    modal = np.sum(np.abs(spectral) ** 2) * grid2.volume
    assert physical == pytest.approx(modal, rel=1e-12)


def test_hermitian_defect_detects_nonreal_data(grid2):
    spectral = to_spectral(trig_scalar(grid2, 12))
    assert hermitian_defect(spectral) <= 1e-13
    broken = spectral.coefficients.copy()
    broken[0, 1, 2] += 0.5
    from oseenlab.fields import SpectralField

    assert hermitian_defect(SpectralField(grid2, broken)) > 0.1


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_of_single_harmonic():
    grid = GridSpec(2, 2.0, 32)
    x = grid.coordinates()[0]
    field = ScalarField(grid, np.sin(x / 2.0) * np.ones(grid.shape))
    dx = derivative(field, 1)
    expected = np.cos(x / 2.0) / 2.0
    assert np.max(np.abs(dx.values - expected)) <= 1e-13


def test_derivative_of_constant_is_zero(grid3):
    field = ScalarField(grid3, np.full(grid3.shape, 2.0))
    for axis in (1, 2, 3):
        assert np.max(np.abs(derivative(field, axis).values)) <= 1e-14


def test_derivative_axis_is_one_based(grid2):
    field = trig_scalar(grid2, 13)
    with pytest.raises(ValueError, match="axis"):
        derivative(field, 0)
    with pytest.raises(ValueError, match="axis"):
        derivative(field, 3)


def test_gradient_and_divergence_shapes(grid2):
    scalar = trig_scalar(grid2, 14)
    grad = gradient(scalar)
    assert isinstance(grad, VectorField)
    assert np.allclose(grad.component(0).values, derivative(scalar, 1).values)
    assert np.allclose(grad.component(1).values, derivative(scalar, 2).values)
    div = divergence(grad)
    assert isinstance(div, ScalarField)


def test_stream_function_curl_is_divergence_free():
    grid = GridSpec(2, np.pi, 64)
    psi = trig_scalar(grid, 21, max_mode=4)
    u = VectorField(
        grid, np.stack([derivative(psi, 2).values, -derivative(psi, 1).values])
    )
    scale = np.max(np.abs(u.components))
    assert np.max(np.abs(divergence(u).values)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# dealiasing and products


def test_truncate_modes_zeroes_high_shells(grid2):
    spectral = to_spectral(trig_scalar(grid2, 31, max_mode=10, terms=30))
    cut = truncate_modes(spectral)
    inside = grid2.dealias_mask
    assert np.max(np.abs(cut.coefficients[0][~inside])) == 0.0
    assert np.allclose(
        cut.coefficients[0][inside], spectral.coefficients[0][inside]
    )


def test_dealiased_product_with_identity(grid2):
    one = ScalarField(grid2, np.ones(grid2.shape))
    rough = trig_scalar(grid2, 32, max_mode=12, terms=24)
    produced = dealiased_product(one, rough)
    truncated = dealias(rough)
    assert np.max(np.abs(produced.values - truncated.values)) <= 1e-13 * (
        1.0 + np.max(np.abs(truncated.values))
    )


def test_product_of_low_modes_is_exact():
    grid = GridSpec(2, 1.0, 32)
    x = grid.coordinates()[0]
    s = np.sin(x) * np.ones(grid.shape)
    produced = dealiased_product(ScalarField(grid, s), ScalarField(grid, s))
    expected = 0.5 - 0.5 * np.cos(2.0 * x)
    assert np.max(np.abs(produced.values - expected)) <= 1e-14


def test_convection_energy_orthogonality():
    # For divergence-free u, the integral of u . (u . grad)u vanishes.
    grid = GridSpec(2, np.pi, 64)
    psi = trig_scalar(grid, 41, max_mode=4)
    u = VectorField(
        grid, np.stack([derivative(psi, 2).values, -derivative(psi, 1).values])
    )
    total = np.zeros(grid.shape)
    for i in range(2):
        advect_i = np.zeros(grid.shape)
        for a in range(2):
            term = dealiased_product(
                u.component(a), derivative(u.component(i), a + 1)
            )
            advect_i = advect_i + term.values
        total = total + u.component(i).values * advect_i
    integral = np.mean(total) * grid.volume
    cubic_scale = np.mean(np.abs(total)) * grid.volume
    assert abs(integral) <= 1e-10 * max(cubic_scale, 1.0)


# ---------------------------------------------------------------------------
# field containers


def test_field_arithmetic(grid2):
    a = trig_scalar(grid2, 51)
    b = trig_scalar(grid2, 52)
    combo = a + b * 2.0 - (-a)
    expected = 2.0 * a.values + 2.0 * b.values
    assert np.allclose(combo.values, expected)
    va = trig_vector(grid2, 53)
    assert np.allclose((va * 0.5 + va * 0.5).components, va.components)


def test_field_shape_validation(grid2):
    with pytest.raises(ValueError):
        ScalarField(grid2, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        VectorField(grid2, np.zeros((3,) + grid2.shape))


def test_fields_are_immutable(grid2):
    field = trig_scalar(grid2, 54)
    with pytest.raises(ValueError):
        field.values[0, 0] = 1.0


def _owned_array_cases():
    """(caller array shape, dtype, constructor, stored array) per class."""
    return {
        "ScalarField": ((), float, ScalarField, lambda f: f.values),
        "VectorField": ((2,), float, VectorField, lambda f: f.components),
        "SpectralField": ((1,), complex, SpectralField, lambda f: f.coefficients),
        "TimePeriodicField": (
            (3, 1),
            complex,
            lambda grid, a: TimePeriodicField(grid, 1.0, a),
            lambda f: f.modes,
        ),
        "LiftingField.jacobian": (
            (2, 2),
            float,
            lambda grid, a: LiftingField(
                VectorField.zeros(grid),
                0.0,
                a,
                np.zeros((2,) + grid.shape),
                default_cutoff(grid),
            ),
            lambda f: f.jacobian,
        ),
    }


@pytest.mark.parametrize("case", sorted(_owned_array_cases()))
def test_constructors_neither_lock_nor_alias_caller_arrays(grid2, case):
    lead, dtype, build, stored = _owned_array_cases()[case]
    array = np.zeros(lead + grid2.shape, dtype=dtype)
    field = build(grid2, array)
    array[(0,) * array.ndim] = 1.0
    assert np.all(stored(field) == 0.0)
    with pytest.raises(ValueError):
        stored(field)[(0,) * array.ndim] = 1.0


def test_reality_snap_leaves_caller_modes_untouched(grid2):
    phi = trig_values(grid2, 67)[None]
    modes = np.zeros((3, 1) + grid2.shape, dtype=np.complex128)
    modes[2] = phi * (1.0 + 1.0j)
    modes[0] = np.conj(modes[2]) * (1.0 + 1e-14)
    before = modes.copy()
    stack = TimePeriodicField(grid2, 1.0, modes)
    assert np.array_equal(modes, before)
    assert np.array_equal(stack.mode(-1), np.conj(stack.mode(1)))


# ---------------------------------------------------------------------------
# time-periodic stacks


def test_from_steady_round_trip(grid2):
    steady = trig_vector(grid2, 61)
    stack = TimePeriodicField.from_steady(steady, period=2.0, max_mode=2)
    assert stack.max_mode == 2
    back = stack.steady_part()
    assert np.allclose(back.components, steady.components)
    for k in (1, 2):
        assert np.max(np.abs(stack.mode(k))) == 0.0


def test_from_time_samples_recovers_cosine_mode(grid2):
    phi = trig_values(grid2, 62)
    period = 3.0
    omega = 2.0 * np.pi / period
    times = np.arange(8) * (period / 8)
    samples = np.stack([np.cos(omega * t)[None] * phi[None] for t in times])
    stack = TimePeriodicField.from_time_samples(grid2, period, samples, max_mode=2)
    scale = np.max(np.abs(phi))
    assert np.max(np.abs(stack.mode(1) - 0.5 * phi)) <= 1e-13 * scale
    assert np.max(np.abs(stack.mode(-1) - 0.5 * phi)) <= 1e-13 * scale
    assert np.max(np.abs(stack.mode(0))) <= 1e-13 * scale
    assert np.max(np.abs(stack.mode(2))) <= 1e-13 * scale


def test_sample_times_reconstructs_signal(grid2):
    phi = trig_values(grid2, 63)
    psi = trig_values(grid2, 64)
    period = 2.0
    omega = 2.0 * np.pi / period
    modes = np.zeros((3, 1) + grid2.shape, dtype=np.complex128)
    modes[1] = phi  # k = 0
    modes[2] = 0.5 * (psi - 1j * psi)  # k = +1
    modes[0] = np.conj(modes[2])
    stack = TimePeriodicField(grid2, period, modes)
    samples = stack.sample_times(12)
    t = np.arange(12) * (period / 12)
    for j, tj in enumerate(t):
        expected = phi + psi * np.cos(omega * tj) + psi * np.sin(omega * tj)
        assert np.max(np.abs(samples[j, 0] - expected)) <= 1e-12


def test_time_derivative_multiplies_by_frequency(grid2):
    phi = trig_values(grid2, 65)
    period = 5.0
    omega = 2.0 * np.pi / period
    modes = np.zeros((3, 1) + grid2.shape, dtype=np.complex128)
    modes[2] = 0.5 * phi
    modes[0] = np.conj(modes[2])
    stack = TimePeriodicField(grid2, period, modes)
    dt = stack.time_derivative()
    assert np.max(np.abs(dt.mode(1) - 1j * omega * 0.5 * phi)) <= 1e-13
    assert np.max(np.abs(dt.mode(0))) == 0.0


def test_reality_validator_rejects_unpaired_stack(grid2):
    modes = np.zeros((3, 1) + grid2.shape, dtype=np.complex128)
    modes[2] = 1.0 + 1.0j
    modes[0] = 0.25  # not conj(modes[2])
    with pytest.raises(ValueError, match="conj"):
        TimePeriodicField(grid2, 1.0, modes)
    with pytest.raises(ValueError, match="odd"):
        TimePeriodicField(grid2, 1.0, np.zeros((4, 1) + grid2.shape, complex))
    with pytest.raises(ValueError, match="period"):
        TimePeriodicField(grid2, -1.0, np.zeros((1, 1) + grid2.shape, complex))


def test_stack_arithmetic_preserves_reality(grid2):
    phi = trig_values(grid2, 66)
    a = TimePeriodicField.from_modes(
        grid2, 2.0, [np.zeros((1,) + grid2.shape, complex), 0.5 * phi[None] * (1 + 1j)]
    )
    b = a * 2.0 - a
    assert np.max(np.abs(b.mode(1) - a.mode(1))) <= 1e-15
    assert np.max(np.abs(b.mode(-1) - np.conj(b.mode(1)))) == 0.0
