"""Grid, transform, derivative, dealiasing, and time-stack behavior."""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np
import pytest

from oseenlab.exponents import s_exponent
from oseenlab.fields import (
    GridSpec,
    ScalarField,
    TimePeriodicField,
    VectorField,
    _component_array,
    _fftn,
    _ifftn,
    _truncate_samples,
    derivative,
    divergence,
    gradient,
)
from oseenlab.lifting import LiftingField
from oseenlab.nonlinear import convective_product
from oseenlab.oseen import project_steady

from conftest import trig_scalar, trig_values, trig_vector


# ---------------------------------------------------------------------------
# GridSpec


def test_grid_geometry():
    grid = GridSpec(2, 2.0, 8)
    assert grid.shape == (8, 8)
    assert grid.volume == pytest.approx((4.0 * np.pi) ** 2)
    assert grid.spacing == pytest.approx(4.0 * np.pi / 8)
    x = grid.coordinates()[0].ravel()
    assert x[0] == 0.0
    assert x[-1] == pytest.approx(4.0 * np.pi - grid.spacing)


def test_grid_validation():
    with pytest.raises(ValueError, match="dim"):
        GridSpec(4, 1.0, 8)
    with pytest.raises(ValueError, match="even"):
        GridSpec(2, 1.0, 7)
    with pytest.raises(ValueError, match="even"):
        GridSpec(2, 1.0, 0)
    with pytest.raises(ValueError, match="half_period"):
        GridSpec(2, -1.0, 8)


def test_grid_rejects_a_dimension_that_is_not_an_integer():
    # 3.0 == 3, but a float cannot size the sample array.
    message = r"^dim must be the integer 2 or 3, got 3\.0$"
    with pytest.raises(ValueError, match=message):
        GridSpec(3.0, np.pi, 16)


def test_grid_stores_a_numpy_integer_dimension_as_int():
    # The exponent checks take a Python int only.
    grid = GridSpec(np.int64(3), np.pi, 16)
    assert type(grid.dim) is int and grid.dim == 3
    assert grid == GridSpec(3, np.pi, 16)
    assert grid.shape == (16, 16, 16)
    assert s_exponent(grid.dim, 2.0) == 4.0


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_grid_rejects_a_half_period_that_is_not_finite(value):
    # At half_period = inf the volume is inf and the coordinates are NaN.
    message = f"^half_period must be positive and finite, got {value}$"
    with pytest.raises(ValueError, match=message):
        GridSpec(3, value, 8)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_stack_rejects_a_period_that_is_not_finite(grid2, value):
    # At period = inf every frequency would be 0.
    modes = np.zeros((2, 1) + grid2.shape, complex)
    message = f"^period must be positive and finite, got {value}$"
    with pytest.raises(ValueError, match=message):
        TimePeriodicField(grid2, value, modes)


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


@pytest.mark.parametrize("dim", [2, 3])
def test_wavenumbers_are_built_once_and_read_only(dim):
    grid = GridSpec(dim, 2.0, 8)
    m = np.fft.fftfreq(8, d=1.0 / 8)
    m[4] = 0.0
    for axis in range(dim):
        xi = grid.wavenumber(axis)
        assert xi is grid.wavenumber(axis)
        assert not xi.flags.writeable
        shape = [1] * dim
        shape[axis] = 8
        assert np.array_equal(xi, (m / 2.0).reshape(shape))


@pytest.mark.parametrize("dim", [2, 3])
def test_half_dealias_mask_is_the_full_mask_on_the_half_layout(dim):
    grid = GridSpec(dim, 1.0, 12)
    full = np.abs(np.fft.fftfreq(12, d=1.0 / 12)) <= grid.dealias_cutoff
    last = np.arange(7) <= grid.dealias_cutoff
    expected = np.multiply.outer(full, last) if dim == 2 else (
        full[:, None, None] & full[None, :, None] & last[None, None, :]
    )
    half = grid.half_dealias_mask
    assert half.shape == (12,) * (dim - 1) + (7,)
    assert np.array_equal(half, expected)
    assert not half.flags.writeable


# ---------------------------------------------------------------------------
# transforms


def test_constant_field_energy_sits_in_zero_mode(grid2):
    field = ScalarField(grid2, np.full(grid2.shape, 3.25))
    coeff = _fftn(field.values, grid2.dim)
    assert coeff[0, 0] == pytest.approx(3.25)
    off = coeff.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) <= 1e-14


def test_transform_round_trip(grid2, grid3):
    for grid, seed in ((grid2, 5), (grid3, 6)):
        field = trig_scalar(grid, seed)
        back = _ifftn(_fftn(field.values, grid.dim), grid.dim).real
        scale = np.max(np.abs(field.values))
        assert np.max(np.abs(back - field.values)) <= 1e-13 * scale


def test_single_harmonic_coefficients():
    grid = GridSpec(2, 1.5, 32)
    x = grid.coordinates()[0]
    field = ScalarField(grid, np.sin(x / 1.5) * np.ones(grid.shape))
    coeff = _fftn(field.values, grid.dim)
    # sin(x1/L) = -(i/2) e^{i x1/L} + (i/2) e^{-i x1/L}
    assert coeff[1, 0] == pytest.approx(-0.5j, abs=1e-14)
    assert coeff[-1, 0] == pytest.approx(0.5j, abs=1e-14)
    others = coeff.copy()
    others[1, 0] = 0.0
    others[-1, 0] = 0.0
    assert np.max(np.abs(others)) <= 1e-14


def test_parseval_identity(grid2):
    field = trig_scalar(grid2, 11)
    spectral = _fftn(field.values, grid2.dim)
    physical = np.mean(field.values**2) * grid2.volume
    modal = np.sum(np.abs(spectral) ** 2) * grid2.volume
    assert physical == pytest.approx(modal, rel=1e-12)


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


# The former complex-transform derivatives and symbol construction, kept as
# references for the half-layout code that replaced them.


def _former_derivative(field, axis):
    grid = field.grid
    xi = grid.wavenumber(axis - 1)
    coeff = _fftn(_component_array(field), grid.dim) * (1j * xi)
    return _ifftn(coeff, grid.dim).real


def _former_gradient(field):
    grid = field.grid
    coeff = _fftn(field.values[None], grid.dim)[0]
    parts = [coeff * (1j * grid.wavenumber(axis)) for axis in range(grid.dim)]
    return _ifftn(np.stack(parts), grid.dim).real


def _former_divergence(field):
    grid = field.grid
    coeff = _fftn(field.components, grid.dim)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for axis in range(grid.dim):
        out = out + coeff[axis] * (1j * grid.wavenumber(axis))
    return _ifftn(out[None], grid.dim).real[0]


def _former_derivative_symbols(grid):
    n = grid.points_per_axis
    factors = []
    for axis in range(grid.dim):
        m = grid.mode_numbers if axis < grid.dim - 1 else np.arange(n // 2 + 1)
        xi = np.where(np.abs(m) == n // 2, 0.0, m.astype(np.float64))
        shape = [1] * grid.dim
        shape[axis] = xi.size
        factors.append(1j * (xi / grid.half_period).reshape(shape))
    symbols = {}
    for order in (1, 2):
        products = []
        for alpha in combinations_with_replacement(range(grid.dim), order):
            multiplier = factors[alpha[0]]
            for axis in alpha[1:]:
                multiplier = multiplier * factors[axis]
            products.append(multiplier)
        symbols[order] = tuple(products)
    return symbols


def _assert_close(produced, reference, rtol=1e-13):
    # Relative to the largest entry, so entries near zero do not count.
    assert produced.shape == reference.shape
    assert np.max(np.abs(produced - reference)) <= rtol * np.max(np.abs(reference))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("points", [10, 16])
def test_half_layout_derivatives_match_the_former_complex_code(dim, points):
    # Unfiltered random samples fill every mode, Nyquist planes included.
    grid = GridSpec(dim, 1.3, points)
    rng = np.random.default_rng(100 * dim + points)
    scalar = ScalarField(grid, rng.standard_normal(grid.shape))
    vector = VectorField(grid, rng.standard_normal((dim,) + grid.shape))
    for field in (scalar, vector):
        for axis in range(1, dim + 1):
            produced = _component_array(derivative(field, axis))
            _assert_close(produced, _former_derivative(field, axis))
    _assert_close(gradient(scalar).components, _former_gradient(scalar))
    _assert_close(divergence(vector).values, _former_divergence(vector))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("points, half_period", [(8, 2.0), (10, 1.3), (16, np.pi)])
def test_derivative_symbols_equal_the_former_construction(dim, points, half_period):
    grid = GridSpec(dim, half_period, points)
    former = _former_derivative_symbols(grid)
    assert set(grid.derivative_symbols) == set(former) == {1, 2}
    for order, symbols in grid.derivative_symbols.items():
        assert len(symbols) == len(former[order])
        for symbol, reference in zip(symbols, former[order]):
            assert np.array_equal(symbol, reference)
            assert not symbol.flags.writeable


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
    values = trig_scalar(grid2, 31, max_mode=14, terms=30).values
    spectrum = _fftn(values, grid2.dim)
    cut = _fftn(_truncate_samples(grid2, values), grid2.dim)
    inside = grid2.dealias_mask
    scale = np.max(np.abs(spectrum))
    assert np.max(np.abs(spectrum[~inside])) > 0.01 * scale
    assert np.max(np.abs(cut[~inside])) <= 1e-14 * scale
    assert np.allclose(cut[inside], spectrum[inside], rtol=0.0, atol=1e-14 * scale)


def test_product_of_low_modes_is_exact():
    # (a . grad) b with a = (sin x1, 0) and b = (-cos x1, 0) is (sin^2 x1, 0).
    grid = GridSpec(2, 1.0, 32)
    x = grid.coordinates()[0] * np.ones(grid.shape)
    zero = np.zeros(grid.shape)
    a = VectorField(grid, np.stack([np.sin(x), zero]))
    b = VectorField(grid, np.stack([-np.cos(x), zero]))
    produced = convective_product(a, b).components
    expected = 0.5 - 0.5 * np.cos(2.0 * x)
    assert np.max(np.abs(produced[0] - expected)) <= 1e-14
    assert np.max(np.abs(produced[1])) <= 1e-14


def test_convection_energy_orthogonality():
    # For divergence-free u, the integral of u . (u . grad)u vanishes.
    grid = GridSpec(2, np.pi, 64)
    psi = trig_scalar(grid, 41, max_mode=4)
    u = VectorField(
        grid, np.stack([derivative(psi, 2).values, -derivative(psi, 1).values])
    )
    total = np.sum(u.components * convective_product(u, u).components, axis=0)
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


def _operand_pairs(grid):
    """Two fields of each kind on ``grid`` and how to read their arrays."""

    def stack(seed):
        phi = trig_values(grid, seed)[None]
        return TimePeriodicField.from_modes(grid, 2.0, [phi, (0.5 + 2j) * phi])

    return {
        "ScalarField": (trig_scalar(grid, 81), trig_scalar(grid, 82), "values"),
        "VectorField": (trig_vector(grid, 83), trig_vector(grid, 84), "components"),
        "TimePeriodicField": (stack(85), stack(86), "modes"),
    }


@pytest.mark.parametrize("kind", ["ScalarField", "VectorField", "TimePeriodicField"])
def test_field_algebra_is_the_array_algebra(grid2, kind):
    a, b, name = _operand_pairs(grid2)[kind]
    x, y = getattr(a, name), getattr(b, name)
    for result, expected in (
        (a + b, x + y),
        (a - b, x - y),
        (-a, -x),
        (a * 2.5, x * 2.5),
        (2.5 * a, x * 2.5),
    ):
        assert type(result) is type(a) and result.grid == grid2
        assert getattr(result, "period", None) == getattr(a, "period", None)
        assert np.array_equal(getattr(result, name), expected)


def test_mixing_field_kinds_raises_type_error(grid2):
    scalar = trig_scalar(grid2, 81)
    vector = trig_vector(grid2, 83)
    stack = TimePeriodicField.from_steady(vector, 2.0)
    with pytest.raises(TypeError, match="combine ScalarField with VectorField"):
        scalar + vector
    with pytest.raises(TypeError, match="combine TimePeriodicField with VectorField"):
        stack - vector


def test_mismatched_operands_keep_their_messages(grid2):
    coarse = GridSpec(2, np.pi, 16)
    for kind, (a, _, _) in _operand_pairs(grid2).items():
        b = _operand_pairs(coarse)[kind][0]
        with pytest.raises(ValueError, match="fields live on different grids"):
            a + b
    vector = trig_vector(grid2, 83)
    stack = TimePeriodicField.from_steady(vector, 2.0, max_mode=1)
    for period, max_mode in ((3.0, 1), (2.0, 2)):
        other = TimePeriodicField.from_steady(vector, period, max_mode)
        with pytest.raises(ValueError, match="mismatched period or modes"):
            stack - other


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
    modes = np.zeros((2, 1) + grid2.shape, dtype=np.complex128)
    modes[0] = phi * (1.0 + 1e-14j)
    modes[1] = phi * (1.0 + 1.0j)
    before = modes.copy()
    stack = TimePeriodicField(grid2, 1.0, modes)
    assert np.array_equal(modes, before)
    assert np.all(stack.mode(0).imag == 0.0)
    assert np.array_equal(stack.mode(0).real, phi)


# ---------------------------------------------------------------------------
# time-periodic stacks


def test_from_steady_round_trip(grid2):
    steady = trig_vector(grid2, 61)
    stack = TimePeriodicField.from_steady(steady, period=2.0, max_mode=2)
    assert stack.max_mode == 2
    back = project_steady(stack)
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
    modes = np.zeros((2, 1) + grid2.shape, dtype=np.complex128)
    modes[0] = phi
    modes[1] = 0.5 * (psi - 1j * psi)
    stack = TimePeriodicField(grid2, period, modes)
    samples = stack.sample_times(12)
    t = np.arange(12) * (period / 12)
    for j, tj in enumerate(t):
        expected = phi + psi * np.cos(omega * tj) + psi * np.sin(omega * tj)
        assert np.max(np.abs(samples[j, 0] - expected)) <= 1e-12


def test_from_steady_refuses_a_negative_max_mode(grid2):
    with pytest.raises(ValueError, match="max_mode must be at least 0, got -1"):
        TimePeriodicField.from_steady(trig_vector(grid2, 65), 1.0, max_mode=-1)


def test_from_time_samples_refuses_a_negative_max_mode(grid2):
    samples = np.zeros((3, 1) + grid2.shape)
    with pytest.raises(ValueError, match="max_mode must be at least 0, got -1"):
        TimePeriodicField.from_time_samples(grid2, 1.0, samples, max_mode=-1)


def test_sample_times_refuses_a_count_that_is_not_an_integer(grid2):
    stack = TimePeriodicField.from_steady(trig_scalar(grid2, 66), 1.0, max_mode=1)
    with pytest.raises(TypeError, match="num_samples must be an integer, got 2.5"):
        stack.sample_times(2.5)


def test_reality_validator_rejects_unpaired_stack(grid2):
    modes = np.zeros((2, 1) + grid2.shape, dtype=np.complex128)
    modes[0] = 0.25j  # the time average of a real signal is real
    modes[1] = 1.0 + 1.0j
    with pytest.raises(ValueError, match="mode 0 is not real"):
        TimePeriodicField(grid2, 1.0, modes)
    with pytest.raises(ValueError, match=r"\(K\+1, ncomp\)"):
        TimePeriodicField(grid2, 1.0, np.zeros((0, 1) + grid2.shape, complex))
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
