"""Convective nonlinearity: closed-form mirrors, hand formulas, bitwise references."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import trig_scalar, trig_values, trig_vector, zero_field
from oseenlab.fields import (
    GridSpec,
    SpatialField,
    TimePeriodicField,
    _fftn,
    _ifftn,
    derivative,
)
from oseenlab.lifting import build_lifting, default_cutoff
from oseenlab.nonlinear import convective_product, nonlinearity
from oseenlab.norms import lq_norm

def _axes(grid: GridSpec) -> tuple[int, ...]:
    return tuple(range(-grid.dim, 0))


def _wavenumber_1d(grid: GridSpec) -> np.ndarray:
    n = grid.points_per_axis
    scale = grid.half_period
    modes = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        modes[n // 2] = 0.0
    return modes / scale


def _truncate(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    axes = _axes(grid)
    spectrum = np.fft.fftn(values, axes=axes) * grid.dealias_mask
    return np.real(np.fft.ifftn(spectrum, axes=axes))


def _partial(grid: GridSpec, values: np.ndarray, axis: int) -> np.ndarray:
    """d/dx_{axis+1} of a dealiased scalar sample array via plain numpy FFT."""
    axes = _axes(grid)
    xi = _wavenumber_1d(grid)
    shape = [1] * grid.dim
    shape[axis] = grid.points_per_axis
    spectrum = np.fft.fftn(values, axes=axes) * grid.dealias_mask
    spectrum = spectrum * (1j * xi.reshape(shape))
    return np.real(np.fft.ifftn(spectrum, axes=axes))


def _mirror_convective(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a_t = _truncate(grid, a)
    out = np.zeros_like(a)
    for i in range(grid.dim):
        for k in range(grid.dim):
            out[i] = out[i] + a_t[k] * _partial(grid, b[i], k)
    return _truncate(grid, out)


def _mirror_quadratic(grid, u_values, lifting) -> np.ndarray:
    """((u + V) . grad)(u + V) as four products, three truncated on their own."""
    v_vals = lifting.velocity.components
    jac = lifting.jacobian
    quad = _mirror_convective(grid, u_values, u_values)
    u_t = _truncate(grid, u_values)
    adv_lift = np.zeros_like(u_values)
    lift_adv = np.zeros_like(u_values)
    self_adv = np.zeros_like(u_values)
    for i in range(grid.dim):
        for k in range(grid.dim):
            adv_lift[i] = adv_lift[i] + u_t[k] * jac[i, k]
            lift_adv[i] = lift_adv[i] + v_vals[k] * _partial(grid, u_values[i], k)
            self_adv[i] = self_adv[i] + v_vals[k] * jac[i, k]
    return (
        quad
        + _truncate(grid, adv_lift)
        + _truncate(grid, lift_adv)
        + _truncate(grid, self_adv)
    )


def _mirror_nonlinearity(u, lifting) -> np.ndarray:
    """Re-derive the nonlinearity with independent numpy FFT calls in space;
    a stack comes back as its modes.  It truncates three products on their
    own, so it matches the kernel's single truncation up to roundoff."""
    grid = u.grid
    linear = lifting.laplacian - lifting.lambda_used * lifting.jacobian[:, 0]
    if isinstance(u, SpatialField):
        return -_mirror_quadratic(grid, u.components, lifting) + linear
    samples = u.sample_times(4 * u.max_mode + 1)
    quad = np.stack([_mirror_quadratic(grid, x, lifting) for x in samples])
    modes = -TimePeriodicField.from_time_samples(
        grid, u.period, quad, u.max_mode
    ).modes
    modes[0] = modes[0] + linear
    return modes


def _zero_lifting(grid: GridSpec):
    return build_lifting(0.0, default_cutoff(grid), grid)


def _stream_curl(grid: GridSpec, seed: int) -> SpatialField:
    psi = trig_scalar(grid, seed, max_mode=3, terms=10)
    return SpatialField(
        grid,
        np.stack(
            [
                derivative(psi, 2).components[0],
                -derivative(psi, 1).components[0],
            ]
        ),
    )


def test_zero_velocity_with_zero_lifting_gives_exact_zero(grid2):
    out = nonlinearity(zero_field(grid2, grid2.dim), None)
    assert np.max(np.abs(out.components)) == 0.0


def test_zero_velocity_reduces_to_lifting_forcing(grid2):
    lifting = build_lifting(0.9, default_cutoff(grid2), grid2)
    lam = lifting.lambda_used
    out = nonlinearity(zero_field(grid2, grid2.dim), lifting)
    jac = lifting.jacobian
    v_vals = lifting.velocity.components
    self_adv = np.zeros_like(v_vals)
    for i in range(grid2.dim):
        for k in range(grid2.dim):
            self_adv[i] = self_adv[i] + v_vals[k] * jac[i, k]
    expected = -_truncate(grid2, self_adv) + lifting.laplacian - lam * jac[:, 0]
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(out.components - expected)) <= 1e-13 * scale


def _with_drift(lifting, lam: float):
    """The same V arrays, carrying drift ``lam`` into the -lam * d1(V) term."""
    return dataclasses.replace(lifting, lambda_used=lam)


def test_drift_term_is_linear_in_drift_speed(grid2):
    lifting = build_lifting(0.9, default_cutoff(grid2), grid2)
    lam_a, lam_b = 2.0, 0.5
    out_a = nonlinearity(zero_field(grid2, grid2.dim), _with_drift(lifting, lam_a))
    out_b = nonlinearity(zero_field(grid2, grid2.dim), _with_drift(lifting, lam_b))
    diff = out_a.components - out_b.components
    expected = -(lam_a - lam_b) * lifting.jacobian[:, 0]
    scale = max(np.max(np.abs(expected)), 1.0)
    assert np.max(np.abs(diff - expected)) <= 1e-12 * scale


def test_energy_orthogonality_without_lifting(grid2):
    u = _stream_curl(grid2, 31)
    out = nonlinearity(u, None)
    volume = (2.0 * grid2.half_period) ** grid2.dim
    integral = np.mean(np.sum(u.components * out.components, axis=0)) * volume
    bound = lq_norm(u, 2.0) * lq_norm(out, 2.0)
    assert abs(integral) <= 1e-9 * bound


def test_velocity_differences_do_not_see_the_drift_speed(grid2):
    lifting = build_lifting(0.6, default_cutoff(grid2), grid2)
    u1 = trig_vector(grid2, 7, max_mode=3, terms=8)
    u2 = trig_vector(grid2, 8, max_mode=3, terms=8)
    fast, slow = _with_drift(lifting, 1.7), _with_drift(lifting, 0.2)
    diff_a = nonlinearity(u1, fast).components - nonlinearity(u2, fast).components
    diff_b = nonlinearity(u1, slow).components - nonlinearity(u2, slow).components
    scale = max(np.max(np.abs(diff_a)), 1.0)
    assert np.max(np.abs(diff_a - diff_b)) <= 1e-12 * scale


@pytest.mark.parametrize("fixture_name", ["grid2", "grid3"])
def test_steady_nonlinearity_matches_independent_mirror(request, fixture_name):
    grid = request.getfixturevalue(fixture_name)
    lifting = build_lifting(0.8, default_cutoff(grid), grid)
    u = trig_vector(grid, 23, max_mode=3, terms=8)
    out = nonlinearity(u, lifting)
    expected = _mirror_nonlinearity(u, lifting)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(out.components - expected)) <= 1e-15 * scale


def test_time_constant_embedding_matches_steady_operator(grid2):
    lifting = build_lifting(0.5, default_cutoff(grid2), grid2)
    u = trig_vector(grid2, 11, max_mode=3, terms=8)
    u_tp = TimePeriodicField.from_steady(u, 2.0, max_mode=2)
    out_tp = nonlinearity(u_tp, lifting)
    out_steady = nonlinearity(u, lifting)
    scale = np.max(np.abs(out_steady.components))
    assert np.max(np.abs(out_tp.mode(0).real - out_steady.components)) <= 1e-13 * scale
    for k in (1, 2):
        assert np.max(np.abs(out_tp.mode(k))) <= 1e-13 * scale


def _oscillating_velocity(grid: GridSpec, period: float, seed: int, max_mode=2):
    modes = [
        trig_vector(grid, seed, max_mode=2, terms=6).components.astype(complex)
    ]
    for k in range(1, max_mode + 1):
        real = trig_vector(grid, seed + 10 * k, max_mode=2, terms=6).components
        imag = trig_vector(grid, seed + 10 * k + 5, max_mode=2, terms=6).components
        modes.append(0.3 ** k * (real + 1j * imag))
    return TimePeriodicField.from_modes(grid, period, modes)


@pytest.mark.parametrize("fixture_name", ["grid2", "grid3"])
def test_time_periodic_nonlinearity_matches_independent_mirror(request, fixture_name):
    grid = request.getfixturevalue(fixture_name)
    lifting = build_lifting(0.8, default_cutoff(grid), grid)
    u = _oscillating_velocity(grid, 2.5, 25, max_mode=2)
    out = nonlinearity(u, lifting)
    expected = _mirror_nonlinearity(u, lifting)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(out.modes - expected)) <= 1e-15 * scale


def test_zero_mean_oscillation_drives_a_time_average(grid2):
    # Without lifting, a velocity with no time average still feeds the k = 0
    # mode through the product of its oscillation with itself.
    zero_mode = np.zeros((grid2.dim,) + grid2.shape, complex)
    m1 = trig_vector(grid2, 61, max_mode=2, terms=6).components + 1j * trig_vector(
        grid2, 62, max_mode=2, terms=6
    ).components
    u = TimePeriodicField.from_modes(grid2, 2.0, [zero_mode, 0.4 * m1])
    out = nonlinearity(u, None)
    scale = np.max(np.abs(out.modes))
    assert np.max(np.abs(out.mode(0))) > 1e-13 * scale


def _unit_phase(grid: GridSpec, axis: int) -> np.ndarray:
    """Coordinate along ``axis`` divided by the box scale (one full turn)."""
    return grid.coordinates()[axis] * np.ones(grid.shape) / grid.half_period


def test_convective_product_steady_hand_formula(grid2):
    s1 = _unit_phase(grid2, 0)
    s2 = _unit_phase(grid2, 1)
    inv = 1.0 / grid2.half_period
    a = SpatialField(grid2, np.stack([np.zeros(grid2.shape), np.sin(s1)]))
    b = SpatialField(grid2, np.stack([np.cos(s2), np.zeros(grid2.shape)]))
    out = convective_product(a, b)
    expected = np.stack([-inv * np.sin(s1) * np.sin(s2), np.zeros(grid2.shape)])
    assert np.max(np.abs(out.components - expected)) <= 1e-13


def test_convective_product_steady_transported_by_oscillation(grid2):
    s1 = _unit_phase(grid2, 0)
    s2 = _unit_phase(grid2, 1)
    inv = 1.0 / grid2.half_period
    period = 3.0
    a = SpatialField(grid2, np.stack([np.zeros(grid2.shape), np.sin(s1)]))
    mode1 = np.stack([0.5 * np.cos(s2), np.zeros(grid2.shape)]).astype(complex)
    b = TimePeriodicField.from_modes(
        grid2, period, [np.zeros((2,) + grid2.shape, complex), mode1]
    )
    out = convective_product(a, b)
    assert out.max_mode == 1
    expected_mode1 = np.stack(
        [-0.5 * inv * np.sin(s1) * np.sin(s2), np.zeros(grid2.shape)]
    )
    assert np.max(np.abs(out.mode(0))) <= 1e-13
    assert np.max(np.abs(out.mode(1) - expected_mode1)) <= 1e-13


def test_convective_product_oscillation_transporting_steady(grid2):
    s2 = _unit_phase(grid2, 1)
    inv = 1.0 / grid2.half_period
    period = 3.0
    mode1 = np.stack([np.zeros(grid2.shape), 0.5 * np.sin(s2)]).astype(complex)
    a = TimePeriodicField.from_modes(
        grid2, period, [np.zeros((2,) + grid2.shape, complex), mode1]
    )
    b = SpatialField(grid2, np.stack([np.cos(s2), np.zeros(grid2.shape)]))
    out = convective_product(a, b)
    assert out.max_mode == 1
    expected_mode1 = np.stack(
        [-0.5 * inv * np.sin(s2) * np.sin(s2), np.zeros(grid2.shape)]
    )
    assert np.max(np.abs(out.mode(0))) <= 1e-13
    assert np.max(np.abs(out.mode(1) - expected_mode1)) <= 1e-13


def test_convective_product_sums_the_time_bands(grid2):
    s1 = _unit_phase(grid2, 0)
    inv = 1.0 / grid2.half_period
    period = 2.0
    mode_a = np.stack([0.5 * np.sin(s1), np.zeros(grid2.shape)]).astype(complex)
    mode_b = np.stack([0.5 * np.cos(s1), np.zeros(grid2.shape)]).astype(complex)
    a = TimePeriodicField.from_modes(
        grid2, period, [np.zeros((2,) + grid2.shape, complex), mode_a]
    )
    b = TimePeriodicField.from_modes(
        grid2, period, [np.zeros((2,) + grid2.shape, complex), mode_b]
    )
    out = convective_product(a, b)
    assert out.max_mode == 2
    expected_mean = np.stack(
        [-0.25 * inv * (1.0 - np.cos(2.0 * s1)), np.zeros(grid2.shape)]
    )
    expected_mode2 = np.stack(
        [-0.125 * inv * (1.0 - np.cos(2.0 * s1)), np.zeros(grid2.shape)]
    )
    assert np.max(np.abs(out.mode(0) - expected_mean)) <= 1e-13
    assert np.max(np.abs(out.mode(1))) <= 1e-13
    assert np.max(np.abs(out.mode(2) - expected_mode2)) <= 1e-13


def test_grid_and_period_mismatches_are_rejected(grid2):
    other = GridSpec(2, np.pi, 16)
    a = trig_vector(grid2, 1, max_mode=2, terms=4)
    b = trig_vector(other, 2, max_mode=2, terms=4)
    with pytest.raises(ValueError, match="different grids"):
        convective_product(a, b)
    a_tp = TimePeriodicField.from_steady(a, 2.0, max_mode=1)
    b_tp = TimePeriodicField.from_steady(trig_vector(grid2, 3), 3.0, max_mode=1)
    with pytest.raises(ValueError, match="different periods"):
        convective_product(a_tp, b_tp)
    lifting_small = _zero_lifting(other)
    with pytest.raises(ValueError, match="different grids"):
        nonlinearity(a, lifting_small)


def test_nonlinearity_input_validation(grid2):
    scalar_tp = TimePeriodicField.from_steady(
        trig_scalar(grid2, 6, max_mode=2, terms=4), 2.0, max_mode=1
    )
    for scalar in (scalar_tp, trig_scalar(grid2, 6)):
        with pytest.raises(ValueError, match="vector-valued"):
            nonlinearity(scalar, None)
    with pytest.raises(TypeError, match="cannot evaluate the nonlinearity"):
        nonlinearity(trig_vector(grid2, 6).components, None)


def test_convective_product_refuses_an_operand_that_is_not_vector_valued(grid2):
    # numpy broadcasting accepts a one-component stack against a vector one,
    # so only the operand check stops a wrong 2-component product.
    vector = trig_vector(grid2, 1, max_mode=2, terms=4)
    vector_tp = TimePeriodicField.from_steady(vector, 2.0, max_mode=1)
    scalar = trig_scalar(grid2, 6, max_mode=2, terms=4)
    scalar_tp = TimePeriodicField.from_steady(scalar, 2.0, max_mode=1)
    for a, b, name in [
        (vector_tp, scalar_tp, "b"), (vector, scalar_tp, "b"),
        (scalar_tp, vector_tp, "a"), (scalar, vector, "a"),
    ]:
        message = f"convective_product operand {name} must be vector-valued"
        with pytest.raises(ValueError, match=message):
            convective_product(a, b)


# ---------------------------------------------------------------------------
# bit-for-bit equivalence with the straightforward reference
#
# The helpers below are the straightforward evaluation the kernels replace:
# u is transformed separately for its truncated samples and for its gradient,
# and a steady operand of convective_product is broadcast to every time
# instant and transformed once per instant.  The package kernels share those
# transforms but keep every floating-point operation and its order, so the
# outputs must be equal, not merely close.


def _ref_truncate(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    return _ifftn(_fftn(values, grid.dim) * grid.dealias_mask, grid.dim).real


def _ref_gradient(grid: GridSpec, values: np.ndarray, k: int) -> np.ndarray:
    spectrum = _fftn(values, grid.dim) * grid.dealias_mask
    return _ifftn(spectrum * (1j * grid.wavenumber(k)), grid.dim).real


def _ref_convective(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a_t = _ref_truncate(grid, a)
    acc = np.zeros(a.shape)
    for k in range(grid.dim):
        acc = acc + a_t[k] * _ref_gradient(grid, b, k)
    return _ref_truncate(grid, acc)


def _ref_quadratic_samples(grid, a, lifting):
    """((a + V) . grad)(a + V), truncated once."""
    a_t = _ref_truncate(grid, a) + lifting.velocity.components
    acc = np.zeros(a.shape)
    for k in range(grid.dim):
        da = _ref_gradient(grid, a, k) + lifting.jacobian[:, k]
        acc = acc + a_t[k] * da
    return _ref_truncate(grid, acc)


def _ref_nonlinearity(u, lifting):
    grid = u.grid
    linear = lifting.laplacian - lifting.lambda_used * lifting.jacobian[:, 0]
    if isinstance(u, SpatialField):
        return -_ref_quadratic_samples(grid, u.components, lifting) + linear
    # The whole time spectrum of a separate product array, cut to modes 0..K,
    # scaled by 1/nt and snapped to a real mode 0 before it is negated.
    num_samples = 4 * u.max_mode + 1
    samples = u.sample_times(num_samples)
    conv = np.empty_like(samples)
    for j in range(num_samples):
        conv[j] = _ref_quadratic_samples(grid, samples[j], lifting)
    quad = np.fft.fft(conv, axis=0)[: u.max_mode + 1] / num_samples
    quad[0] = quad[0].real
    modes = {k: -quad[k] for k in range(u.max_mode + 1)}
    modes.update({-k: np.conj(modes[k]) for k in range(1, u.max_mode + 1)})
    modes[0] = (modes[0] + linear).real
    return modes


def _ref_convective_product(a, b):
    grid = a.grid
    a_tp = isinstance(a, TimePeriodicField)
    b_tp = isinstance(b, TimePeriodicField)
    if not a_tp and not b_tp:
        return _ref_convective(grid, a.components, b.components)
    k_out = (a.max_mode if a_tp else 0) + (b.max_mode if b_tp else 0)
    num_samples = 2 * k_out + 1
    shape = (num_samples, grid.dim) + grid.shape
    period = a.period if a_tp else b.period
    a_samples = (
        a.sample_times(num_samples) if a_tp else np.broadcast_to(a.components, shape)
    )
    b_samples = (
        b.sample_times(num_samples) if b_tp else np.broadcast_to(b.components, shape)
    )
    out = np.empty(shape)
    for j in range(num_samples):
        out[j] = _ref_convective(grid, a_samples[j], b_samples[j])
    return TimePeriodicField.from_time_samples(grid, period, out, k_out).modes


def _nonzero_lifting(grid: GridSpec):
    return build_lifting(0.3, default_cutoff(grid), grid)


def _no_lifting(grid: GridSpec):
    return None


# No lifting takes the kernel's short path, which adds no V; the reference
# adds the zero lifting.
_GRIDS_AND_LIFTINGS = pytest.mark.parametrize(
    "fixture_name, make_lifting",
    [
        ("grid2", _nonzero_lifting),
        ("grid3", _nonzero_lifting),
        ("grid2", _no_lifting),
        ("grid3", _no_lifting),
    ],
    ids=["grid2", "grid3", "grid2-zero-lifting", "grid3-zero-lifting"],
)


@_GRIDS_AND_LIFTINGS
def test_steady_nonlinearity_is_bitwise_the_reference(
    request, fixture_name, make_lifting
):
    grid = request.getfixturevalue(fixture_name)
    lifting = make_lifting(grid)
    u = trig_vector(grid, 41, max_mode=3, terms=8)
    expected = _ref_nonlinearity(u, lifting or _zero_lifting(grid))
    assert np.array_equal(nonlinearity(u, lifting).components, expected)


@_GRIDS_AND_LIFTINGS
def test_time_periodic_nonlinearity_is_bitwise_the_reference(
    request, fixture_name, make_lifting
):
    grid = request.getfixturevalue(fixture_name)
    lifting = make_lifting(grid)
    for max_mode in (0, 1, 2, 3):
        u = _oscillating_velocity(grid, 2.5, 43, max_mode=max_mode)
        out = nonlinearity(u, lifting)
        reference = _ref_nonlinearity(u, lifting or _zero_lifting(grid))
        for k, expected in reference.items():
            assert np.array_equal(out.mode(k), expected)


@pytest.mark.parametrize("fixture_name", ["grid2", "grid3"])
def test_no_lifting_is_bitwise_the_zero_lifting(request, fixture_name):
    grid = request.getfixturevalue(fixture_name)
    zero = _zero_lifting(grid)
    steady = trig_vector(grid, 45, max_mode=3, terms=8)
    stack = _oscillating_velocity(grid, 2.5, 47, max_mode=2)
    assert np.array_equal(
        nonlinearity(steady, None).components, nonlinearity(steady, zero).components
    )
    assert np.array_equal(
        nonlinearity(stack, None).modes, nonlinearity(stack, zero).modes
    )


@pytest.mark.parametrize("fixture_name", ["grid2", "grid3"])
def test_convective_product_matches_the_complex_reference(request, fixture_name):
    # The product runs on real FFTs, so it differs from the complex-FFT
    # reference by roundoff only, not bit for bit.
    grid = request.getfixturevalue(fixture_name)
    a = trig_vector(grid, 51, max_mode=3, terms=8)
    b = trig_vector(grid, 52, max_mode=3, terms=8)
    a_tp = _oscillating_velocity(grid, 2.0, 53, max_mode=1)
    b_tp = _oscillating_velocity(grid, 2.0, 54, max_mode=2)

    def assert_close(out, ref):
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))

    assert_close(convective_product(a, b).components, _ref_convective_product(a, b))
    for left, right in ((a, b_tp), (a_tp, b), (a_tp, b_tp)):
        out = convective_product(left, right)
        assert_close(out.modes, _ref_convective_product(left, right))


# ---------------------------------------------------------------------------
# transform counts


def _single_component_transforms(transform_log, grid, lifting) -> list[int]:
    """Transforms of two steady nonlinearity calls, in single-component units."""
    u = trig_vector(grid, 61, max_mode=3, terms=8)
    counts = []
    for _ in range(2):
        transform_log.clear()
        nonlinearity(u, lifting)
        counts.append(sum(x.size for _, x in transform_log) // np.prod(grid.shape))
    return counts


def test_steady_nonlinearity_with_a_lifting_makes_21_transforms(
    grid3, transform_log
):
    # V enters the samples and gradients of u, not the transforms.
    counts = _single_component_transforms(
        transform_log, grid3, _nonzero_lifting(grid3)
    )
    assert counts == [21, 21]


def test_steady_nonlinearity_with_zero_lifting_makes_21_transforms(
    grid3, transform_log
):
    # u: one forward, one inverse, three gradient inverses (3 + 3 + 9), and
    # the truncation of the product (3 + 3).
    counts = _single_component_transforms(transform_log, grid3, None)
    assert counts == [21, 21]


def test_convective_product_uses_real_transforms_only(grid3, transform_log):
    a = trig_vector(grid3, 64, max_mode=3, terms=8)
    b_tp = _oscillating_velocity(grid3, 2.0, 65, max_mode=1)
    for left, right in ((a, a), (a, b_tp), (b_tp, a), (b_tp, b_tp)):
        transform_log.clear()
        convective_product(left, right)
        names = {name for name, _ in transform_log}
        assert "rfftn" in names and "irfftn" in names
        assert not names & {"fftn", "ifftn"}


def test_steady_operand_is_transformed_once_over_both_products(grid3, transform_log):
    # The steady operand keeps its spectrum: the second product, with more
    # time instants, transforms it no more.
    a = trig_vector(grid3, 62, max_mode=3, terms=8)
    forward = {"fftn", "rfftn", "fft", "rfft"}
    counts = {}
    for k_out in (1, 3):
        b = _oscillating_velocity(grid3, 2.0, 63, max_mode=k_out)
        transform_log.clear()
        convective_product(a, b)
        counts[k_out] = sum(
            1
            for name, x in transform_log
            if name in forward
            and x.shape == a.components.shape
            and np.array_equal(x, a.components)
        )
    assert (counts[1], counts[3]) == (1, 0)
