"""Norm and seminorm evaluation: exact values, scaling laws, consistency."""

from __future__ import annotations

import numpy as np
import pytest

from oseenlab.fields import (
    GridSpec,
    ScalarField,
    TimePeriodicField,
    VectorField,
    _fftn,
    _ifftn,
    derivative,
    gradient,
)
from oseenlab.norms import (
    _lq_of_array,
    _maxreg_norm,
    _negative_norm_by_transforms,
    lambda_norm,
    lambda_norm_from_pieces,
    lambda_norm_pieces,
    lq_norm,
    maxreg_norm,
    negative_norm_surrogate,
    sobolev_full_norm,
    sobolev_seminorm,
    spacetime_l2_plancherel,
)
from oseenlab.exponents import s_exponent

from conftest import trig_scalar, trig_values, trig_vector


def _sine_field(grid: GridSpec) -> ScalarField:
    x = grid.coordinates()[0]
    return ScalarField(grid, np.sin(x / grid.half_period) * np.ones(grid.shape))


# ---------------------------------------------------------------------------
# Lebesgue norms


def test_constant_field_norm(grid2):
    value = -2.5
    field = ScalarField(grid2, np.full(grid2.shape, value))
    for q in (2.0, 3.0, 5.5):
        assert lq_norm(field, q) == pytest.approx(
            abs(value) * grid2.volume ** (1.0 / q), rel=1e-13
        )


def test_sine_l2_norm():
    grid = GridSpec(2, 2.0, 32)
    field = _sine_field(grid)
    assert lq_norm(field, 2.0) == pytest.approx(
        np.sqrt(grid.volume / 2.0), rel=1e-13
    )


def test_vector_norm_uses_euclidean_magnitude(grid2):
    ones = np.ones(grid2.shape)
    field = VectorField(grid2, np.stack([3.0 * ones, 4.0 * ones]))
    assert lq_norm(field, 3.0) == pytest.approx(
        5.0 * grid2.volume ** (1.0 / 3.0), rel=1e-13
    )


def test_quadrature_agrees_under_refinement():
    # A smooth non-band-limited integrand evaluated on two grids, one 4x
    # finer: trapezoidal-on-torus quadrature converges super-algebraically,
    # so the two values must agree far below any tolerance used in checks.
    for dim, n_lo, n_hi in ((2, 48, 192), (3, 32, 128)):
        for q in (2.5, 3.5):
            values = {}
            for n in (n_lo, n_hi):
                grid = GridSpec(dim, np.pi, n)
                field = ScalarField(
                    grid, np.exp(0.3 * trig_values(grid, 77, max_mode=2, terms=10))
                )
                values[n] = lq_norm(field, q)
            rel = abs(values[n_hi] - values[n_lo]) / values[n_hi]
            assert rel <= 1e-10


def test_norm_homogeneity(grid2):
    field = trig_vector(grid2, 7)
    for q in (2.0, 4.0):
        base = lq_norm(field, q)
        assert lq_norm(field * 3.5, q) == pytest.approx(3.5 * base, rel=1e-13)


def test_hoelder_embedding_between_exponents(grid2):
    field = trig_scalar(grid2, 8)
    lo, hi = 2.0, 6.0
    bound = grid2.volume ** (1.0 / lo - 1.0 / hi) * lq_norm(field, hi)
    assert lq_norm(field, lo) <= bound * (1.0 + 1e-12)


def test_exponent_validation(grid2):
    field = trig_scalar(grid2, 9)
    with pytest.raises(ValueError):
        lq_norm(field, 1.0)
    with pytest.raises(ValueError):
        lq_norm(field, 0.5)


@pytest.mark.parametrize("exponent", [np.inf, -np.inf, np.nan])
def test_non_finite_exponents_are_rejected_by_name(grid2, exponent):
    # q = inf used to pass and give mean(|v|^inf)^(1/inf), that is 0.0 or
    # 1.0, instead of a norm.
    field = trig_vector(grid2, 9)
    stack = TimePeriodicField.from_steady(field, 1.0, max_mode=1)
    evaluations = {
        "q": (
            lambda q: lq_norm(field, q),
            lambda q: sobolev_seminorm(field, 1, q),
            lambda q: sobolev_full_norm(field, 2, q),
            lambda q: lambda_norm(field, 1.0, q, 2.0),
            lambda q: maxreg_norm(stack, q),
        ),
        "r": (lambda r: negative_norm_surrogate(field, r),),
    }
    for name, calls in evaluations.items():
        for evaluate in calls:
            with pytest.raises(
                ValueError, match=f"{name} must be finite and exceed 1, got {exponent}"
            ):
                evaluate(exponent)


# ---------------------------------------------------------------------------
# Sobolev seminorms


def test_seminorm_of_constant_vanishes(grid2):
    field = ScalarField(grid2, np.full(grid2.shape, 4.0))
    assert sobolev_seminorm(field, 1, 3.0) == pytest.approx(0.0, abs=1e-13)
    assert sobolev_seminorm(field, 2, 3.0) == pytest.approx(0.0, abs=1e-13)


def test_second_seminorm_of_sine():
    grid = GridSpec(2, 2.0, 32)
    field = _sine_field(grid)
    scale = 1.0 / grid.half_period**2
    for q in (2.0, 3.0):
        # the only nonvanishing second derivative is along axis 1
        assert sobolev_seminorm(field, 2, q) == pytest.approx(
            scale * lq_norm(field, q), rel=1e-12
        )


def test_first_seminorm_matches_explicit_gradient_blocks(grid2):
    field = trig_scalar(grid2, 10)
    expected = sum(
        lq_norm(derivative(field, axis), 2.0) for axis in (1, 2)
    )
    assert sobolev_seminorm(field, 1, 2.0) == pytest.approx(expected, rel=1e-12)


def test_full_norm_combines_blocks_in_lq_sense():
    grid = GridSpec(2, 1.0, 32)
    field = _sine_field(grid)
    # sin(x1): value, d1, and d11 blocks all have the same L^q profile
    for q in (2.0, 4.0):
        block = lq_norm(field, q)
        assert sobolev_full_norm(field, 2, q) == pytest.approx(
            (3.0 * block**q) ** (1.0 / q), rel=1e-12
        )
    assert sobolev_full_norm(field, 0, 2.0) == pytest.approx(
        lq_norm(field, 2.0), rel=1e-13
    )


def test_seminorm_order_validation(grid2):
    field = trig_scalar(grid2, 11)
    with pytest.raises(ValueError, match="order"):
        sobolev_seminorm(field, 3, 2.0)
    with pytest.raises(ValueError, match="order"):
        sobolev_full_norm(field, -1, 2.0)


# ---------------------------------------------------------------------------
# negative-order surrogate


def test_negative_norm_inverts_laplacian(grid2):
    g = trig_scalar(grid2, 12)
    lap = derivative(derivative(g, 1), 1) + derivative(derivative(g, 2), 2)
    f = -lap
    for r in (2.0, 3.0):
        expected = lq_norm(gradient(g), r)
        assert negative_norm_surrogate(f, r) == pytest.approx(expected, rel=1e-11)


def test_negative_norm_of_single_harmonic():
    grid = GridSpec(2, 2.0, 32)
    scale = grid.half_period
    x = grid.coordinates()[0]
    f = VectorField(
        grid,
        np.stack([np.zeros(grid.shape), np.sin(x / scale) * np.ones(grid.shape)]),
    )
    cos = ScalarField(grid, np.cos(x / scale) * np.ones(grid.shape))
    for r in (2.0, 4.0):
        assert negative_norm_surrogate(f, r) == pytest.approx(
            scale * lq_norm(cos, r), rel=1e-12
        )


def test_negative_norm_r2_matches_plancherel(grid2):
    field = trig_scalar(grid2, 13)
    value = negative_norm_surrogate(field, 2.0)
    # independent spectral evaluation with numpy's FFT
    n = grid2.points_per_axis
    coeff = np.fft.fftn(field.values) / n**2
    m = np.fft.fftfreq(n) * n
    m[np.abs(m) == n // 2] = 0.0
    xi1 = (m / grid2.half_period)[:, None]
    xi2 = (m / grid2.half_period)[None, :]
    ksq = xi1**2 + xi2**2
    mask = ksq > 0
    expected = np.sqrt(grid2.volume * np.sum(np.abs(coeff[mask]) ** 2 / ksq[mask]))
    assert value == pytest.approx(expected, rel=1e-12)


def test_negative_norm_in_place_inverse_matches_a_copying_one(grid3):
    # The transform path inverts its fresh coefficient tensor in place; a
    # transform into a new array must give the same bits.
    field = trig_vector(grid3, 16)
    coeff = _fftn(field.components, grid3.dim)
    riesz = [
        np.where(grid3.active, 1j * grid3.wavenumber(axis) / grid3.safe, 0.0)
        for axis in range(grid3.dim)
    ]
    tensor = np.stack([coeff * multiplier for multiplier in riesz], axis=1)
    samples = _ifftn(tensor.reshape((-1,) + grid3.shape), grid3.dim).real
    for r in (2.0, 3.0):
        expected = _lq_of_array(grid3, samples, r)
        assert _negative_norm_by_transforms(field, r) == expected


def test_negative_norm_ignores_the_box_mean(grid2):
    mean_free = trig_scalar(grid2, 14) - ScalarField(
        grid2, np.full(grid2.shape, float(np.mean(trig_values(grid2, 14))))
    )
    shifted = mean_free + ScalarField(grid2, np.full(grid2.shape, 2.0))
    value_free = negative_norm_surrogate(mean_free, 2.0)
    assert value_free > 0
    assert negative_norm_surrogate(shifted, 2.0) == pytest.approx(value_free, rel=1e-12)


def test_negative_norm_of_derivative_is_bounded_at_r2(grid2):
    u = trig_scalar(grid2, 15)
    bound = lq_norm(u, 2.0)
    assert negative_norm_surrogate(derivative(u, 1), 2.0) <= bound * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# drift-weighted norm


def test_lambda_norm_of_zero(grid3):
    assert lambda_norm(VectorField.zeros(grid3), 1.0, 4.0, 2.0) == 0.0


def test_lambda_norm_composition(grid3):
    v = trig_vector(grid3, 16)
    lam, q, r = 0.7, 4.0, 2.0
    s = s_exponent(3, r)
    assert s == pytest.approx(4.0)
    expected = (
        sobolev_seminorm(v, 2, q)
        + sobolev_seminorm(v, 1, r)
        + lam ** (1.0 / 4.0) * lq_norm(v, s)
    )
    assert lambda_norm(v, lam, q, r) == pytest.approx(expected, rel=1e-13)


def test_lambda_norm_is_exactly_its_pieces(grid3):
    v = trig_vector(grid3, 26)
    q, r = 4.0, 2.0
    smooth, s_norm = lambda_norm_pieces(v, q, r)
    assert smooth == sobolev_seminorm(v, 2, q) + sobolev_seminorm(v, 1, r)
    assert s_norm == lq_norm(v, s_exponent(3, r))
    for lam in (0.0, 0.25, 4.0):
        expected = smooth + lam ** (1.0 / 4.0) * s_norm if lam > 0 else smooth
        assert lambda_norm(v, lam, q, r) == expected
        assert lambda_norm_from_pieces((smooth, s_norm), lam, 3) == expected


def test_lambda_norm_weighted_term_absent_at_zero_drift(grid3):
    v = trig_vector(grid3, 17)
    base = sobolev_seminorm(v, 2, 4.0) + sobolev_seminorm(v, 1, 2.0)
    assert lambda_norm(v, 0.0, 4.0, 2.0) == pytest.approx(base, rel=1e-13)


def test_lambda_norm_monotone_in_drift(grid3):
    v = trig_vector(grid3, 18)
    values = [lambda_norm(v, lam, 4.0, 2.0) for lam in (0.0, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError, match="nonnegative"):
        lambda_norm(v, -1.0, 4.0, 2.0)


# ---------------------------------------------------------------------------
# space-time norms


def test_maxreg_of_time_constant_field(grid2):
    steady = trig_vector(grid2, 19)
    stack = TimePeriodicField.from_steady(steady, period=2.0, max_mode=2)
    for q in (2.0, 3.0):
        assert maxreg_norm(stack, q) == pytest.approx(
            sobolev_full_norm(steady, 2, q), rel=1e-13
        )


def test_maxreg_hand_value_for_oscillating_sine():
    # u(t, x) = cos(omega t) sin(x1) e2 on the 2-pi box at q = 2:
    # the W^{2,2} profile is sqrt(3 Vol / 2) |cos|, the time-derivative
    # profile is omega sqrt(Vol / 2) |sin|; period averages contribute
    # a factor 1/sqrt(2) to each.
    grid = GridSpec(2, 1.0, 32)
    period = 3.0
    omega = 2.0 * np.pi / period
    x = grid.coordinates()[0]
    phi = np.zeros((2,) + grid.shape)
    phi[1] = np.sin(x) * np.ones(grid.shape)
    modes = np.zeros((2, 2) + grid.shape, dtype=np.complex128)
    modes[1] = 0.5 * phi
    stack = TimePeriodicField(grid, period, modes)
    vol = grid.volume
    expected = (np.sqrt(1.5 * vol) + omega * np.sqrt(0.5 * vol)) / np.sqrt(2.0)
    assert maxreg_norm(stack, 2.0) == pytest.approx(expected, rel=1e-12)


def test_maxreg_homogeneity_and_sample_floor(grid2):
    steady = trig_vector(grid2, 20)
    stack = TimePeriodicField.from_steady(steady, period=1.0, max_mode=1)
    base = maxreg_norm(stack, 3.0)
    assert maxreg_norm(stack * 2.0, 3.0) == pytest.approx(2.0 * base, rel=1e-13)
    with pytest.raises(ValueError, match="time samples"):
        _maxreg_norm(stack, 3.0, 2)


def test_maxreg_rejects_zero_time_samples(grid2):
    stack = TimePeriodicField.from_steady(trig_vector(grid2, 27), period=1.0, max_mode=1)
    with pytest.raises(ValueError, match="need at least 3 time samples, got 0"):
        _maxreg_norm(stack, 3.0, 0)


def test_maxreg_refuses_a_spatial_field(grid2):
    with pytest.raises(TypeError, match="must be time-periodic, not VectorField"):
        maxreg_norm(trig_vector(grid2, 28), 2.0)


def test_spacetime_plancherel_matches_quadrature(grid2):
    phi = trig_values(grid2, 21)
    psi = trig_values(grid2, 22)
    modes = np.zeros((2, 1) + grid2.shape, dtype=np.complex128)
    modes[0] = phi
    modes[1] = 0.25 * (psi + 1j * phi)
    stack = TimePeriodicField(grid2, 2.0, modes)
    assert spacetime_l2_plancherel(stack) == pytest.approx(
        lq_norm(stack, 2.0), rel=1e-12
    )
