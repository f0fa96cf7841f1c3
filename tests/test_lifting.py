"""Radial cut-off profile and the drift-flow lifting field."""

from __future__ import annotations

import numpy as np
import pytest

from oseenlab.fields import GridSpec, VectorField, derivative, divergence
from oseenlab.lifting import (
    CutoffSpec,
    build_cutoff,
    build_lifting,
    center_distance,
    default_cutoff,
    lifting_load,
)
from oseenlab.norms import lq_norm, negative_norm_surrogate


# ---------------------------------------------------------------------------
# cut-off profile


def test_cutoff_plateau_and_decay():
    spec = CutoffSpec(1.0, 2.0)
    assert np.all(spec.value(np.array([0.0, 0.5, 1.0])) == 1.0)
    assert np.all(spec.value(np.array([2.0, 3.0, 10.0])) == 0.0)
    mid = spec.value(np.array([1.5]))
    assert 0.0 < mid[0] < 1.0
    assert spec.value(np.array([1.5]))[0] == pytest.approx(0.5)


def test_cutoff_profile_is_monotone():
    spec = CutoffSpec(1.0, 2.0)
    rho = np.linspace(0.0, 3.0, 301)
    values = spec.value(rho)
    assert np.all(np.diff(values) <= 1e-15)


def test_cutoff_derivatives_match_polynomial_oracle():
    # Independent oracle: differentiate the quintic 1 - 10t^3 + 15t^4 - 6t^5
    # as a coefficient array and evaluate with the chain-rule factor 1/w^k.
    spec = CutoffSpec(0.7, 2.1)
    w = spec.width
    coeffs = [1.0, 0.0, 0.0, -10.0, 15.0, -6.0]  # ascending powers of t
    rho = np.linspace(0.7 + 1e-6, 2.1 - 1e-6, 257)
    t = (rho - spec.inner_radius) / w
    poly = np.polynomial.Polynomial(coeffs)
    for order in (1, 2, 3, 4):
        poly = poly.deriv()
        expected = poly(t) / w**order
        produced = spec.derivative(rho, order)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(produced - expected)) <= 1e-6 * scale
        assert np.max(np.abs(produced - expected)) <= 1e-12 * scale


def _former_cutoff(spec, rho, order):
    """Reference copy of the former hand-written profile and its derivatives."""
    w = spec.width
    if order == 0:
        t = np.clip((rho - spec.inner_radius) / w, 0.0, 1.0)
        return 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)
    inside = (rho > spec.inner_radius) & (rho < spec.outer_radius)
    t = np.where(inside, (rho - spec.inner_radius) / w, 0.0)
    raw = {
        1: -30.0 * t * t * (1.0 - t) ** 2 / w,
        2: -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) / w**2,
        3: -60.0 * (1.0 - 6.0 * t + 6.0 * t * t) / w**3,
        4: 360.0 * (1.0 - 2.0 * t) / w**4,
    }[order]
    return np.where(inside, raw, 0.0)


@pytest.mark.parametrize(
    "inner, outer", [(1.0, 2.0), (0.7, 2.1), (0.2 * np.pi, 0.6 * np.pi)]
)
def test_cutoff_matches_the_former_closed_forms(inner, outer):
    # Both radii, the plateaus and the transition zone on one sample line.
    spec = CutoffSpec(inner, outer)
    rho = np.concatenate([np.linspace(0.0, outer + 0.5, 401), [inner, outer]])
    for order in range(5):
        produced = spec.value(rho) if order == 0 else spec.derivative(rho, order)
        reference = _former_cutoff(spec, rho, order)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(produced - reference)) <= 1e-13 * scale
        # Where the former forms were exactly 0 or 1, so is the polynomial.
        exact = (rho <= inner) | (rho >= outer)
        assert np.array_equal(produced[exact], reference[exact])


def test_cutoff_derivatives_vanish_outside_transition():
    spec = CutoffSpec(1.0, 2.0)
    outside = np.array([0.0, 0.5, 1.0, 2.0, 2.5])
    for order in (1, 2, 3, 4):
        assert np.all(spec.derivative(outside, order) == 0.0)
    with pytest.raises(ValueError, match="order"):
        spec.derivative(np.array([1.5]), 5)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        CutoffSpec(2.0, 1.0)
    with pytest.raises(ValueError):
        CutoffSpec(-1.0, 2.0)


def test_cutoff_field_support_check():
    grid = GridSpec(2, 1.0, 32)
    with pytest.raises(ValueError, match="boundary"):
        build_cutoff(CutoffSpec(0.5, 1.2 * np.pi), grid)


def test_cutoff_field_center_and_mirror_symmetry():
    grid = GridSpec(2, np.pi, 64)
    spec = default_cutoff(grid)
    half_width = np.pi * grid.half_period
    assert spec.inner_radius == pytest.approx(0.2 * half_width)
    assert spec.outer_radius == pytest.approx(0.6 * half_width)
    field = build_cutoff(spec, grid)
    n = grid.points_per_axis
    assert field.values[n // 2, n // 2] == 1.0
    assert field.values[0, 0] == 0.0  # the corner is outside the support
    for axis in (0, 1):
        # grid point j mirrors to N - j about the center; the profile is
        # radial, so the values agree up to round-off in the radii
        mirrored = np.roll(np.flip(field.values, axis=axis), 1, axis=axis)
        assert np.allclose(mirrored, field.values, atol=1e-12)


def test_fft_derivative_consistent_at_expected_truncation_order():
    # The profile is C^2 but not C^3 at the transition edges, so the FFT
    # second derivative converges at a finite algebraic rate; agreement with
    # the closed form must be modest at N = 128 and improve under doubling.
    errors = {}
    for n in (128, 256):
        grid = GridSpec(2, np.pi, n)
        spec = default_cutoff(grid)
        field = build_cutoff(spec, grid)
        fft_d2 = derivative(derivative(field, 1), 1).values
        center = grid.center
        x = [np.broadcast_to(c - center[a], grid.shape) for a, c in enumerate(grid.coordinates())]
        rho = np.sqrt(x[0] ** 2 + x[1] ** 2)
        safe = np.where(rho > 0, rho, 1.0)
        d1 = spec.derivative(rho, 1)
        d2 = spec.derivative(rho, 2)
        analytic = d2 * (x[0] / safe) ** 2 + d1 * (1.0 / safe - x[0] ** 2 / safe**3)
        analytic = np.where(rho > 0, analytic, 0.0)
        scale = np.sqrt(np.mean(analytic**2))
        errors[n] = np.sqrt(np.mean((fft_d2 - analytic) ** 2)) / scale
    assert errors[128] <= 2e-2
    assert 2.0 <= errors[128] / errors[256] <= 8.0


# ---------------------------------------------------------------------------
# lifting field


def test_lifting_is_linear_in_drift():
    grid = GridSpec(2, np.pi, 32)
    spec = default_cutoff(grid)
    base = build_lifting(1.0, spec, grid)
    scaled = build_lifting(2.5, spec, grid)
    assert np.allclose(
        scaled.velocity.components, 2.5 * base.velocity.components, atol=1e-15
    )
    assert np.allclose(scaled.jacobian, 2.5 * base.jacobian, atol=1e-15)
    assert np.allclose(scaled.laplacian, 2.5 * base.laplacian, atol=1e-15)
    zero = build_lifting(0.0, spec, grid)
    assert np.max(np.abs(zero.velocity.components)) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        build_lifting(-1.0, spec, grid)


def test_lifting_equals_uniform_drift_inside_core():
    for dim, n in ((2, 64), (3, 32)):
        grid = GridSpec(dim, np.pi, n)
        spec = default_cutoff(grid)
        lam = 0.7
        lift = build_lifting(lam, spec, grid)
        center = grid.center
        x = [
            np.broadcast_to(c - center[a], grid.shape)
            for a, c in enumerate(grid.coordinates())
        ]
        rho = np.sqrt(sum(xx**2 for xx in x))
        core = rho <= spec.inner_radius - 1e-9
        assert np.sum(core) > 0
        assert np.max(np.abs(lift.velocity.components[0][core] + lam)) <= 1e-10
        for comp in range(1, dim):
            assert np.max(np.abs(lift.velocity.components[comp][core])) <= 1e-10


def test_lifting_vanishes_outside_support():
    grid = GridSpec(2, np.pi, 64)
    spec = default_cutoff(grid)
    lift = build_lifting(1.0, spec, grid)
    center = grid.center
    x = [
        np.broadcast_to(c - center[a], grid.shape)
        for a, c in enumerate(grid.coordinates())
    ]
    rho = np.sqrt(sum(xx**2 for xx in x))
    outside = rho >= spec.outer_radius + 1e-9
    assert np.sum(outside) > 0
    for comp in range(2):
        assert np.max(np.abs(lift.velocity.components[comp][outside])) == 0.0


def test_lifting_divergence_is_exactly_zero():
    for dim, n in ((2, 64), (3, 24)):
        grid = GridSpec(dim, np.pi, n)
        lift = build_lifting(1.3, default_cutoff(grid), grid)
        scale = np.max(np.abs(lift.jacobian)) + 1.0
        assert np.max(np.abs(lift.divergence_values())) <= 1e-12 * scale


def test_lifting_jacobian_matches_finite_differences():
    # Independent check of the closed-form derivative arrays: second-order
    # central differences, evaluated away from the transition joins where
    # the profile is smooth, reproduce both the jacobian and the laplacian.
    grid = GridSpec(2, np.pi, 512)
    spec = default_cutoff(grid)
    lift = build_lifting(1.0, spec, grid)
    v = lift.velocity.components
    h = grid.spacing
    center = grid.center
    x = np.meshgrid(*grid.coordinates(), indexing="ij")
    rho = np.sqrt((x[0] - center[0]) ** 2 + (x[1] - center[1]) ** 2)
    smooth = (rho > spec.inner_radius + 3 * h) & (rho < spec.outer_radius - 3 * h)
    assert np.sum(smooth) > 1000
    jac_scale = np.max(np.abs(lift.jacobian))
    for i in range(2):
        for k in range(2):
            fd = (np.roll(v[i], -1, axis=k) - np.roll(v[i], 1, axis=k)) / (2 * h)
            err = np.max(np.abs(fd[smooth] - lift.jacobian[i, k][smooth]))
            assert err <= 2e-3 * jac_scale
    lap_scale = np.max(np.abs(lift.laplacian))
    for i in range(2):
        fd_lap = sum(
            (np.roll(v[i], -1, axis=k) - 2.0 * v[i] + np.roll(v[i], 1, axis=k))
            / h**2
            for k in range(2)
        )
        err = np.max(np.abs(fd_lap[smooth] - lift.laplacian[i][smooth]))
        assert err <= 2e-3 * lap_scale


def test_fft_derivatives_of_lifting_converge_at_kink_rate():
    # The velocity's first derivatives jump at the transition joins (the
    # profile is C^2 with a third-derivative jump and the velocity carries
    # two profile derivatives), so FFT differentiation of the samples
    # converges to the exact arrays only at the slow L^2 rate ~ N^{-1/2}.
    measured = {}
    for n in (128, 256):
        grid = GridSpec(2, np.pi, n)
        lift = build_lifting(1.0, default_cutoff(grid), grid)
        jac_scale = np.sqrt(np.mean(lift.jacobian**2))
        err_sq = 0.0
        for i in range(2):
            for k in range(2):
                fftv = derivative(lift.velocity.component(i), k + 1).values
                err_sq += np.mean((fftv - lift.jacobian[i, k]) ** 2)
        rel_jac = np.sqrt(err_sq / 4.0) / jac_scale
        div_fft = divergence(lift.velocity).values
        rel_div = np.sqrt(np.mean(div_fft**2)) / jac_scale
        measured[n] = (rel_jac, rel_div)
    assert measured[128][0] <= 0.35
    assert measured[128][1] <= 0.2
    for piece in (0, 1):
        ratio = measured[128][piece] / measured[256][piece]
        assert 1.2 <= ratio <= 2.0


# ---------------------------------------------------------------------------
# lifting load


def test_load_scaling_under_drift_doubling():
    # With V linear in the drift, the momentum load -Delta V + lam d1 V
    # under lam -> 2 lam grows by a factor in [2, 2(1+2 lam)/(1+lam)]: the
    # Laplacian part doubles exactly and the transport part quadruples.
    grid = GridSpec(2, np.pi, 64)
    spec = default_cutoff(grid)
    for lam in (0.01, 0.02, 0.05):
        lifts = {s: build_lifting(s * lam, spec, grid) for s in (1, 2)}
        lo_lq, lo_neg = lifting_load(lifts[1], 2.0, 2.0)
        hi_lq, hi_neg = lifting_load(lifts[2], 2.0, 2.0)
        upper = 2.0 * (1.0 + 2.0 * lam) / (1.0 + lam)
        for lo, hi in ((lo_lq, hi_lq), (lo_neg, hi_neg)):
            ratio = hi / lo
            assert 2.0 * (1.0 - 1e-9) <= ratio <= upper * (1.0 + 1e-9)


def test_load_magnitude_tracks_drift_times_one_plus_drift():
    # Over small drifts the combined load behaves like lam * (1 + lam) times
    # a fixed geometric constant: the coefficient of variation of the
    # normalized values over two drift decades stays below 5%.
    grid = GridSpec(2, np.pi, 32)
    spec = default_cutoff(grid)
    lambdas = np.exp(np.linspace(np.log(1e-3), np.log(1e-1), 7))
    normalized = []
    for lam in lambdas:
        load_lq, load_neg = lifting_load(build_lifting(lam, spec, grid), 2.0, 2.0)
        normalized.append((load_lq + load_neg) / (lam * (1.0 + lam)))
    normalized = np.array(normalized)
    assert np.std(normalized) / np.mean(normalized) <= 0.05


def test_load_is_taken_at_the_lifting_drift():
    grid = GridSpec(2, np.pi, 32)
    lift = build_lifting(1.3, default_cutoff(grid), grid)
    load = VectorField(grid, -lift.laplacian + 1.3 * lift.jacobian[:, 0])
    assert lifting_load(lift, 4.0, 2.0) == (
        lq_norm(load, 4.0),
        negative_norm_surrogate(load, 2.0),
    )


# ---------------------------------------------------------------------------
# the rule-built lifting against the hand-derived closed forms it replaced


def _closed_form_lifting(lam, spec, grid):
    """Reference copy of the former kernel: V, jacobian and laplacian from
    hand-derived radial combinations of the profile derivatives."""
    dim = grid.dim
    sparse = [x - c for x, c in zip(grid.coordinates(), grid.center)]
    centered = [np.broadcast_to(x, grid.shape) for x in sparse]
    rho = center_distance(grid)
    safe = np.where(rho > 0, rho, 1.0)
    unit = [x / safe for x in centered]
    y = centered[1]
    y2 = y * y

    phi = spec.value(rho)
    d1 = spec.derivative(rho, 1)
    d2 = spec.derivative(rho, 2)
    d3 = spec.derivative(rho, 3)
    d4 = spec.derivative(rho, 4)

    # Radial combinations; all vanish outside the transition zone because
    # the profile derivatives do.
    c = d1 / safe
    b = d2 - c
    c_p = d2 / safe - d1 / safe**2
    b_p = d3 - c_p
    a = d2 + (dim + 3) * c
    a_p = d3 + (dim + 3) * c_p
    c_pp = d3 / safe - 2.0 * d2 / safe**2 + 2.0 * d1 / safe**3
    a_pp = d4 + (dim + 3) * c_pp
    b_pp = d4 - c_pp
    h = b / safe**2
    h_p = b_p / safe**2 - 2.0 * b / safe**3
    h_pp = b_pp / safe**2 - 4.0 * b_p / safe**3 + 6.0 * b / safe**4

    lap_g = a * y2 + 2.0 * phi
    half_lam = 0.5 * lam

    velocity = np.zeros((dim,) + grid.shape)
    jacobian = np.zeros((dim, dim) + grid.shape)
    laplacian = np.zeros((dim,) + grid.shape)

    grad_lap_g = [a_p * unit[k] * y2 + 2.0 * d1 * unit[k] for k in range(dim)]
    grad_lap_g[1] = grad_lap_g[1] + 2.0 * a * y

    lap_lap_g = (
        (a_pp + (dim + 3) * a_p / safe) * y2
        + 2.0 * a
        + 2.0 * d2
        + 2.0 * (dim - 1) * c
    )
    radial_c2 = c_pp + (dim + 3) * c_p / safe

    for i in range(dim):
        hess_i1 = b * unit[i] * unit[0] * y2
        if i == 0:
            hess_i1 = hess_i1 + c * y2
        if i == 1:
            hess_i1 = hess_i1 + 2.0 * d1 * unit[0] * y
        velocity[i] = half_lam * (-(lap_g if i == 0 else 0.0) + hess_i1)

        lap_hess = h_pp + (dim + 7) * h_p / safe
        lap_hess = lap_hess * centered[i] * centered[0] * y2
        lap_hess = lap_hess + h * 2.0 * centered[i] * centered[0]
        if i == 0:
            lap_hess = lap_hess + h * 2.0 * y2 + radial_c2 * y2 + 2.0 * c
        if i == 1:
            lap_hess = lap_hess + h * 4.0 * centered[0] * y
            lap_hess = lap_hess + 2.0 * radial_c2 * centered[0] * y
        laplacian[i] = half_lam * (-(lap_lap_g if i == 0 else 0.0) + lap_hess)

        for k in range(dim):
            grad_hess = b_p * unit[k] * unit[i] * unit[0] * y2
            grad_hess = grad_hess + (b / safe) * (
                ((1.0 if k == i else 0.0) - unit[k] * unit[i]) * unit[0]
                + unit[i] * ((1.0 if k == 0 else 0.0) - unit[k] * unit[0])
            ) * y2
            if k == 1:
                grad_hess = grad_hess + 2.0 * b * unit[i] * unit[0] * y
            if i == 0:
                grad_hess = grad_hess + c_p * unit[k] * y2
                if k == 1:
                    grad_hess = grad_hess + 2.0 * c * y
            if i == 1:
                grad_hess = grad_hess + 2.0 * d2 * unit[k] * unit[0] * y
                if k == 1:
                    grad_hess = grad_hess + 2.0 * d1 * unit[0]
                grad_hess = grad_hess + 2.0 * d1 * y * (
                    (1.0 if k == 0 else 0.0) - unit[k] * unit[0]
                ) / safe
            jacobian[i, k] = half_lam * (
                -(grad_lap_g[k] if i == 0 else 0.0) + grad_hess
            )

    return velocity, jacobian, laplacian


@pytest.mark.parametrize("dim, n", [(2, 64), (3, 24), (3, 32)])
@pytest.mark.parametrize("lam", [0.7, 1.3])
def test_rule_built_lifting_matches_the_closed_forms(dim, n, lam):
    grid = GridSpec(dim, np.pi, n)
    spec = default_cutoff(grid)
    lifting = build_lifting(lam, spec, grid)
    produced = (lifting.velocity.components, lifting.jacobian, lifting.laplacian)
    for new, old in zip(produced, _closed_form_lifting(lam, spec, grid)):
        scale = np.max(np.abs(old))
        assert scale > 0.0
        assert np.max(np.abs(new - old)) <= 1e-13 * scale


@pytest.mark.parametrize("dim, n", [(2, 64), (3, 24)])
def test_zero_drift_lifting_is_exactly_zero(dim, n):
    grid = GridSpec(dim, np.pi, n)
    lifting = build_lifting(0.0, default_cutoff(grid), grid)
    for values in (lifting.velocity.components, lifting.jacobian, lifting.laplacian):
        assert np.all(values == 0)
