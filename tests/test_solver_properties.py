"""Property tests of the linear solvers over random grids, drifts and data.

The Leray projection is a projection onto divergence-free fields, and the
steady problem is the k = 0 block of the time-periodic one: the steady solve,
the single-frequency solve at k = 0 and a K = 0 time-periodic solve agree.
Applying the drift operator to a steady or time-periodic solution gives back
band-limited forcing, mean-free at k = 0, and the dealiased convective
product of band-limited fields keeps its Fourier coefficients when the grid
is refined.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oseenlab.fields import (
    GridSpec,
    TimePeriodicField,
    VectorField,
    _fftn,
    divergence,
    gradient,
)
from oseenlab.harness import (
    _mode_list,
    random_divergence_free,
    random_scalar_field,
    random_timeperiodic_forcing,
)
from oseenlab.nonlinear import convective_product
from oseenlab.oseen import (
    OseenParams,
    apply_oseen,
    leray_project,
    solve_mode,
    solve_steady,
    solve_timeperiodic,
)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=20, deadline=None)


@st.composite
def vector_fields(draw):
    """A random (not band-limited) vector field on a grid of at most 16^2 or 8^3."""
    dim = draw(st.sampled_from((2, 3)))
    points = draw(st.sampled_from((8, 16) if dim == 2 else (4, 8)))
    grid = GridSpec(dim, draw(st.sampled_from((0.5, 1.0, np.pi))), points)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return VectorField(grid, rng.standard_normal((dim,) + grid.shape))


@PROPERTY_SETTINGS
@given(vector_fields())
def test_leray_projection_is_idempotent_and_divergence_free(field):
    once = leray_project(field)
    twice = leray_project(once)
    scale = np.max(np.abs(field.components))
    assert np.max(np.abs(twice.components - once.components)) <= 1e-13 * scale
    assert np.max(np.abs(divergence(once).values)) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(
    vector_fields(),
    st.floats(0.0, 16.0, allow_nan=False),
    st.floats(0.1, 10.0, allow_nan=False),
)
def test_steady_solve_is_the_k0_block(f, lam, period):
    grid = f.grid
    params = OseenParams(lam)
    pair = solve_steady(f, params)
    u_mode, p_mode = solve_mode(grid, f.components, 0.0, params)
    velocity, pressure = solve_timeperiodic(
        TimePeriodicField.from_steady(f, period), params
    )
    scale = np.max(np.abs(pair.velocity.components)) + np.max(
        np.abs(pair.pressure.values)
    )
    for u, p in ((u_mode, p_mode), (velocity.modes[0], pressure.modes[0])):
        assert np.max(np.abs(u - pair.velocity.components)) <= 1e-12 * scale
        assert np.max(np.abs(p[0] - pair.pressure.values)) <= 1e-12 * scale


@st.composite
def band_limited_draws(draw):
    """A grid of at most 16^3, the mode cube of a cap it resolves and two
    seeds."""
    dim = draw(st.sampled_from((2, 3)))
    half_period = draw(st.sampled_from((1.0, np.pi)))
    grid = GridSpec(dim, half_period, draw(st.sampled_from((8, 16))))
    modes = _mode_list(grid, draw(st.integers(1, grid.dealias_cutoff)), None, None)
    return grid, modes, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(band_limited_draws(), st.floats(0.0, 16.0, allow_nan=False))
def test_operator_of_the_steady_solution_gives_back_the_forcing(draws, lam):
    grid, modes, seed_u, seed_p = draws
    f = random_divergence_free(grid, [seed_u], modes=modes) + gradient(
        random_scalar_field(grid, [seed_p], modes=modes)
    )
    pair = solve_steady(f, OseenParams(lam))
    back = apply_oseen(pair, OseenParams(lam))
    scale = np.max(np.abs(f.components))
    assert np.max(np.abs(back.components - f.components)) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(
    band_limited_draws(),
    st.integers(0, 2),
    st.floats(0.0, 16.0, allow_nan=False),
    st.floats(0.1, 10.0, allow_nan=False),
)
def test_operator_of_the_timeperiodic_solution_gives_back_the_forcing(
    draws, max_mode, lam, period
):
    # The stack counterpart: gradient parts and box means ride along, and
    # only the k = 0 mean, which no periodic solution reaches, is lost.
    grid, draw_modes, seed_u, seed_p = draws
    modes = random_timeperiodic_forcing(
        grid, period, max_mode, [seed_u], modes=draw_modes
    ).modes.copy()
    rng = np.random.default_rng(seed_p)
    for k in range(max_mode + 1):
        g = random_scalar_field(grid, [seed_p, k], modes=draw_modes)
        modes[k] += gradient(g).components * (1.0 if k == 0 else 1.0 - 0.5j)
        mean = rng.standard_normal(grid.dim) + 1j * rng.standard_normal(grid.dim)
        modes[k] += (mean.real if k == 0 else mean).reshape((-1,) + (1,) * grid.dim)
    f = TimePeriodicField(grid, period, modes)
    back = apply_oseen(solve_timeperiodic(f, OseenParams(lam)), OseenParams(lam))
    modes[0] -= modes[0].mean(axis=tuple(range(1, grid.dim + 1)), keepdims=True)
    scale = np.max(np.abs(modes))
    assert np.max(np.abs(back.modes - modes)) <= 1e-12 * scale


def _shared_coefficients(field: VectorField, cutoff: int) -> np.ndarray:
    """Forward-normalized coefficients of the modes |m_i| <= cutoff."""
    n = field.grid.points_per_axis
    index = np.arange(-cutoff, cutoff + 1) % n
    coeff = _fftn(field.components, field.grid.dim)
    return coeff[(slice(None),) + np.ix_(*([index] * field.grid.dim))]


@PROPERTY_SETTINGS
@given(
    st.sampled_from((2, 3)),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_convective_product_is_unchanged_by_grid_refinement(
    dim, cap, seed_a, seed_b
):
    # Factors of band cap have a product of band 2 cap <= 6, which 16 points
    # per axis hold without aliasing; the coarse grid keeps |m| <= 5 of it.
    # Both grids draw on the one mode set built for the coarse grid.
    coarse, fine = (GridSpec(dim, 1.0, n) for n in (16, 24))
    modes = _mode_list(coarse, cap, None, None)
    products = []
    for grid in (coarse, fine):
        a = random_divergence_free(grid, [seed_a], modes=modes)
        b = random_divergence_free(grid, [seed_b], modes=modes)
        products.append(
            _shared_coefficients(convective_product(a, b), coarse.dealias_cutoff)
        )
    scale = np.max(np.abs(products[1]))
    assert np.max(np.abs(products[0] - products[1])) <= 1e-12 * scale
