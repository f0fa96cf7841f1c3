"""Property tests of the linear solvers over random grids, drifts and data.

The Leray projection is a projection onto divergence-free fields, and the
steady problem is the k = 0 block of the time-periodic one: the steady solve,
the single-frequency solve at k = 0 and a K = 0 time-periodic solve agree.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oseenlab.fields import GridSpec, TimePeriodicField, VectorField, divergence
from oseenlab.oseen import (
    OseenParams,
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
    u_mode, p_mode = solve_mode(grid, f.components, 0, period, params)
    velocity, pressure = solve_timeperiodic(
        TimePeriodicField.from_steady(f, period), params
    )
    scale = np.max(np.abs(pair.velocity.components)) + np.max(
        np.abs(pair.pressure.values)
    )
    for u, p in ((u_mode, p_mode), (velocity.modes[0], pressure.modes[0])):
        assert np.max(np.abs(u - pair.velocity.components)) <= 1e-12 * scale
        assert np.max(np.abs(p[0] - pair.pressure.values)) <= 1e-12 * scale
