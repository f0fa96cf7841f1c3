"""The k >= 0 Parseval sums against reference copies of the -K..K loops.

A time-periodic stack stores the modes k = 0..K only.  The residual, the
space-time L^2 norm and the maximal-regularity mode sum add block 0 plus
twice the blocks k = 1..K; the reference copies below are the loops over
k = -K..K that they replaced, each negative block formed as the conjugate of
the stored one.  The folded sums reorder floating-point additions, so they
agree to roundoff, not bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseenlab.fields import GridSpec, TimePeriodicField, VectorField, _fftn
from oseenlab.harness import maxreg_norm_mode_sum
from oseenlab.norms import lq_norm, sobolev_full_norm, spacetime_l2_plancherel
from oseenlab.oseen import OseenParams, residual_timeperiodic

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=20, deadline=None)
RTOL = 1e-12


def _ref_residual_timeperiodic(velocity, pressure, forcing, params):
    grid = velocity.grid
    mom_total = 0.0
    div_total = 0.0
    for k in range(-velocity.max_mode, velocity.max_mode + 1):
        u_coeff = _fftn(velocity.mode(k), grid.dim)
        p_coeff = _fftn(pressure.mode(k), grid.dim)[0]
        f_coeff = _fftn(forcing.mode(k), grid.dim)
        if k == 0:
            zero = (slice(None),) + (0,) * grid.dim
            f_coeff[zero] = 0.0
        omega = velocity.omega(k)
        symbol = grid.ksq + 1j * (params.lam * grid.wavenumber(0) + omega)
        momentum = symbol * u_coeff - f_coeff
        div = np.zeros(grid.shape, dtype=np.complex128)
        for axis in range(grid.dim):
            xi = grid.wavenumber(axis)
            momentum[axis] = momentum[axis] + 1j * xi * p_coeff
            div = div + 1j * xi * u_coeff[axis]
        mom_total += float(np.sum(np.abs(momentum) ** 2))
        div_total += float(np.sum(np.abs(div) ** 2))
    vol = grid.volume
    return float(np.sqrt(mom_total * vol)), float(np.sqrt(div_total * vol))


def _ref_spacetime_l2_plancherel(field):
    total = 0.0
    for k in range(-field.max_mode, field.max_mode + 1):
        mode = field.mode(k)
        total += float(np.mean(np.sum(np.abs(mode) ** 2, axis=0)))
    return float(np.sqrt(total * field.grid.volume))


def _ref_maxreg_norm_mode_sum(field):
    grid = field.grid
    spatial_total = 0.0
    dt_total = 0.0
    for k in range(-field.max_mode, field.max_mode + 1):
        mode = field.mode(k)
        re = VectorField(grid, mode.real)
        im = VectorField(grid, mode.imag)
        spatial_total += (
            sobolev_full_norm(re, 2, 2.0) ** 2 + sobolev_full_norm(im, 2, 2.0) ** 2
        )
        dt_total += field.omega(k) ** 2 * (
            lq_norm(re, 2.0) ** 2 + lq_norm(im, 2.0) ** 2
        )
    return math.sqrt(spatial_total) + math.sqrt(dt_total)


@st.composite
def stack_specs(draw):
    """(grid, period, K, seed) on 16^2 or 8^3 grids, K from 0 to 3."""
    grid = draw(st.sampled_from((GridSpec(2, np.pi, 16), GridSpec(3, 1.0, 8))))
    period = draw(st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False))
    max_mode = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return grid, period, max_mode, seed


def _random_stack(grid, period, max_mode, ncomp, rng):
    shape = (max_mode + 1, ncomp) + grid.shape
    modes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    modes[0] = modes[0].real
    return TimePeriodicField(grid, period, modes)


@PROPERTY_SETTINGS
@given(stack_specs(), st.floats(0.0, 8.0, allow_nan=False))
def test_residual_fold_matches_the_full_loop(spec, lam):
    grid, period, max_mode, seed = spec
    rng = np.random.default_rng(seed)
    velocity, pressure, forcing = (
        _random_stack(grid, period, max_mode, ncomp, rng)
        for ncomp in (grid.dim, 1, grid.dim)
    )
    params = OseenParams(lam)
    folded = residual_timeperiodic(velocity, pressure, forcing, params)
    reference = _ref_residual_timeperiodic(velocity, pressure, forcing, params)
    assert folded == pytest.approx(reference, rel=RTOL)


@PROPERTY_SETTINGS
@given(stack_specs(), st.sampled_from((1, "dim")))
def test_plancherel_fold_matches_the_full_loop(spec, ncomp):
    grid, period, max_mode, seed = spec
    ncomp = grid.dim if ncomp == "dim" else ncomp
    field = _random_stack(grid, period, max_mode, ncomp, np.random.default_rng(seed))
    assert spacetime_l2_plancherel(field) == pytest.approx(
        _ref_spacetime_l2_plancherel(field), rel=RTOL
    )


@PROPERTY_SETTINGS
@given(stack_specs())
def test_maxreg_mode_sum_fold_matches_the_full_loop(spec):
    grid, period, max_mode, seed = spec
    field = _random_stack(grid, period, max_mode, grid.dim, np.random.default_rng(seed))
    assert maxreg_norm_mode_sum(field) == pytest.approx(
        _ref_maxreg_norm_mode_sum(field), rel=RTOL
    )
