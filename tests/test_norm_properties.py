"""Property tests of the norms over random grids, exponents and data.

Every norm is absolutely homogeneous: scaling a field by c scales the norm by
|c|.  At q = 2 the quadrature norms are Plancherel-exact: ``lq_norm`` and
``maxreg_norm`` equal the weighted coefficient sums written out below from
``numpy.fft`` and the grid wavenumbers, with the time modes k >= 1 counted
twice for their conjugates at -k.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseenlab.fields import GridSpec, SpatialField, TimePeriodicField
from oseenlab.norms import (
    lambda_norm,
    lq_norm,
    maxreg_norm,
    negative_norm_surrogate,
    sobolev_full_norm,
    sobolev_seminorm,
    spacetime_l2_plancherel,
)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)
RTOL = 1e-12


@st.composite
def grids(draw):
    """A grid of at most 16^2 or 8^3 points."""
    dim = draw(st.sampled_from((2, 3)))
    points = draw(st.sampled_from((8, 16) if dim == 2 else (4, 8)))
    return GridSpec(dim, draw(st.sampled_from((0.5, 1.0, np.pi))), points)


def _random_stack(grid, rng, max_mode, ncomp):
    """Random (not band-limited) time modes with a real mode 0."""
    shape = (max_mode + 1, ncomp) + grid.shape
    modes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    modes[0] = modes[0].real
    return modes


@st.composite
def spatial_fields(draw):
    grid = draw(grids())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return SpatialField(grid, rng.standard_normal(grid.shape)[None])
    return SpatialField(grid, rng.standard_normal((grid.dim,) + grid.shape))


@st.composite
def timeperiodic_fields(draw):
    grid = draw(grids())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ncomp = draw(st.sampled_from((1, grid.dim)))
    modes = _random_stack(grid, rng, draw(st.integers(0, 3)), ncomp)
    return TimePeriodicField(grid, draw(st.floats(0.5, 10.0)), modes)


exponents = st.floats(1.25, 4.0)
scales = st.floats(0.01, 100.0).flatmap(lambda c: st.sampled_from((c, -c)))


def _spatial_norms(field, q, r):
    norms = {
        "lq_norm": lambda u: lq_norm(u, q),
        "sobolev_full_norm": lambda u: sobolev_full_norm(u, 2, q),
        "negative_norm_surrogate": lambda u: negative_norm_surrogate(u, r),
    }
    for k in (0, 1, 2):
        norms[f"sobolev_seminorm_{k}"] = lambda u, k=k: sobolev_seminorm(u, k, q)
    if isinstance(field, SpatialField) and field.ncomp == field.grid.dim:
        # lambda_norm needs r < n + 1 for its Sobolev exponent s.
        r_wake = min(r, field.grid.dim + 0.5)
        norms["lambda_norm"] = lambda u: lambda_norm(u, 0.7, q, r_wake)
    return norms


@PROPERTY_SETTINGS
@given(spatial_fields(), scales, exponents, exponents)
def test_spatial_norms_are_absolutely_homogeneous(field, c, q, r):
    for name, norm in _spatial_norms(field, q, r).items():
        expected = abs(c) * norm(field)
        assert norm(field * c) == pytest.approx(expected, rel=RTOL), name


@PROPERTY_SETTINGS
@given(timeperiodic_fields(), scales, exponents)
def test_timeperiodic_norms_are_absolutely_homogeneous(field, c, q):
    norms = {
        "lq_norm": lambda u: lq_norm(u, q),
        "maxreg_norm": lambda u: maxreg_norm(u, q),
        "spacetime_l2_plancherel": spacetime_l2_plancherel,
    }
    for name, norm in norms.items():
        expected = abs(c) * norm(field)
        assert norm(field * c) == pytest.approx(expected, rel=RTOL), name


def _coefficients(grid, values):
    """Forward-normalized spatial coefficients of (..., *grid.shape) data."""
    axes = tuple(range(-grid.dim, 0))
    return np.fft.fftn(values, axes=axes) / grid.points_per_axis**grid.dim


def _sobolev_weight(grid):
    """1 + sum_i xi_i^2 + sum_{i <= j} xi_i^2 xi_j^2: the W^{2,2} multiplier
    with each second-order multi-index counted once."""
    xi_sq = [grid.wavenumber(axis) ** 2 for axis in range(grid.dim)]
    weight = 1.0 + sum(xi_sq)
    for i, j in itertools.combinations_with_replacement(range(grid.dim), 2):
        weight = weight + xi_sq[i] * xi_sq[j]
    return weight


def _mode_energies(field, multiplier):
    """sum_k w_k sum_xi multiplier |c_k(xi)|^2, w_0 = 1 and w_k = 2 for k >= 1."""
    total = 0.0
    for k in range(field.max_mode + 1):
        energy = np.abs(_coefficients(field.grid, field.modes[k])) ** 2
        total += (1.0 if k == 0 else 2.0) * float(np.sum(multiplier * energy))
    return total


@PROPERTY_SETTINGS
@given(spatial_fields())
def test_spatial_l2_norm_is_plancherel(field):
    energy = float(np.sum(np.abs(_coefficients(field.grid, field.components)) ** 2))
    expected = np.sqrt(field.grid.volume * energy)
    assert lq_norm(field, 2.0) == pytest.approx(expected, rel=RTOL)


@PROPERTY_SETTINGS
@given(timeperiodic_fields())
def test_timeperiodic_l2_norm_is_plancherel(field):
    expected = np.sqrt(field.grid.volume * _mode_energies(field, 1.0))
    assert lq_norm(field, 2.0) == pytest.approx(expected, rel=RTOL)
    assert spacetime_l2_plancherel(field) == pytest.approx(expected, rel=RTOL)


@PROPERTY_SETTINGS
@given(timeperiodic_fields())
def test_maxreg_norm_at_q2_is_plancherel(field):
    grid = field.grid
    bochner = np.sqrt(grid.volume * _mode_energies(field, _sobolev_weight(grid)))
    dt_energy = sum(
        (1.0 if k == 0 else 2.0)
        * field.omega(k) ** 2
        * float(np.sum(np.abs(_coefficients(grid, field.modes[k])) ** 2))
        for k in range(field.max_mode + 1)
    )
    expected = bochner + np.sqrt(grid.volume * dt_energy)
    assert maxreg_norm(field, 2.0) == pytest.approx(expected, rel=RTOL)
