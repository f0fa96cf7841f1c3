"""Kernels that transform or accumulate into arrays they own, bit for bit.

Each reference below is a copy of the kernel as it stood before it worked in
place: every transform wrote a new array, every masked spectrum and sum was a
new temporary, and the mode solve formed the forcing divergence twice.  The
in-place kernels must give the same bits, not merely the same values.
"""

from __future__ import annotations

import numpy as np
import pytest

from oseenlab.fields import GridSpec, _fftn, _ifftn, _truncate_samples
from oseenlab.lifting import build_lifting, default_cutoff
from oseenlab.nonlinear import _quadratic_samples
from oseenlab.norms import _lq_of_array
from oseenlab.oseen import OseenParams, _mode_solution_coeff, solve_mode

GRIDS = {2: GridSpec(2, 1.3, 16), 3: GridSpec(3, 0.8, 12)}


def _copy_truncate_samples(grid, values):
    return _ifftn(_fftn(values, grid.dim) * grid.dealias_mask, grid.dim).real


def _copy_quadratic_samples(grid, a, lifting):
    a_hat = _fftn(a, grid.dim) * grid.dealias_mask
    a_t = _ifftn(a_hat, grid.dim).real
    if lifting is not None:
        a_t = a_t + lifting.velocity.components
    acc = np.zeros(a.shape)
    for k in range(grid.dim):
        da = _ifftn(a_hat * (1j * grid.wavenumber(k)), grid.dim).real
        if lifting is not None:
            da = da + lifting.jacobian[:, k]
        acc = acc + a_t[k] * da
    return _copy_truncate_samples(grid, acc)


def _copy_lq_of_array(grid, components, q):
    magnitude_sq = np.sum(components * components, axis=0)
    if q == 2.0:
        mean_pow = float(np.mean(magnitude_sq))
    else:
        mean_pow = float(np.mean(magnitude_sq ** (q / 2.0)))
    return (mean_pow * grid.volume) ** (1.0 / q) if mean_pow > 0 else 0.0


def _copy_apply_leray(grid, coeff):
    safe = np.where(grid.ksq > 0, grid.ksq, 1.0)
    dotted = np.zeros(grid.shape, dtype=np.complex128)
    for axis in range(grid.dim):
        dotted = dotted + grid.wavenumber(axis) * coeff[axis]
    dotted = np.where(grid.ksq > 0, dotted / safe, 0.0)
    out = np.empty_like(coeff)
    for axis in range(grid.dim):
        out[axis] = coeff[axis] - grid.wavenumber(axis) * dotted
    return out


def _copy_mode_solution_coeff(grid, coeff, lam, omega):
    ksq = grid.ksq
    active = ksq > 0
    safe = np.where(active, ksq, 1.0)
    denom = np.where(active, ksq + 1j * (lam * grid.wavenumber(0) + omega), 1.0)
    u_coeff = _copy_apply_leray(grid, coeff)
    u_coeff /= denom
    u_coeff[:, ~active] = coeff[:, ~active] / (1j * omega) if omega else 0.0
    dotted = np.zeros(grid.shape, dtype=np.complex128)
    for axis in range(grid.dim):
        dotted = dotted + grid.wavenumber(axis) * coeff[axis]
    p_coeff = np.where(active, -1j * dotted / safe, 0.0)
    return u_coeff, p_coeff


def _noise(grid, shape, seed, complex_=False):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape + grid.shape)
    return values + 1j * rng.standard_normal(values.shape) if complex_ else values


@pytest.mark.parametrize("with_lifting", [False, True])
@pytest.mark.parametrize("dim", [2, 3])
def test_quadratic_samples_match_the_copying_kernel(dim, with_lifting):
    grid = GRIDS[dim]
    lifting = build_lifting(0.7, default_cutoff(grid), grid) if with_lifting else None
    a = _noise(grid, (dim,), seed=dim)
    out = _quadratic_samples(grid, a, lifting)
    assert np.array_equal(out, _copy_quadratic_samples(grid, a, lifting))


@pytest.mark.parametrize("leading", [(1,), (3,), (2, 3)])
@pytest.mark.parametrize("dim", [2, 3])
def test_truncate_samples_match_the_copying_kernel(dim, leading):
    grid = GRIDS[dim]
    values = _noise(grid, leading, seed=len(leading))
    out = _truncate_samples(grid, values)
    assert np.array_equal(out, _copy_truncate_samples(grid, values))


@pytest.mark.parametrize("omega", [0.0, 2.0 * np.pi])
@pytest.mark.parametrize("lam", [0.0, 0.7, 3.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_mode_solve_forms_the_divergence_once_bit_for_bit(dim, lam, omega):
    grid = GRIDS[dim]
    coeff = _fftn(_noise(grid, (dim,), seed=5), dim)
    for new, old in zip(
        _mode_solution_coeff(grid, coeff, lam, omega),
        _copy_mode_solution_coeff(grid, coeff, lam, omega),
    ):
        assert np.array_equal(new, old)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("dim", [2, 3])
def test_solve_mode_inverts_in_place_bit_for_bit(dim, k):
    grid = GRIDS[dim]
    f_mode = _noise(grid, (dim,), seed=6, complex_=k > 0)
    omega = 2.0 * np.pi * k / 1.7
    velocity, pressure = solve_mode(grid, f_mode, omega, OseenParams(0.7))
    coeff = _fftn(f_mode, dim)
    u_coeff, p_coeff = _copy_mode_solution_coeff(grid, coeff, 0.7, omega)
    assert np.array_equal(velocity, _ifftn(u_coeff, dim))
    assert np.array_equal(pressure, _ifftn(p_coeff[None], dim))


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("rows", [1, 2, 3, 9])
@pytest.mark.parametrize("dim", [2, 3])
def test_lq_of_array_sums_rows_like_np_sum(dim, rows, q):
    grid = GRIDS[dim]
    samples = _noise(grid, (rows,), seed=rows, complex_=True)
    # The transform-path surrogate passes the real part of a complex array,
    # a strided view; the other callers pass contiguous arrays.
    for components in (samples.real, np.ascontiguousarray(samples.imag)):
        new = _lq_of_array(grid, components, q)
        assert new == _copy_lq_of_array(grid, components, q)
