"""Quadratic momentum nonlinearity around the lifting, and the dealiased
convective product.

The nonlinearity of the perturbation u around the lifting field V is

    -((u + V) . grad)(u + V) + laplacian(V) - lam * d1(V),

where lam is the lifting's own drift (:attr:`LiftingField.lambda_used`).
Without an obstacle there is no lifting (V = 0) and only -(u . grad)u is
formed.

The band-limited factor u is truncated before the product.  The lifting V
and its jacobian are exact pointwise samples (not band-limited), so they are
added at full resolution to the truncated u and its gradient; the sum is
multiplied out and truncated once.  The linear lifting terms are added raw.

Each operand is transformed once.  The quadratic kernel takes one forward
transform of u, one inverse for the truncated u and one inverse per gradient
axis, and one forward and one inverse to truncate the product: 21
single-component transforms per instant at dim 3, with or without V.  The
bilinear kernel ``_convective`` takes the half-layout spectra of both factors,
whose leading axes broadcast: a steady factor brings its own
:attr:`SpatialField.coefficients`, transformed once while it lives, however
many products and time instants it enters; a stack transforms its samples.
Its untruncated middle, ``_convective_samples``, takes the first factor's
samples and the second's spectrum, so the smallness-constant fit, whose
band-limited factors need no truncation, forms its products from two fields.

The convective product uses real FFTs (half layout); it matches complex
FFTs to roundoff only.  The nonlinearity stays on complex FFTs until the
benchmark gate is recalibrated: it feeds the Picard iterate, whose
contraction rate the gate holds to rtol 1e-8, tighter than roundoff allows.

Time-periodic input is multiplied in physical time: the field is sampled
on 4K+1 uniform instants (enough to hold the full quadratic band), the
pointwise nonlinearity of each instant is written over that instant's
sample, and only modes 0..K of the time transform are formed
(``fields._time_modes``) and negated in place: one stack of samples and
those K+1 modes are the working set of the time loop.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    GridSpec,
    SpatialField,
    TimePeriodicField,
    _fftn,
    _ifftn,
    _irfftn,
    _rfftn,
    _time_modes,
    _truncate_samples,
)
from .lifting import LiftingField


def _convective(grid: GridSpec, a_hat: np.ndarray, b_hat: np.ndarray) -> np.ndarray:
    """Samples of (a . grad) b with truncated inputs and a truncated product.

    ``a_hat`` and ``b_hat`` are the half-layout spectra of (..., dim) +
    grid.shape sample arrays whose leading axes broadcast against each other.
    """
    mask = grid.half_dealias_mask
    a_t = _irfftn(a_hat * mask, grid.shape)
    acc = _convective_samples(grid, a_t, b_hat * mask)
    return _irfftn(_rfftn(acc, grid.dim) * mask, grid.shape)


def _convective_samples(grid: GridSpec, a: np.ndarray, b_hat: np.ndarray) -> np.ndarray:
    """Samples of (a . grad) b, untruncated, from the samples ``a`` of a and
    the half-layout coefficients ``b_hat`` of b (leading axes broadcast)."""
    b_shape = b_hat.shape[: b_hat.ndim - grid.dim] + grid.shape
    acc = np.zeros(np.broadcast_shapes(a.shape, b_shape))
    spatial = (slice(None),) * grid.dim
    for k, symbol in enumerate(grid.derivative_symbols[1]):
        db = _irfftn(b_hat * symbol, grid.shape)
        acc = acc + a[(Ellipsis, slice(k, k + 1)) + spatial] * db
    return acc


def _quadratic_samples(
    grid: GridSpec, a: np.ndarray, lifting: LiftingField | None
) -> np.ndarray:
    """((a + V) . grad)(a + V) for one physical sample, truncated once.

    One forward transform of ``a`` feeds the truncated samples and every
    gradient axis; V and its exact jacobian are added to them, and the
    product is accumulated axis by axis.  Without a lifting V = 0.
    """
    a_hat = _fftn(a, grid.dim)
    a_hat *= grid.dealias_mask
    a_t = _ifftn(a_hat, grid.dim).real
    if lifting is not None:
        a_t = a_t + lifting.velocity.components
    acc = np.zeros(a.shape)
    for k in range(grid.dim):
        # Each axis's product is fresh, so it is transformed in place.
        da = _ifftn(a_hat * (1j * grid.wavenumber(k)), grid.dim, overwrite_x=True).real
        if lifting is not None:
            da = da + lifting.jacobian[:, k]
        acc += a_t[k] * da
    # Drop the spectra first so the truncation does not raise peak memory.
    del a_hat, a_t, da
    return _truncate_samples(grid, acc)


def nonlinearity(
    u: SpatialField | TimePeriodicField, lifting: LiftingField | None
) -> SpatialField | TimePeriodicField:
    """Evaluate the nonlinearity; output matches the shape of ``u``.

    ``lifting`` is None for the obstacle-free problem (V = 0); a lifting
    brings its own drift into the -lam * d1(V) term.
    """
    if not isinstance(u, (SpatialField, TimePeriodicField)):
        raise TypeError(f"cannot evaluate the nonlinearity of {type(u).__name__}")
    grid = u.grid
    if u.ncomp != grid.dim:
        raise ValueError("the nonlinearity's input must be vector-valued")
    if lifting is not None and lifting.grid != grid:
        raise ValueError("field and lifting live on different grids")
    if isinstance(u, SpatialField):
        out = -_quadratic_samples(grid, u.components, lifting)
        average = out
    else:
        num_samples = 4 * u.max_mode + 1
        samples = u.sample_times(num_samples)
        for j in range(num_samples):
            samples[j] = _quadratic_samples(grid, samples[j], lifting)
        out = _time_modes(samples, u.max_mode)
        np.negative(out, out=out)
        average = out[0]
    if lifting is not None:
        average += lifting.laplacian - lifting.lambda_used * lifting.jacobian[:, 0]
    return u._like(out)


def convective_product(
    a: SpatialField | TimePeriodicField,
    b: SpatialField | TimePeriodicField,
) -> SpatialField | TimePeriodicField:
    """Dealiased (a . grad) b of two vector-valued operands, steady or not.

    Two steady operands give a steady field.  With a time-periodic operand
    the product is formed in physical time on exactly enough uniform
    instants to hold the combined band and returned with the summed mode
    count, so no time truncation happens here (unlike the nonlinearity
    operator, which projects back to the input band).
    """
    for name, operand in (("a", a), ("b", b)):
        if operand.ncomp != operand.grid.dim:
            raise ValueError(f"convective_product operand {name} must be vector-valued")
    if a.grid != b.grid:
        raise ValueError("operands live on different grids")
    grid = a.grid
    a_tp = isinstance(a, TimePeriodicField)
    b_tp = isinstance(b, TimePeriodicField)
    if a_tp and b_tp and a.period != b.period:
        raise ValueError("operands have different periods")
    k_out = (a.max_mode if a_tp else 0) + (b.max_mode if b_tp else 0)
    num_samples = 2 * k_out + 1
    # A steady operand brings its own (dim, ...) spectrum, which broadcasts
    # over time.
    a_hat = _rfftn(a.sample_times(num_samples), grid.dim) if a_tp else a.coefficients
    b_hat = _rfftn(b.sample_times(num_samples), grid.dim) if b_tp else b.coefficients
    out = _convective(grid, a_hat, b_hat)
    if not a_tp and not b_tp:
        return SpatialField._adopt(grid, out)
    period = a.period if a_tp else b.period
    return TimePeriodicField.from_time_samples(grid, period, out, k_out)
