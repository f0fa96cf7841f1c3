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
bilinear kernel ``_convective`` takes sample arrays whose leading axes
broadcast, so a steady factor against many time instants is transformed
once, not once per instant.

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
    TimePeriodicField,
    VectorField,
    _fftn,
    _ifftn,
    _irfftn,
    _rfftn,
    _time_modes,
    _truncate_samples,
)
from .lifting import LiftingField


def _convective(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a . grad) b with truncated inputs and a truncated product.

    ``a`` and ``b`` are (..., dim) + grid.shape sample arrays whose leading
    axes broadcast against each other; each is transformed once.
    """
    mask = grid.half_dealias_mask
    a_t = _irfftn(_rfftn(a, grid.dim) * mask, grid.shape)
    b_hat = _rfftn(b, grid.dim) * mask
    acc = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    spatial = (slice(None),) * grid.dim
    for k, symbol in enumerate(grid.derivative_symbols[1]):
        db = _irfftn(b_hat * symbol, grid.shape)
        acc = acc + a_t[(Ellipsis, slice(k, k + 1)) + spatial] * db
    return _irfftn(_rfftn(acc, grid.dim) * mask, grid.shape)


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
    u: VectorField | TimePeriodicField, lifting: LiftingField | None
) -> VectorField | TimePeriodicField:
    """Evaluate the nonlinearity; output matches the shape of ``u``.

    ``lifting`` is None for the obstacle-free problem (V = 0); a lifting
    brings its own drift into the -lam * d1(V) term.
    """
    if not isinstance(u, (VectorField, TimePeriodicField)):
        raise TypeError(f"cannot evaluate the nonlinearity of {type(u).__name__}")
    grid = u.grid
    if lifting is not None and lifting.grid != grid:
        raise ValueError("field and lifting live on different grids")
    if isinstance(u, VectorField):
        out = -_quadratic_samples(grid, u.components, lifting)
        average = out
    else:
        if u.ncomp != grid.dim:
            raise ValueError("time-periodic input must be vector-valued")
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
    a: VectorField | TimePeriodicField,
    b: VectorField | TimePeriodicField,
) -> VectorField | TimePeriodicField:
    """Dealiased (a . grad) b for steady or time-periodic operands.

    Both operands must be vector-valued.  Steady operands give a VectorField.  With a time-periodic operand the
    product is formed in physical time on exactly enough uniform instants to
    hold the combined band and returned with the summed mode count, so no
    time truncation happens here (unlike the nonlinearity operator, which
    projects back to the input band).
    """
    for name, operand in (("a", a), ("b", b)):
        vector = isinstance(operand, VectorField) or (
            isinstance(operand, TimePeriodicField) and operand.ncomp == operand.grid.dim
        )
        if not vector:
            raise ValueError(f"convective_product operand {name} must be vector-valued")
    if a.grid != b.grid:
        raise ValueError("operands live on different grids")
    grid = a.grid
    a_tp = isinstance(a, TimePeriodicField)
    b_tp = isinstance(b, TimePeriodicField)
    if not a_tp and not b_tp:
        return VectorField(grid, _convective(grid, a.components, b.components))
    if a_tp and b_tp and a.period != b.period:
        raise ValueError("operands have different periods")
    period = a.period if a_tp else b.period
    k_out = (a.max_mode if a_tp else 0) + (b.max_mode if b_tp else 0)
    num_samples = 2 * k_out + 1
    # A steady operand keeps its (dim, ...) shape and broadcasts over time.
    a_samples = a.sample_times(num_samples) if a_tp else a.components
    b_samples = b.sample_times(num_samples) if b_tp else b.components
    out = _convective(grid, a_samples, b_samples)
    return TimePeriodicField.from_time_samples(grid, period, out, k_out)
