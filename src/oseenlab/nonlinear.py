"""Quadratic momentum nonlinearity around the lifting, and the dealiased
convective product.

The nonlinearity of the perturbation u around the lifting field is

    -(u . grad)u - (u . grad)V - (V . grad)u - (V . grad)V
    + laplacian(V) - lam * d1(V).

Band-limited factors follow the truncate-multiply-truncate dealiasing
pattern.  The lifting V and its derivative arrays are exact closed-form
samples (not band-limited), so they enter products at full resolution and
only the product is re-truncated; the V-only terms are added raw, and the
truncated (V . grad)V is formed once per lifting
(:attr:`LiftingField.self_advection`).

Each operand is transformed once.  The quadratic kernel takes one forward
transform of u, one inverse for the truncated u and one inverse per gradient
axis, and forms (u . grad)u, (u . grad)V and (V . grad)u pointwise from
them.  The three products are still truncated one by one and summed in a
fixed order: merging the truncations would be the same map in exact
arithmetic but would not reproduce the separate truncations bit for bit.
The bilinear kernel ``_convective`` takes sample arrays whose leading axes
broadcast, so a steady factor against many time instants is transformed
once, not once per instant.

The convective product uses real FFTs (half layout); it matches complex
FFTs to roundoff only.  The nonlinearity stays on complex FFTs until the
benchmark gate is recalibrated: it feeds the Picard iterate, whose
contraction rate the gate holds to rtol 1e-8, tighter than roundoff allows.

Time-periodic input is multiplied in physical time: the field is sampled
on 4K+1 uniform instants (enough to hold the full quadratic band), the
pointwise nonlinearity is formed per instant, and the result is projected
back to |k| <= K.
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


def _lifting_only_terms(lifting: LiftingField, lam: float) -> np.ndarray:
    """-(V . grad)V + laplacian(V) - lam * d1(V), the u-independent forcing."""
    return (
        -lifting.self_advection
        + lifting.laplacian
        - lam * lifting.jacobian[:, 0]
    )


def _check_inputs(u_grid: GridSpec, lifting: LiftingField, lam: float) -> None:
    if u_grid != lifting.grid:
        raise ValueError("field and lifting live on different grids")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")


def _quadratic_samples(
    grid: GridSpec, a: np.ndarray, lifting: LiftingField
) -> np.ndarray:
    """(a . grad)a + (a . grad)V + (V . grad)a for one physical sample.

    One forward transform of ``a`` feeds the truncated samples and every
    gradient axis; each product is accumulated axis by axis, truncated on
    its own, and the three are summed in this order.
    """
    a_hat = _fftn(a, grid.dim) * grid.dealias_mask
    a_t = _ifftn(a_hat, grid.dim).real
    values = lifting.velocity.components
    conv = np.zeros(a.shape)
    adv = np.zeros(a.shape)
    ladv = np.zeros(a.shape)
    for k in range(grid.dim):
        da = _ifftn(a_hat * (1j * grid.wavenumber(k)), grid.dim).real
        conv = conv + a_t[k] * da
        adv = adv + a_t[k] * lifting.jacobian[:, k]
        ladv = ladv + values[k] * da
    # Drop the spectra first so the truncations do not raise peak memory.
    del a_hat, a_t, da
    conv = _truncate_samples(grid, conv)
    adv = _truncate_samples(grid, adv)
    ladv = _truncate_samples(grid, ladv)
    return conv + adv + ladv


def nonlinearity(
    u: VectorField | TimePeriodicField,
    lifting: LiftingField,
    lam: float | None = None,
) -> VectorField | TimePeriodicField:
    """Evaluate the nonlinearity; output matches the shape of ``u``.

    ``lam`` defaults to the drift coefficient the lifting was built with.
    """
    if lam is None:
        lam = lifting.lambda_used
    if isinstance(u, VectorField):
        _check_inputs(u.grid, lifting, lam)
        grid = u.grid
        quad = _quadratic_samples(grid, u.components, lifting)
        return VectorField(grid, -quad + _lifting_only_terms(lifting, lam))
    if isinstance(u, TimePeriodicField):
        _check_inputs(u.grid, lifting, lam)
        grid = u.grid
        if u.ncomp != grid.dim:
            raise ValueError("time-periodic input must be vector-valued")
        num_samples = 4 * u.max_mode + 1
        samples = u.sample_times(num_samples)
        conv = np.empty_like(samples)
        for j in range(num_samples):
            conv[j] = _quadratic_samples(grid, samples[j], lifting)
        quad_tp = TimePeriodicField.from_time_samples(
            grid, u.period, conv, u.max_mode
        )
        modes = -quad_tp.modes
        modes[0] = modes[0] + _lifting_only_terms(lifting, lam)
        return TimePeriodicField._adopt(grid, u.period, modes)
    raise TypeError(f"cannot evaluate the nonlinearity of {type(u).__name__}")


def convective_product(
    a: VectorField | TimePeriodicField,
    b: VectorField | TimePeriodicField,
) -> VectorField | TimePeriodicField:
    """Dealiased (a . grad) b for steady or time-periodic operands.

    Steady operands give a VectorField.  With a time-periodic operand the
    product is formed in physical time on exactly enough uniform instants to
    hold the combined band and returned with the summed mode count, so no
    time truncation happens here (unlike the nonlinearity operator, which
    projects back to the input band).
    """
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
