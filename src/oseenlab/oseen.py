"""Linear flow solvers: steady drift solve, per-frequency and time-periodic
solves, the forward operator, steady/oscillatory projections, residuals, and
the iteration record of the fixed-point drivers.

Every solve works coefficientwise on the shared zeroed-Nyquist wavenumbers,
so applying the differential operator to a solution reproduces the forcing
exactly on the modes the solver touched.  Modes with vanishing derivative
multipliers (the box mean and pure Nyquist combinations) carry no velocity
or pressure in steady solves; this stands in for decay at infinity.  At a
nonzero time frequency those modes are pure time integration and keep the
forcing divided by the frequency factor.  Pressure is normalized to zero
box mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    GridSpec,
    ScalarField,
    TimePeriodicField,
    VectorField,
    _component_array,
    _fftn,
    _fold_modes,
    _from_component_array,
    _ifftn,
)


@dataclass(frozen=True)
class OseenParams:
    """Drift parameters shared by the linear solves.

    ``lam`` is the coefficient of the unidirectional transport term along
    axis 1 (the translation speed of the frame).  ``lam = 0`` is accepted
    and gives the driftless (Stokes) limit; the drift ceiling of a sweep is
    checked by the experiment config.
    """

    lam: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam < float("inf"):
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")


@dataclass(frozen=True)
class StokesPair:
    """Velocity and pressure on one grid: both spatial or both time stacks."""

    velocity: VectorField | TimePeriodicField
    pressure: ScalarField | TimePeriodicField

    def __post_init__(self) -> None:
        if self.velocity.grid != self.pressure.grid:
            raise ValueError("velocity and pressure live on different grids")

    def __iter__(self):
        return iter((self.velocity, self.pressure))


def _apply_leray(grid: GridSpec, coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divergence-free projection of (dim, ...) coefficients, and sum_a xi_a
    coeff[a]; modes with vanishing wavenumber (mean, pure Nyquist) pass."""
    dotted = np.zeros(grid.shape, dtype=np.complex128)
    for axis in range(grid.dim):
        dotted += grid.wavenumber(axis) * coeff[axis]
    scaled = np.where(grid.active, dotted / grid.safe, 0.0)
    out = np.empty_like(coeff)
    for axis in range(grid.dim):
        out[axis] = coeff[axis] - grid.wavenumber(axis) * scaled
    return out, dotted


def leray_project(field: VectorField) -> VectorField:
    """Project a vector field onto its divergence-free part."""
    coeff = _fftn(field.components, field.grid.dim)
    projected, _ = _apply_leray(field.grid, coeff)
    return VectorField(field.grid, _ifftn(projected, field.grid.dim).real)


def _mode_solution_coeff(
    grid: GridSpec, coeff: np.ndarray, lam: float, omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity and pressure coefficients for one time frequency.

    The velocity symbol is |xi|^2 + i(lam*xi_1 + omega) on the projected
    forcing; pressure comes from the forcing divergence.  Zero-symbol modes
    get zero velocity when omega = 0 and forcing/(i*omega) otherwise.
    """
    active = grid.active
    denom = np.where(active, grid.ksq + 1j * (lam * grid.wavenumber(0) + omega), 1.0)
    u_coeff, dotted = _apply_leray(grid, coeff)
    u_coeff /= denom
    u_coeff[:, ~active] = coeff[:, ~active] / (1j * omega) if omega else 0.0
    p_coeff = np.where(active, -1j * dotted / grid.safe, 0.0)
    return u_coeff, p_coeff


def solve_steady(f: VectorField, params: OseenParams) -> StokesPair:
    """Solve the steady drift system: the real part of the k = 0 block.

    Gradient parts of the forcing go entirely into the pressure, so the
    velocity depends only on the divergence-free part of ``f``.
    """
    modes = solve_mode(f.grid, f.components, 0.0, params)
    return StokesPair(*(_from_component_array(f.grid, m.real) for m in modes))


def solve_mode(
    grid: GridSpec,
    f_mode: np.ndarray,
    omega: float,
    params: OseenParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the block at angular frequency ``omega``; returns complex
    physical-space modes.

    ``f_mode`` is the spatial sample array of one time mode, shape
    (dim,) + grid.shape, transformed as given (real samples, as in
    :func:`solve_steady`, by the real-input transform).  The k-th mode of a
    stack takes ``omega`` from :meth:`TimePeriodicField.omega`.  The returned
    pressure mode has the stack layout (1,) + grid.shape.
    """
    f_mode = np.ascontiguousarray(f_mode)
    expected = (grid.dim,) + grid.shape
    if f_mode.shape != expected:
        raise ValueError(f"f_mode has shape {f_mode.shape}, expected {expected}")
    coeff = _fftn(f_mode, grid.dim)
    u_coeff, p_coeff = _mode_solution_coeff(grid, coeff, params.lam, omega)
    # Both coefficient arrays are fresh, so they are transformed in place.
    u_mode = _ifftn(u_coeff, grid.dim, overwrite_x=True)
    return u_mode, _ifftn(p_coeff[None], grid.dim, overwrite_x=True)


def solve_timeperiodic(
    forcing: TimePeriodicField, params: OseenParams
) -> StokesPair:
    """Solve mode-by-mode; returns the pair of velocity and pressure stacks.

    Only the modes k = 0..K are solved and stored; the negative frequencies
    are their conjugates, derived by :meth:`TimePeriodicField.mode`.
    """
    grid = forcing.grid
    if forcing.ncomp != grid.dim:
        raise ValueError("forcing must be a vector-valued time-periodic field")
    velocity = np.empty_like(forcing.modes)
    pressure = np.empty_like(forcing.modes[:, :1])
    for k in range(forcing.max_mode + 1):
        u_k, p_k = solve_mode(grid, forcing.mode(k), forcing.omega(k), params)
        # The zero-frequency problem with real data has a real solution; its
        # imaginary roundoff is dropped so the stack is exactly real there.
        velocity[k], pressure[k] = (u_k.real, p_k.real) if k == 0 else (u_k, p_k)
    return StokesPair(
        TimePeriodicField._adopt(grid, forcing.period, velocity),
        TimePeriodicField._adopt(grid, forcing.period, pressure),
    )


def project_steady(
    field: ScalarField | VectorField | TimePeriodicField,
) -> ScalarField | VectorField:
    """Time average over one period: the k = 0 mode as a real field.

    A steady field is its own time average (the K = 0 view), so it comes
    back unchanged.
    """
    if isinstance(field, TimePeriodicField):
        return _from_component_array(field.grid, field.mode(0).real)
    return field


def project_oscillatory(field: TimePeriodicField) -> TimePeriodicField:
    """The zero-time-average complement; its k = 0 mode is exactly zero."""
    modes = field.modes.copy()
    modes[0] = 0.0
    return TimePeriodicField._adopt(field.grid, field.period, modes)


@dataclass(frozen=True)
class SolveReport:
    """Iteration record of the steady and time-periodic fixed-point drivers.

    ``iterates`` holds the update norms per iteration, ``final_residual`` the
    certificate, the next two fields the residuals of the certificate solve,
    ``solution_norm`` the driver norm of the returned velocity and
    ``forcing_size`` the forcing's size that the small-data gate measured.
    The partial report of a failed run leaves all but ``iterates`` NaN; a
    converged run has a finite ``final_residual``.
    """

    iterates: tuple[float, ...]
    final_residual: float = math.nan
    residual_momentum: float = math.nan
    residual_div: float = math.nan
    solution_norm: float = math.nan
    forcing_size: float = math.nan

    @property
    def iterations(self) -> int:
        return len(self.iterates)

    @property
    def contraction_rate(self) -> float:
        """Max ratio of consecutive update norms.

        Every consecutive ratio is a genuine contraction quotient of the
        fixed-point map (the first update alone is not, being tied to the
        choice of initial iterate, so no ratio uses it as anything but a
        denominator).  With no ratio to take the rate is NaN.
        """
        pairs = zip(self.iterates, self.iterates[1:])
        ratios = [after / before for before, after in pairs if before > 0]
        return max(ratios) if ratios else float("nan")


def _time_blocks(field) -> tuple[float, np.ndarray]:
    """Period and modes of a stack; a steady field, uncopied, is K = 0 of period 1."""
    if isinstance(field, TimePeriodicField):
        return field.period, field.modes
    return 1.0, _component_array(field)[None]


def _axis_momenta(grid, period, velocity, pressure, forcing, k, lam):
    """Per axis, the velocity coefficients and those of d_t u - Lap u + lam d_1 u
    + grad p - f (None: f = 0; mean-free at k = 0) in block k of
    :func:`_time_blocks` arrays, each component transformed alone."""

    def coeff(blocks, index):
        return _fftn(blocks[k, index].astype(np.complex128, copy=False), grid.dim)

    p_coeff = coeff(pressure, 0)
    symbol = grid.ksq + 1j * (lam * grid.wavenumber(0) + 2.0 * np.pi * k / period)
    for axis in range(grid.dim):
        u_coeff = coeff(velocity, axis)
        momentum = symbol * u_coeff
        if forcing is not None:
            f_coeff = coeff(forcing, axis)
            if k == 0:
                f_coeff[(0,) * grid.dim] = 0.0
            momentum -= f_coeff
        yield u_coeff, momentum + 1j * grid.wavenumber(axis) * p_coeff


def apply_oseen(
    pair: StokesPair, params: OseenParams
) -> VectorField | TimePeriodicField:
    """The forcing that ``pair`` solves: d_t u - Lap u + lam d_1 u + grad p.

    Applied block by block on the solvers' zeroed-Nyquist wavenumbers.  A
    steady pair is the K = 0 case and gives back a steady field.
    """
    (period, velocity), (p_period, pressure) = map(_time_blocks, pair)
    if (p_period, len(pressure)) != (period, len(velocity)):
        raise ValueError("velocity and pressure stacks differ in period or modes")
    grid = pair.velocity.grid
    modes = np.empty(velocity.shape, dtype=np.complex128)
    for k in range(len(velocity)):
        blocks = _axis_momenta(grid, period, velocity, pressure, None, k, params.lam)
        for axis, (_, momentum) in enumerate(blocks):
            modes[k, axis] = _ifftn(momentum, grid.dim)
    out = TimePeriodicField._adopt(grid, period, modes)
    return out if isinstance(pair.velocity, TimePeriodicField) else project_steady(out)


def residual(
    pair: StokesPair, f: VectorField | TimePeriodicField, params: OseenParams
) -> tuple[float, float]:
    """Space-time L^2 norms of the momentum defect and of div(velocity).

    Parseval in time turns the period-averaged space-time L^2 norm into a
    sum over the frequency blocks k = -K..K, which :func:`_fold_modes` forms
    from the blocks k = 0..K, one transform per component of each block.  A
    steady pair and its forcing are the K = 0 case and give the spatial L^2
    norms.  The defect at k = 0 is measured against the mean-free part of the
    forcing: the solvers pin the box mean of velocity and pressure to zero, so
    a forcing mean is unreachable by construction.  The three stacks must
    share grid, period and ``max_mode``.
    """
    grid = pair.velocity.grid
    (period, velocity), *others = map(_time_blocks, (*pair, f))
    if others[0][1].shape[1] != 1:
        raise ValueError("pressure stack must be scalar-valued")
    if f.grid != grid:
        raise ValueError("forcing lives on a different grid")
    for name, (other_period, other) in zip(("pressure", "forcing"), others):
        if (other_period, len(other)) != (period, len(velocity)):
            raise ValueError(
                f"{name} has period {other_period} and max_mode {len(other) - 1}, "
                f"the velocity {period} and {len(velocity) - 1}"
            )
    (_, pressure), (_, forcing) = others

    def block_norms(k):
        # |momentum|^2 of all axes in one array: one pairwise sum per block.
        squares, div = np.empty(velocity.shape[1:]), 0.0
        blocks = _axis_momenta(grid, period, velocity, pressure, forcing, k, params.lam)
        for axis, (u_coeff, momentum) in enumerate(blocks):
            squares[axis] = np.abs(momentum) ** 2
            div = div + 1j * grid.wavenumber(axis) * u_coeff
        return np.array([np.sum(squares), np.sum(np.abs(div) ** 2)])

    totals = _fold_modes(block_norms(k) for k in range(len(velocity)))
    return tuple(float(np.sqrt(float(total) * grid.volume)) for total in totals)


def wake_asymmetry(velocity: VectorField) -> float:
    """Mirror-asymmetry of the speed field about the box center along the drift.

    Sums |u| over the downstream and upstream half-slabs along axis 1
    (excluding the two mirror-fixed planes) and returns
    (down - up) / (down + up); exactly mirror-symmetric fields give zero up
    to round-off.
    """
    speed = velocity.magnitude()
    n = velocity.grid.points_per_axis
    half = n // 2
    down = float(np.sum(speed[half + 1 :]))
    up = float(np.sum(speed[1:half]))
    total = down + up
    return (down - up) / total if total > 0 else 0.0
