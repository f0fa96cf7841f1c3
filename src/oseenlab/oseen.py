"""Linear flow solvers: steady drift solve, per-frequency and time-periodic
solves, steady/oscillatory projections, residuals, and the iteration record
of the fixed-point drivers.

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

from dataclasses import dataclass

import numpy as np

from .fields import (
    GridSpec,
    ScalarField,
    TimePeriodicField,
    VectorField,
    _fftn,
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
    """A velocity/pressure solution pair on one grid."""

    velocity: VectorField
    pressure: ScalarField

    def __post_init__(self) -> None:
        if self.velocity.grid != self.pressure.grid:
            raise ValueError("velocity and pressure live on different grids")

    @property
    def grid(self) -> GridSpec:
        return self.velocity.grid


def _apply_leray(grid: GridSpec, coeff: np.ndarray) -> np.ndarray:
    """Divergence-free projection of (dim, ...) coefficients.

    Modes with vanishing wavenumber (mean, pure Nyquist) pass through
    unchanged.
    """
    safe = np.where(grid.ksq > 0, grid.ksq, 1.0)
    dotted = np.zeros(grid.shape, dtype=np.complex128)
    for axis in range(grid.dim):
        dotted = dotted + grid.wavenumber(axis) * coeff[axis]
    dotted = np.where(grid.ksq > 0, dotted / safe, 0.0)
    out = np.empty_like(coeff)
    for axis in range(grid.dim):
        out[axis] = coeff[axis] - grid.wavenumber(axis) * dotted
    return out


def leray_project(field: VectorField) -> VectorField:
    """Project a vector field onto its divergence-free part."""
    coeff = _fftn(field.components, field.grid.dim)
    return VectorField(
        field.grid, _ifftn(_apply_leray(field.grid, coeff), field.grid.dim).real
    )


def _mode_solution_coeff(
    grid: GridSpec, coeff: np.ndarray, lam: float, omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity and pressure coefficients for one time frequency.

    The velocity symbol is |xi|^2 + i(lam*xi_1 + omega) on the projected
    forcing; pressure comes from the forcing divergence.  Zero-symbol modes
    get zero velocity when omega = 0 and forcing/(i*omega) otherwise.
    """
    ksq = grid.ksq
    active = ksq > 0
    safe = np.where(active, ksq, 1.0)
    denom = np.where(active, ksq + 1j * (lam * grid.wavenumber(0) + omega), 1.0)
    u_coeff = np.where(active, _apply_leray(grid, coeff) / denom, 0.0)
    if omega != 0.0:
        u_coeff = np.where(active, u_coeff, coeff / (1j * omega))
    dotted = np.zeros(grid.shape, dtype=np.complex128)
    for axis in range(grid.dim):
        dotted = dotted + grid.wavenumber(axis) * coeff[axis]
    p_coeff = np.where(active, -1j * dotted / safe, 0.0)
    return u_coeff, p_coeff


def solve_steady(f: VectorField, params: OseenParams) -> StokesPair:
    """Solve the steady drift system for velocity and pressure.

    Gradient parts of the forcing go entirely into the pressure, so the
    velocity depends only on the divergence-free part of ``f``.
    """
    grid = f.grid
    coeff = _fftn(f.components, grid.dim)
    u_coeff, p_coeff = _mode_solution_coeff(grid, coeff, params.lam, 0.0)
    velocity = VectorField(grid, _ifftn(u_coeff, grid.dim).real)
    pressure = ScalarField(grid, _ifftn(p_coeff[None], grid.dim).real[0])
    return StokesPair(velocity, pressure)


def solve_mode(
    grid: GridSpec,
    f_mode: np.ndarray,
    k: int,
    period: float,
    params: OseenParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve one time-frequency block; returns complex physical-space modes.

    ``f_mode`` is the complex spatial sample array of the k-th time mode,
    shape (dim,) + grid.shape.  The returned pressure mode has the stack
    layout (1,) + grid.shape.  k = 0 reproduces :func:`solve_steady`.
    """
    if not period > 0:
        raise ValueError(f"period must be positive, got {period}")
    f_mode = np.ascontiguousarray(f_mode, dtype=np.complex128)
    expected = (grid.dim,) + grid.shape
    if f_mode.shape != expected:
        raise ValueError(f"f_mode has shape {f_mode.shape}, expected {expected}")
    omega = 2.0 * np.pi * k / period
    coeff = _fftn(f_mode, grid.dim)
    u_coeff, p_coeff = _mode_solution_coeff(grid, coeff, params.lam, omega)
    return _ifftn(u_coeff, grid.dim), _ifftn(p_coeff[None], grid.dim)


def solve_timeperiodic(
    forcing: TimePeriodicField, params: OseenParams
) -> tuple[TimePeriodicField, TimePeriodicField]:
    """Solve mode-by-mode; returns time-periodic velocity and pressure.

    Only the modes k = 0..K are solved and stored; the negative frequencies
    are their conjugates, derived by :meth:`TimePeriodicField.mode`.
    """
    grid = forcing.grid
    if forcing.ncomp != grid.dim:
        raise ValueError("forcing must be a vector-valued time-periodic field")
    u_modes = []
    p_modes = []
    for k in range(forcing.max_mode + 1):
        u_k, p_k = solve_mode(grid, forcing.mode(k), k, forcing.period, params)
        if k == 0:
            # The zero-frequency problem with real data has a real solution;
            # drop the imaginary roundoff so the stack is exactly real there.
            u_k = u_k.real.astype(np.complex128)
            p_k = p_k.real.astype(np.complex128)
        u_modes.append(u_k)
        p_modes.append(p_k)
    velocity = TimePeriodicField.from_modes(grid, forcing.period, u_modes)
    pressure = TimePeriodicField.from_modes(grid, forcing.period, p_modes)
    return velocity, pressure


def project_steady(field: TimePeriodicField) -> ScalarField | VectorField:
    """Time average over one period: the k = 0 mode as a real field."""
    return field.steady_part()


def project_oscillatory(field: TimePeriodicField) -> TimePeriodicField:
    """The zero-time-average complement; its k = 0 mode is exactly zero."""
    modes = field.modes.copy()
    modes[0] = 0.0
    return TimePeriodicField._adopt(field.grid, field.period, modes)


@dataclass(frozen=True)
class SolveReport:
    """Iteration record of the steady and time-periodic fixed-point drivers.

    ``iterates`` holds the update norms per iteration; ``contraction_rate``
    is the maximum consecutive-update ratio after the second update,
    NaN when fewer than three updates exist.
    """

    iterates: tuple[float, ...]
    contraction_rate: float
    final_residual: float
    converged: bool
    residual_momentum: float
    residual_div: float

    @property
    def iterations(self) -> int:
        return len(self.iterates)


def contraction_rate_from_updates(updates) -> float:
    """Max ratio of consecutive update norms.

    Every consecutive ratio is a genuine contraction quotient of the
    fixed-point map (the first update alone is not, being tied to the choice
    of initial iterate, so no ratio uses it as anything but a denominator).
    The first ratio exists once the second iteration has produced its
    update; with fewer than two updates the rate is NaN.
    """
    if len(updates) < 2:
        return float("nan")
    ratios = [
        updates[m + 1] / updates[m]
        for m in range(len(updates) - 1)
        if updates[m] > 0
    ]
    return max(ratios) if ratios else float("nan")


def residual(
    pair: StokesPair, f: VectorField, params: OseenParams
) -> tuple[float, float]:
    """L^2 norms of the momentum defect and of div(velocity).

    The steady problem is the K = 0 case of :func:`residual_timeperiodic`:
    the pair and the forcing enter as the time-constant stacks of
    :meth:`TimePeriodicField.from_steady`, so a forcing on another grid is
    rejected there.
    """
    # Any period will do: the lone block k = 0 has omega = 0.
    stacks = [
        TimePeriodicField.from_steady(field, 1.0)
        for field in (pair.velocity, pair.pressure, f)
    ]
    return residual_timeperiodic(*stacks, params)


def residual_timeperiodic(
    velocity: TimePeriodicField,
    pressure: TimePeriodicField,
    forcing: TimePeriodicField,
    params: OseenParams,
) -> tuple[float, float]:
    """Space-time L^2 norms of the momentum defect and of div(velocity).

    Parseval in time turns the period-averaged space-time L^2 norm into a
    sum over the frequency blocks k = -K..K.  The block at -k is the
    conjugate mirror of the block at k and has the same norm, so the sum is
    block 0 plus twice the blocks k = 1..K, three transforms per block.  The
    defect at k = 0 is measured against the mean-free part of the forcing:
    the solvers pin the box mean of velocity and pressure to zero, so a
    forcing mean is unreachable by construction.  The three stacks must
    share grid, period and ``max_mode``.
    """
    grid = velocity.grid
    if pressure.ncomp != 1:
        raise ValueError("pressure stack must be scalar-valued")
    for name, other in (("pressure", pressure), ("forcing", forcing)):
        if other.grid != grid:
            raise ValueError(f"{name} lives on a different grid")
        if (other.period, other.max_mode) != (velocity.period, velocity.max_mode):
            raise ValueError(
                f"{name} has period {other.period} and max_mode {other.max_mode}, "
                f"the velocity {velocity.period} and {velocity.max_mode}"
            )
    mom_total = 0.0
    div_total = 0.0
    for k in range(velocity.max_mode + 1):
        u_coeff = _fftn(velocity.modes[k], grid.dim)
        p_coeff = _fftn(pressure.modes[k], grid.dim)[0]
        f_coeff = _fftn(forcing.modes[k], grid.dim)
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
        weight = 1.0 if k == 0 else 2.0
        mom_total += weight * float(np.sum(np.abs(momentum) ** 2))
        div_total += weight * float(np.sum(np.abs(div) ** 2))
    vol = grid.volume
    return float(np.sqrt(mom_total * vol)), float(np.sqrt(div_total * vol))


def wake_asymmetry(velocity: VectorField, axis: int = 1) -> float:
    """Mirror-asymmetry of the speed field about the box center along ``axis``.

    Sums |u| over the downstream and upstream half-slabs (excluding the two
    mirror-fixed planes) and returns (down - up) / (down + up); exactly
    mirror-symmetric fields give zero up to round-off.  ``axis`` is 1-based.
    """
    grid = velocity.grid
    if not 1 <= axis <= grid.dim:
        raise ValueError(f"axis must lie in 1..{grid.dim}, got {axis}")
    speed = velocity.magnitude()
    n = grid.points_per_axis
    half = n // 2
    down = float(np.sum(np.take(speed, range(half + 1, n), axis=axis - 1)))
    up = float(np.sum(np.take(speed, range(1, half), axis=axis - 1)))
    total = down + up
    return (down - up) / total if total > 0 else 0.0
