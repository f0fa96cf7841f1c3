"""Divergence-free boundary lifting built from a radial cut-off.

The lifting is V = (lam/2) * (-Delta + grad div)(g e1) with generating
scalar g(x) = cutoff(|x - center|) * y^2, where y is the coordinate along
axis 2 measured from the obstacle center.  It is divergence free as an
operator identity and equals -lam * e1 wherever the cut-off is identically
one, which hands the obstacle velocity to the periodic-box solver without
any boundary mesh.

V, its jacobian, and its laplacian are evaluated from the analytically
differentiated closed forms rather than by spectral differentiation of the
sampled generator: the cut-off is only C^2, so sampled-then-spectral
derivatives would be truncation limited, while the closed forms keep both
defining properties exact at every grid point.  The generator is compactly
supported inside the box, so periodization is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    GridSpec,
    ScalarField,
    VectorField,
    _lock,
    _owned_copy,
    _truncate_samples,
)
from .norms import lq_norm, negative_norm_surrogate


@dataclass(frozen=True)
class CutoffSpec:
    """Radial transition profile: 1 inside, 0 outside, quintic in between.

    The profile is 1 - (10 t^3 - 15 t^4 + 6 t^5) in the normalized radial
    variable t = (rho - inner_radius) / (outer_radius - inner_radius), which
    matches value, slope, and curvature at both radii (C^2).
    """

    inner_radius: float
    outer_radius: float

    def __post_init__(self) -> None:
        if not 0 < self.inner_radius < self.outer_radius:
            raise ValueError(
                f"radii must satisfy 0 < inner < outer, got "
                f"{self.inner_radius}, {self.outer_radius}"
            )

    @property
    def width(self) -> float:
        return self.outer_radius - self.inner_radius

    def value(self, rho) -> np.ndarray:
        """Profile value at radius rho (vectorized)."""
        rho = np.asarray(rho, dtype=np.float64)
        t = np.clip((rho - self.inner_radius) / self.width, 0.0, 1.0)
        return 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)

    def derivative(self, rho, order: int) -> np.ndarray:
        """Radial derivative of the profile, order 1 through 4.

        Orders 3 and 4 are classical only strictly inside the transition
        zone; outside it (and at its edges) all orders return zero.
        """
        if order not in (1, 2, 3, 4):
            raise ValueError(f"order must be in 1..4, got {order}")
        rho = np.asarray(rho, dtype=np.float64)
        w = self.width
        inside = (rho > self.inner_radius) & (rho < self.outer_radius)
        t = np.where(inside, (rho - self.inner_radius) / w, 0.0)
        if order == 1:
            raw = -30.0 * t * t * (1.0 - t) ** 2 / w
        elif order == 2:
            raw = -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) / w**2
        elif order == 3:
            raw = -60.0 * (1.0 - 6.0 * t + 6.0 * t * t) / w**3
        else:
            raw = 360.0 * (1.0 - 2.0 * t) / w**4
        return np.where(inside, raw, 0.0)


def _centered_coordinates(grid: GridSpec) -> list[np.ndarray]:
    center = grid.center
    return [x - center[axis] for axis, x in enumerate(grid.coordinates())]


def center_distance(grid: GridSpec) -> np.ndarray:
    """The radius |x - center| at every grid point, shape ``grid.shape``."""
    return np.sqrt(sum(x * x for x in _centered_coordinates(grid)))


def _check_support(spec: CutoffSpec, grid: GridSpec) -> None:
    half_width = np.pi * grid.half_period
    if spec.outer_radius >= half_width:
        raise ValueError(
            f"cut-off support (outer radius {spec.outer_radius}) touches the "
            f"box boundary (half-width {half_width:.6g})"
        )


def build_cutoff(spec: CutoffSpec, grid: GridSpec) -> ScalarField:
    """Sample the radial profile around the box center."""
    _check_support(spec, grid)
    return ScalarField(grid, spec.value(center_distance(grid)))


@dataclass(frozen=True)
class LiftingField:
    """The lifting velocity together with its exact first derivatives.

    ``jacobian[i, k]`` holds the derivative of component i along axis k+1;
    ``laplacian`` stacks the componentwise Laplacian.  Both come from the
    closed forms, so trace(jacobian) vanishes identically and the values
    feed the nonlinearity without further differentiation.
    """

    velocity: VectorField
    lambda_used: float
    jacobian: np.ndarray
    laplacian: np.ndarray

    def __post_init__(self) -> None:
        grid = self.velocity.grid
        jac = _owned_copy(self.jacobian, np.float64)
        lap = _owned_copy(self.laplacian, np.float64)
        if jac.shape != (grid.dim, grid.dim) + grid.shape:
            raise ValueError("jacobian has the wrong shape")
        if lap.shape != (grid.dim,) + grid.shape:
            raise ValueError("laplacian has the wrong shape")
        object.__setattr__(self, "jacobian", _lock(jac))
        object.__setattr__(self, "laplacian", _lock(lap))

    @property
    def grid(self) -> GridSpec:
        return self.velocity.grid

    @cached_property
    def is_zero(self) -> bool:
        """Whether V and its jacobian, the arrays products read, vanish."""
        return not (self.velocity.components.any() or self.jacobian.any())

    @cached_property
    def self_advection(self) -> np.ndarray:
        """Dealiased (V . grad)V from the exact jacobian, formed once per lifting."""
        values = self.velocity.components
        acc = np.zeros(values.shape)
        for k in range(self.grid.dim):
            acc = acc + values[k] * self.jacobian[:, k]
        # A contiguous copy, so the cache does not pin the complex transform.
        return _lock(np.ascontiguousarray(_truncate_samples(self.grid, acc)))

    def divergence_values(self) -> np.ndarray:
        """Pointwise divergence as the trace of the exact jacobian."""
        return np.trace(self.jacobian, axis1=0, axis2=1)


def build_lifting(lam: float, spec: CutoffSpec, grid: GridSpec) -> LiftingField:
    """Construct the lifting field for drift coefficient ``lam`` >= 0.

    ``lam = 0`` yields the zero field (the lifting is linear in the drift).
    """
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    _check_support(spec, grid)
    dim = grid.dim
    centered = [np.broadcast_to(x, grid.shape) for x in _centered_coordinates(grid)]
    rho = center_distance(grid)
    safe = np.where(rho > 0, rho, 1.0)
    unit = [x / safe for x in centered]
    y = centered[1]
    y2 = y * y

    phi = spec.value(rho)
    d1 = spec.derivative(rho, 1)
    d2 = spec.derivative(rho, 2)
    d3 = spec.derivative(rho, 3)
    d4 = spec.derivative(rho, 4)

    # Radial combinations; all vanish outside the transition zone because
    # the profile derivatives do.
    c = d1 / safe
    b = d2 - c
    c_p = d2 / safe - d1 / safe**2
    b_p = d3 - c_p
    a = d2 + (dim + 3) * c
    a_p = d3 + (dim + 3) * c_p
    c_pp = d3 / safe - 2.0 * d2 / safe**2 + 2.0 * d1 / safe**3
    a_pp = d4 + (dim + 3) * c_pp
    b_pp = d4 - c_pp
    h = b / safe**2
    h_p = b_p / safe**2 - 2.0 * b / safe**3
    h_pp = b_pp / safe**2 - 4.0 * b_p / safe**3 + 6.0 * b / safe**4

    lap_g = a * y2 + 2.0 * phi
    half_lam = 0.5 * lam

    velocity = np.zeros((dim,) + grid.shape)
    jacobian = np.zeros((dim, dim) + grid.shape)
    laplacian = np.zeros((dim,) + grid.shape)

    grad_lap_g = [a_p * unit[k] * y2 + 2.0 * d1 * unit[k] for k in range(dim)]
    grad_lap_g[1] = grad_lap_g[1] + 2.0 * a * y

    lap_lap_g = (
        (a_pp + (dim + 3) * a_p / safe) * y2
        + 2.0 * a
        + 2.0 * d2
        + 2.0 * (dim - 1) * c
    )
    radial_c2 = c_pp + (dim + 3) * c_p / safe

    for i in range(dim):
        hess_i1 = b * unit[i] * unit[0] * y2
        if i == 0:
            hess_i1 = hess_i1 + c * y2
        if i == 1:
            hess_i1 = hess_i1 + 2.0 * d1 * unit[0] * y
        velocity[i] = half_lam * (-(lap_g if i == 0 else 0.0) + hess_i1)

        lap_hess = h_pp + (dim + 7) * h_p / safe
        lap_hess = lap_hess * centered[i] * centered[0] * y2
        lap_hess = lap_hess + h * 2.0 * centered[i] * centered[0]
        if i == 0:
            lap_hess = lap_hess + h * 2.0 * y2 + radial_c2 * y2 + 2.0 * c
        if i == 1:
            lap_hess = lap_hess + h * 4.0 * centered[0] * y
            lap_hess = lap_hess + 2.0 * radial_c2 * centered[0] * y
        laplacian[i] = half_lam * (-(lap_lap_g if i == 0 else 0.0) + lap_hess)

        for k in range(dim):
            grad_hess = b_p * unit[k] * unit[i] * unit[0] * y2
            grad_hess = grad_hess + (b / safe) * (
                ((1.0 if k == i else 0.0) - unit[k] * unit[i]) * unit[0]
                + unit[i] * ((1.0 if k == 0 else 0.0) - unit[k] * unit[0])
            ) * y2
            if k == 1:
                grad_hess = grad_hess + 2.0 * b * unit[i] * unit[0] * y
            if i == 0:
                grad_hess = grad_hess + c_p * unit[k] * y2
                if k == 1:
                    grad_hess = grad_hess + 2.0 * c * y
            if i == 1:
                grad_hess = grad_hess + 2.0 * d2 * unit[k] * unit[0] * y
                if k == 1:
                    grad_hess = grad_hess + 2.0 * d1 * unit[0]
                grad_hess = grad_hess + 2.0 * d1 * y * (
                    (1.0 if k == 0 else 0.0) - unit[k] * unit[0]
                ) / safe
            jacobian[i, k] = half_lam * (
                -(grad_lap_g[k] if i == 0 else 0.0) + grad_hess
            )

    return LiftingField(
        velocity=VectorField(grid, velocity),
        lambda_used=float(lam),
        jacobian=jacobian,
        laplacian=laplacian,
    )


def default_cutoff(grid: GridSpec) -> CutoffSpec:
    """Cut-off radii at 0.2 and 0.6 of the box half-width."""
    half_width = np.pi * grid.half_period
    return CutoffSpec(0.2 * half_width, 0.6 * half_width)


def lifting_load(lifting: LiftingField, q: float, r: float) -> tuple[float, float]:
    """Norms of the forcing the lifting injects into the momentum balance.

    Returns the L^q norm and the negative-norm surrogate of
    -laplacian(V) + lam * d1(V) at the drift lam the lifting was built with,
    evaluated from the exact derivative arrays.
    """
    load = VectorField(
        lifting.grid, -lifting.laplacian + lifting.lambda_used * lifting.jacobian[:, 0]
    )
    return lq_norm(load, q), negative_norm_surrogate(load, r)
