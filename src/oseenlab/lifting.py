"""Divergence-free boundary lifting built from a radial cut-off.

The lifting is V = (lam/2) * (-Delta + grad div)(g e1) with generating
scalar g(x) = cutoff(|x - center|) * y^2, where y is the coordinate along
axis 2 measured from the obstacle center.  It is divergence free as an
operator identity and equals -lam * e1 wherever the cut-off is identically
one, which hands the obstacle velocity to the periodic-box solver without
any boundary mesh.

V, its jacobian, and its laplacian are exact derivatives of g up to order
four, built by one rule rather than by spectral differentiation of the
sampled generator.  Each derivative of g is a sum of c x^beta (D^m phi)(rho)
in centred coordinates x, with D = (1/rho) d/drho, and differentiates term
by term: d_i(x^beta D^m phi) = beta_i x^(beta - e_i) D^m phi +
x^(beta + e_i) D^(m+1) phi.  The profile phi is one quintic in the radius,
and ``numpy.polynomial`` evaluates it and its derivatives from one tuple of
coefficients.  The cut-off is only C^2, so sampled-then-spectral derivatives
would be truncation limited, while the exact derivatives keep both defining
properties at every grid point.  The generator is compactly supported inside
the box, so periodization is exact.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial

from .fields import (
    GridSpec,
    ScalarField,
    VectorField,
    _lock,
    _owned_copy,
)
from .norms import lq_norm, negative_norm_surrogate


# Coefficients of t^0..t^5 in the profile of CutoffSpec.
_PROFILE = (1.0, 0.0, 0.0, -10.0, 15.0, -6.0)


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
        return polynomial.polyval(t, _PROFILE)

    def derivative(self, rho, order: int) -> np.ndarray:
        """Radial derivative of the profile, order 1 through 4.

        Orders 3 and 4 are classical only strictly inside the transition
        zone; outside it (and at its edges) all orders return zero.
        """
        if order not in (1, 2, 3, 4):
            raise ValueError(f"order must be in 1..4, got {order}")
        rho = np.asarray(rho, dtype=np.float64)
        inside = (rho > self.inner_radius) & (rho < self.outer_radius)
        t = np.where(inside, (rho - self.inner_radius) / self.width, 0.0)
        raw = polynomial.polyval(t, polynomial.polyder(_PROFILE, order))
        return np.where(inside, raw / self.width**order, 0.0)


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
    ``laplacian`` stacks the componentwise Laplacian.  Both are exact
    derivatives of the generator, built by the module's differentiation
    rule, so trace(jacobian) vanishes to roundoff and the values feed the
    nonlinearity without further differentiation.
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

    def divergence_values(self) -> np.ndarray:
        """Pointwise divergence as the trace of the exact jacobian."""
        return np.trace(self.jacobian, axis1=0, axis2=1)


def _radial_derivatives(spec: CutoffSpec, rho: np.ndarray) -> list:
    """D^m phi for m = 0..4 (all a fourth derivative of g needs), D = (1/rho) d/drho.

    D^m phi is a sum of c phi^(k) rho^p, and D(phi^(k) rho^p) =
    phi^(k+1) rho^(p-1) + p phi^(k) rho^(p-2).  For m >= 1 every term has
    k >= 1 and vanishes on the inner plateau, so the stand-in radius 1 at
    rho = 0 never counts.
    """
    safe = np.where(rho > 0, rho, 1.0)
    profile = [spec.value(rho)] + [spec.derivative(rho, k) for k in range(1, 5)]
    terms, out = Counter({(0, 0): 1}), []
    for _ in range(5):
        out.append(sum(c * profile[k] * safe**p for (k, p), c in terms.items()))
        step = Counter()
        for (k, p), c in terms.items():
            step[k + 1, p - 1] += c
            if p:
                step[k, p - 2] += c * p
        terms = step
    return out


@lru_cache(maxsize=None)
def _g_terms(alpha: tuple[int, ...], dim: int) -> tuple:
    """d^alpha g for a sorted tuple of axes, as items ((beta, m), c) standing for
    the sum of c x^beta (D^m phi)(rho); built by the rule of the module docstring."""
    if not alpha:
        return (((tuple(2 * (j == 1) for j in range(dim)), 0), 1),)
    i, terms = alpha[-1], Counter()
    for (beta, m), c in _g_terms(alpha[:-1], dim):
        if beta[i]:
            terms[beta[:i] + (beta[i] - 1,) + beta[i + 1 :], m] += c * beta[i]
        terms[beta[:i] + (beta[i] + 1,) + beta[i + 1 :], m + 1] += c
    return tuple(terms.items())


def build_lifting(lam: float, spec: CutoffSpec, grid: GridSpec) -> LiftingField:
    """Construct the lifting field for drift coefficient ``lam`` >= 0.

    The field records ``lam`` as its drift, which the nonlinearity and the
    Picard drivers read, so build it at the drift of the problem it enters.
    ``lam = 0`` yields the zero field (the lifting is linear in the drift);
    the obstacle-free problem passes no lifting at all.
    """
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    _check_support(spec, grid)
    dim, half_lam = grid.dim, 0.5 * lam
    x = _centered_coordinates(grid)
    radial = _radial_derivatives(spec, center_distance(grid))

    def evaluate(i: int, axes: tuple[int, ...], n_lap: int) -> np.ndarray:
        """(lam/2) d^axes Delta^n_lap (d_i d_1 g - delta_i1 Delta g)."""
        terms = Counter()
        parts = [(1, axes + (i, 0), n_lap)] + [(-1, axes, n_lap + 1)] * (i == 0)
        for sign, base, count in parts:
            for pairs in itertools.product(range(dim), repeat=count):
                for key, c in _g_terms(tuple(sorted(base + 2 * pairs)), dim):
                    terms[key] += sign * c
        out = np.zeros(grid.shape)
        for m in sorted({m for _, m in terms}):
            poly = sum(
                c * math.prod(x[j] ** p for j, p in enumerate(beta) if p)
                for (beta, mm), c in terms.items()
                if mm == m and c
            )
            out += poly * radial[m]
        return half_lam * out

    velocity = [evaluate(i, (), 0) for i in range(dim)]
    jacobian = [[evaluate(i, (k,), 0) for k in range(dim)] for i in range(dim)]
    laplacian = [evaluate(i, (), 1) for i in range(dim)]
    return LiftingField(
        VectorField(grid, np.array(velocity)),
        float(lam),
        np.array(jacobian),
        np.array(laplacian),
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
