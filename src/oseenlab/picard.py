"""Contraction-driven fixed-point solvers for the nonlinear problem.

Both drivers run one loop, u <- solve(f + nonlinearity(u)).  The steady
driver solves with the drift solve and measures progress in the
wake-weighted norm; the time-periodic driver solves mode by mode and
measures progress in the decomposed norm (wake-weighted norm of the time
average plus maximal-regularity norm of the oscillation).  The loop enforces
the small-data gate on the forcing, keeps every iterate inside the ball of
radius rho, stops on a relative update below the tolerance, gives up after
three growing updates in a row, and re-derives a fixed-point certificate
from scratch after convergence.  Every failure after the start raises a
:class:`PicardRunError` carrying the partial report.

The radius schedule ties the drift coefficient and the data budget to one
small parameter: lam = epsilon = rho^gamma, with rho halved until the two
smallness inequalities hold for the supplied fitted constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import (
    PROBLEM_STEADY,
    PROBLEM_TP,
    ExponentProfile,
    admissibility,
)
from .fields import GridSpec, TimePeriodicField, VectorField
from .lifting import LiftingField, build_lifting, default_cutoff
from .nonlinear import nonlinearity
from .norms import lambda_norm, lq_norm, maxreg_norm, negative_norm_surrogate
from .oseen import (
    OseenParams,
    SolveReport,
    StokesPair,
    contraction_rate_from_updates,
    project_oscillatory,
    residual,
    residual_timeperiodic,
    solve_steady,
    solve_timeperiodic,
)


class GateError(ValueError):
    """Forcing exceeds the small-data budget epsilon."""


class RadiusFloorError(ValueError):
    """Radius halving hit the floor before the smallness inequalities held."""


class PicardRunError(RuntimeError):
    """A fixed-point run that failed after it started; carries its partial
    report (``converged`` is False)."""

    def __init__(self, message: str, report: SolveReport) -> None:
        super().__init__(message)
        self.report = report


class RadiusEscapeError(PicardRunError):
    """An iterate left the radius-rho ball."""


class PicardDivergenceError(PicardRunError):
    """Updates grew three times in a row."""


class PicardConvergenceError(PicardRunError):
    """Iteration budget exhausted before the tolerance."""


@dataclass(frozen=True)
class PicardConfig:
    """Radius, schedule exponent, drift, data budget, and stopping control.

    Under the active schedule lam = epsilon = rho**gamma; configs built by
    hand may deviate.
    """

    profile: ExponentProfile
    rho: float
    gamma: float
    lam: float
    epsilon: float
    tol: float = 1e-10
    max_iter: int = 60

    def __post_init__(self) -> None:
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not self.gamma > 1:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")

    @classmethod
    def from_schedule(
        cls, profile: ExponentProfile, rho: float, gamma: float, tol: float = 1e-10
    ) -> "PicardConfig":
        target = rho**gamma
        return cls(
            profile=profile,
            rho=rho,
            gamma=gamma,
            lam=target,
            epsilon=target,
            tol=tol,
        )


def smallness_terms(
    profile: ExponentProfile, rho: float, gamma: float, constant: float
) -> tuple[float, float]:
    """Left-hand sides of the two smallness inequalities at radius rho.

    The first must stay below rho (self-mapping), the second below 1/2
    (contraction).  All four schedule exponents are checked to exceed 1,
    which is what makes both sides vanish faster than rho as rho shrinks.
    """
    np1 = profile.n + 1
    exps = (
        gamma - gamma * profile.m_exponent / np1,
        2.0 - gamma * profile.theta / np1,
        2.0 - gamma * profile.zeta / np1,
        2.0 - gamma * (profile.m_exponent + profile.eta) / np1,
    )
    if min(exps) <= 1.0:
        raise ValueError(
            f"schedule exponents {exps} must all exceed 1; gamma {gamma} is "
            f"outside the admissible interval {profile.gamma_range}"
        )
    first = constant * sum(rho**e for e in exps)
    second = constant * sum(rho ** (e - 1.0) for e in exps[1:])
    return first, second


_RADIUS_FLOOR = 1e-8


def radius_schedule(
    rho: float,
    gamma: float,
    profile: ExponentProfile,
    constant: float,
    tol: float = 1e-10,
) -> PicardConfig:
    """Halve rho until both smallness inequalities hold, then build a config.

    ``constant`` is the fitted stand-in for the estimate constants; the
    returned config carries lam = epsilon = rho**gamma.  Raises
    :class:`RadiusFloorError` when rho falls below 1e-8 unsatisfied.
    """
    lower, upper = profile.gamma_range
    if not lower < gamma < upper:
        raise ValueError(
            f"gamma {gamma} outside the open interval ({lower}, {upper})"
        )
    if not constant > 0:
        raise ValueError(f"constant must be positive, got {constant}")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    while rho >= _RADIUS_FLOOR:
        first, second = smallness_terms(profile, rho, gamma, constant)
        if first <= rho and second <= 0.5:
            return PicardConfig.from_schedule(profile, rho, gamma, tol=tol)
        rho *= 0.5
    raise RadiusFloorError(
        f"no radius above the floor {_RADIUS_FLOOR} satisfies the smallness "
        f"inequalities with constant {constant}"
    )


def driver_norm_timeperiodic(
    u: TimePeriodicField, lam: float, q: float, r: float
) -> float:
    """Wake-weighted norm of the time average plus maximal-regularity norm
    of the oscillation; the metric the time-periodic driver contracts in."""
    return lambda_norm(u.steady_part(), lam, q, r) + maxreg_norm(
        project_oscillatory(u), q
    )


def data_size(f: VectorField | TimePeriodicField, q: float, r: float) -> float:
    """The size the small-data gate bounds by epsilon: the L^q norm of the
    forcing plus the negative-norm surrogate of its time average."""
    average = f.steady_part() if isinstance(f, TimePeriodicField) else f
    return lq_norm(f, q) + negative_norm_surrogate(average, r)


def _resolve_lifting(
    lifting: LiftingField | None, grid: GridSpec, lam: float
) -> LiftingField:
    if lifting is None:
        return build_lifting(lam, default_cutoff(grid), grid)
    if lifting.grid != grid:
        raise ValueError("lifting lives on a different grid")
    # A lifting built at drift 0 is identically zero and encodes the
    # obstacle-free problem; it is valid at any drift.  Any other value
    # must match the config.
    if lifting.lambda_used != 0.0 and abs(lifting.lambda_used - lam) > 1e-12 * max(
        lam, 1.0
    ):
        raise ValueError(
            f"lifting was built for drift {lifting.lambda_used}, "
            f"config wants {lam}"
        )
    return lifting


def _check_admissible(profile: ExponentProfile, grid: GridSpec, problem: str) -> None:
    if profile.n != grid.dim:
        raise ValueError(
            f"profile dimension {profile.n} does not match grid dim {grid.dim}"
        )
    ok, violated = admissibility(profile.n, profile.q, profile.r, problem)
    if not ok:
        raise ValueError(
            f"(q, r) = ({profile.q}, {profile.r}) inadmissible for {problem}: "
            + "; ".join(violated)
        )


def _report(
    cfg: PicardConfig,
    updates: list[float],
    certificate: float | None = None,
    residuals: tuple[float, float] = (float("nan"), float("nan")),
) -> SolveReport:
    """Run record; without a certificate it is the partial report of a failure."""
    return SolveReport(
        iterates=tuple(updates),
        contraction_rate=contraction_rate_from_updates(updates),
        final_residual=float("nan") if certificate is None else certificate,
        converged=certificate is not None,
        residual_momentum=residuals[0],
        residual_div=residuals[1],
    )


def _fixed_point(
    f,
    cfg: PicardConfig,
    lifting: LiftingField | None,
    initial,
    problem: str,
    zeros,
    solve,
    norm,
    residual_of,
    certificate_pressure: bool,
):
    """The contraction loop behind both drivers; returns (u, p, report).

    ``solve(forcing, params)`` gives (velocity, pressure), ``norm`` has the
    signature of :func:`lambda_norm`, ``residual_of(u, p, forcing, params)``
    gives the two residual norms and ``zeros()`` builds the zero iterate of
    the default start.  The returned pressure is the last iterate's, or the
    certificate solve's when ``certificate_pressure`` is set.
    """
    grid = f.grid
    _check_admissible(cfg.profile, grid, problem)
    q, r = cfg.profile.q, cfg.profile.r
    size = data_size(f, q, r)
    if size > cfg.epsilon * (1.0 + 1e-12):
        raise GateError(
            f"forcing size {size:.6e} exceeds the budget {cfg.epsilon:.6e}"
        )
    lifting = _resolve_lifting(lifting, grid, cfg.lam)
    params = OseenParams(cfg.lam)

    if initial is None:
        u = solve(f + nonlinearity(zeros(), lifting, cfg.lam), params)[0]
    elif initial.grid != grid:
        raise ValueError("initial iterate lives on a different grid")
    elif getattr(initial, "period", None) != getattr(f, "period", None):
        raise ValueError("initial iterate is incompatible with the forcing")
    elif getattr(initial, "max_mode", None) != getattr(f, "max_mode", None):
        raise ValueError(
            f"initial iterate has max_mode {initial.max_mode}, "
            f"the forcing {f.max_mode}"
        )
    else:
        u = initial

    updates: list[float] = []
    grow_streak = 0
    norm_u = norm(u, cfg.lam, q, r)
    if norm_u > cfg.rho * (1.0 + 1e-9):
        raise RadiusEscapeError(
            f"initial iterate norm {norm_u:.6e} exceeds rho {cfg.rho:.6e}",
            _report(cfg, updates),
        )
    for _ in range(cfg.max_iter):
        u_new, pressure = solve(f + nonlinearity(u, lifting, cfg.lam), params)
        delta = norm(u_new - u, cfg.lam, q, r)
        scale = norm(u_new, cfg.lam, q, r)
        updates.append(delta)
        u = u_new
        if scale > cfg.rho * (1.0 + 1e-9):
            raise RadiusEscapeError(
                f"iterate norm {scale:.6e} left the ball of radius {cfg.rho:.6e}",
                _report(cfg, updates),
            )
        if delta <= cfg.tol * scale:
            break
        if len(updates) >= 2 and updates[-2] > 0 and delta >= updates[-2]:
            grow_streak += 1
            if grow_streak >= 3:
                raise PicardDivergenceError(
                    "update norms grew three times in a row",
                    _report(cfg, updates),
                )
        else:
            grow_streak = 0
    else:
        raise PicardConvergenceError(
            f"no convergence within {cfg.max_iter} iterations",
            _report(cfg, updates),
        )

    forcing_star = f + nonlinearity(u, lifting, cfg.lam)
    u_check, p_check = solve(forcing_star, params)
    certificate = norm(u_check - u, cfg.lam, q, r)
    if certificate_pressure:
        pressure = p_check
    residuals = residual_of(u, pressure, forcing_star, params)
    return u, pressure, _report(cfg, updates, certificate, residuals)


def _solve_steady_pair(forcing: VectorField, params: OseenParams):
    pair = solve_steady(forcing, params)
    return pair.velocity, pair.pressure


def _residual_steady(velocity, pressure, forcing, params):
    return residual(StokesPair(velocity, pressure), forcing, params)


def picard_steady(
    f: VectorField,
    cfg: PicardConfig,
    lifting: LiftingField | None = None,
    initial: VectorField | None = None,
) -> tuple[StokesPair, SolveReport]:
    """Fixed point of u = solve(f + nonlinearity(u)) for steady forcing.

    The default initial iterate is one linear solve of the forcing plus the
    u-independent part of the nonlinearity; any start inside the radius ball
    converges to the same fixed point at small data.  The returned pressure
    and the residuals belong to the last iterate.
    """
    grid = f.grid
    u, pressure, report = _fixed_point(
        f, cfg, lifting, initial, PROBLEM_STEADY, lambda: VectorField.zeros(grid),
        _solve_steady_pair, lambda_norm, _residual_steady, certificate_pressure=False,
    )
    return StokesPair(u, pressure), report


def picard_timeperiodic(
    f: TimePeriodicField,
    cfg: PicardConfig,
    lifting: LiftingField | None = None,
    initial: TimePeriodicField | None = None,
) -> tuple[tuple[TimePeriodicField, TimePeriodicField], SolveReport]:
    """Fixed point of the time-periodic problem; returns (velocity, pressure).

    Stopping, the radius ball, and the certificate all use the decomposed
    norm from :func:`driver_norm_timeperiodic`.  The returned pressure and
    the residuals pair the last iterate with the certificate solve's
    pressure.
    """
    grid = f.grid
    shape = (f.max_mode + 1, grid.dim) + grid.shape
    velocity, pressure, report = _fixed_point(
        f, cfg, lifting, initial, PROBLEM_TP,
        lambda: TimePeriodicField(grid, f.period, np.zeros(shape, dtype=complex)),
        solve_timeperiodic, driver_norm_timeperiodic, residual_timeperiodic,
        certificate_pressure=True,
    )
    return (velocity, pressure), report
