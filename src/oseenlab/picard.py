"""Contraction-driven fixed-point solvers for the nonlinear problem.

Both drivers hold the forcing to the small-data gate, then take two steps.
The contraction loop, u <- solve(f + nonlinearity(u)), keeps every iterate
inside the ball of radius rho, stops on a relative update below the
tolerance and gives up after three growing updates in a row; every failure
raises a :class:`PicardRunError` carrying the partial report.  The
certificate solves once more at the last iterate and measures the change.
The steady driver contracts in the wake-weighted norm; the time-periodic
driver solves mode by mode and contracts in the decomposed norm
(wake-weighted norm of the time average plus maximal-regularity norm of the
oscillation).  The harness's second start runs the loop alone, on a forcing
that already passed the gate: no forcing size, no certificate.

The loop evaluates nothing it already knows.  The default start is
solve(f + nonlinearity(0)), which is solve(f) bit for bit when there is no
lifting, so that run skips the nonlinearity of zero.  The driver norm is a
norm, so the last iterate norm plus the update norm bounds the new one; the
new norm is measured only when that bound could leave the ball or meet the
stop test, so every decision, and the solution norm the report carries, is
the one the exact norms give, and no stack outlives its last read.

A lifting of None is the obstacle-free problem (V = 0).  A given lifting
must live on the forcing's grid and be built at the config's drift: the
nonlinearity takes the drift of its -lam * d1(V) term from the lifting.

The radius schedule ties the drift coefficient and the data budget to one
small parameter: lam = epsilon = rho^gamma, with rho halved until the two
smallness inequalities hold for the supplied fitted constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exponents import (
    PROBLEM_STEADY,
    PROBLEM_TP,
    ExponentProfile,
    admissibility,
)
from .fields import GridSpec, SpatialField, TimePeriodicField
from .lifting import LiftingField
from .nonlinear import nonlinearity
from .norms import (
    _default_time_samples,
    _maxreg_norm,
    _negative_norm_by_transforms,
    lambda_norm,
    lq_norm,
)
from .oseen import (
    OseenParams,
    SolveReport,
    StokesPair,
    project_steady,
    residual,
    solve_steady,
    solve_timeperiodic,
)


class GateError(ValueError):
    """Forcing exceeds the small-data budget epsilon."""


class RadiusFloorError(ValueError):
    """Radius halving hit the floor before the smallness inequalities held."""


class PicardRunError(RuntimeError):
    """A fixed-point run that failed after it started; carries its partial
    report (its ``final_residual`` is NaN)."""

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
    """Radius, drift, data budget, and stopping control.

    :meth:`from_schedule` sets lam = epsilon = rho**gamma; configs built by
    hand may deviate.
    """

    profile: ExponentProfile
    rho: float
    lam: float
    epsilon: float
    tol: float

    def __post_init__(self) -> None:
        if not 0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(
                f"epsilon must be positive and finite, got {self.epsilon}"
            )
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")

    @classmethod
    def from_schedule(
        cls, profile: ExponentProfile, rho: float, gamma: float, tol: float
    ) -> "PicardConfig":
        if not gamma > 1:
            raise ValueError(f"gamma must exceed 1, got {gamma}")
        target = rho**gamma
        return cls(
            profile=profile,
            rho=rho,
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
_MAX_ITER = 60  # iteration budget of the fixed-point loop


def radius_schedule(
    rho: float,
    gamma: float,
    profile: ExponentProfile,
    constant: float,
    tol: float,
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
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
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
    of the oscillation; the metric the time-periodic driver contracts in.
    The oscillation is read from ``u`` in place (the last argument), not
    copied out of it."""
    return lambda_norm(project_steady(u), lam, q, r) + _maxreg_norm(
        u, q, _default_time_samples(u.max_mode, q), True
    )


def data_size(f: SpatialField | TimePeriodicField, q: float, r: float) -> float:
    """The size the small-data gate bounds by epsilon: the L^q norm of the
    forcing plus the negative-norm surrogate of its time average, kept on the
    transform path even at r = 2: this size scales the Picard forcing, whose
    bits reach ``contraction_rate``, which the benchmark's golden gate holds to
    rtol 1e-8.  The pin goes with ROADMAP item 2's recalibrated gate."""
    return lq_norm(f, q) + _negative_norm_by_transforms(project_steady(f), r)


def _check_lifting(lifting: LiftingField | None, grid: GridSpec, lam: float) -> None:
    if lifting is None:
        return
    if lifting.grid != grid:
        raise ValueError("lifting lives on a different grid")
    if abs(lifting.lambda_used - lam) > 1e-12 * max(lam, 1.0):
        raise ValueError(
            f"lifting was built for drift {lifting.lambda_used}, "
            f"config wants {lam}"
        )


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


def _fixed_point(
    f,
    cfg: PicardConfig,
    lifting: LiftingField | None,
    problem: str,
    solve,
    norm,
) -> tuple[StokesPair, SolveReport]:
    """Both drivers: the gate, :func:`_contraction_loop`, :func:`_certificate`.

    ``solve(forcing, params)`` gives a :class:`StokesPair`; ``norm`` has the
    signature of :func:`lambda_norm`.  The returned pair holds the last
    iterate and the certificate solve's pressure, which pairs with it.
    """
    kind = SpatialField if problem == PROBLEM_STEADY else TimePeriodicField
    if not isinstance(f, kind):
        raise TypeError(f"f must be a {kind.__name__}, not {type(f).__name__}")
    if f.ncomp != f.grid.dim:
        raise ValueError("f must be vector-valued")
    _check_admissible(cfg.profile, f.grid, problem)
    size = data_size(f, cfg.profile.q, cfg.profile.r)
    if size > cfg.epsilon * (1.0 + 1e-12):
        raise GateError(
            f"forcing size {size:.6e} exceeds the budget {cfg.epsilon:.6e}"
        )
    _check_lifting(lifting, f.grid, cfg.lam)
    u, updates, scale = _contraction_loop(f, cfg, lifting, None, solve, norm)
    pair, certificate, residuals = _certificate(f, u, cfg, lifting, solve, norm)
    return pair, SolveReport(
        updates, certificate, *residuals, solution_norm=scale, forcing_size=size
    )


def _contraction_loop(f, cfg, lifting, initial, solve, norm) -> tuple:
    """The loop from ``initial`` (None: the default start), held only until taken;
    returns the last iterate, the update norms and its exact driver norm."""
    q, r = cfg.profile.q, cfg.profile.r
    params = OseenParams(cfg.lam)
    if initial is None:
        u = solve(
            f if lifting is None else f + nonlinearity(f * 0.0, lifting), params
        ).velocity
    else:
        u = initial
    del initial

    updates: list[float] = []
    grow_streak = 0
    ball = cfg.rho * (1.0 + 1e-9)
    scale = norm(u, cfg.lam, q, r)
    if scale > ball:
        raise RadiusEscapeError(
            f"initial iterate norm {scale:.6e} exceeds rho {cfg.rho:.6e}",
            SolveReport(tuple(updates)),
        )
    for _ in range(_MAX_ITER):
        u_new = solve(f + nonlinearity(u, lifting), params).velocity
        step, u = u_new - u, u_new  # the old iterate goes before the norm
        delta = norm(step, cfg.lam, q, r)
        del step
        updates.append(delta)
        # The triangle inequality, with slack for roundoff, bounds the new
        # norm by the last one (or its bound) plus the update's.
        bound = (scale + delta) * (1.0 + 1e-9)
        if bound <= ball and delta > cfg.tol * bound:
            scale = bound
        else:
            scale = norm(u, cfg.lam, q, r)
            if scale > ball:
                raise RadiusEscapeError(
                    f"iterate norm {scale:.6e} left the ball of radius "
                    f"{cfg.rho:.6e}",
                    SolveReport(tuple(updates)),
                )
            if delta <= cfg.tol * scale:
                break
        if len(updates) >= 2 and updates[-2] > 0 and delta >= updates[-2]:
            grow_streak += 1
            if grow_streak >= 3:
                raise PicardDivergenceError(
                    "update norms grew three times in a row",
                    SolveReport(tuple(updates)),
                )
        else:
            grow_streak = 0
    else:
        raise PicardConvergenceError(
            f"no convergence within {_MAX_ITER} iterations",
            SolveReport(tuple(updates)),
        )
    return u, tuple(updates), scale


def _certificate(f, u, cfg, lifting, solve, norm) -> tuple:
    """One more solve at ``u``: the pair of ``u`` and that solve's pressure,
    the driver norm of the change, and the pair's residuals."""
    params = OseenParams(cfg.lam)
    forcing_star = f + nonlinearity(u, lifting)
    change, p_check = solve(forcing_star, params)
    pair = StokesPair(u, p_check)
    residuals = residual(pair, forcing_star, params)
    del forcing_star
    change -= u  # rebinding drops the certificate solve's velocity
    return pair, norm(change, cfg.lam, cfg.profile.q, cfg.profile.r), residuals


def picard_steady(
    f: SpatialField,
    cfg: PicardConfig,
    lifting: LiftingField | None = None,
) -> tuple[StokesPair, SolveReport]:
    """Fixed point of u = solve(f + nonlinearity(u)) for steady forcing.

    ``lifting`` None (the default) is the obstacle-free problem; a lifting
    must be built at ``cfg.lam``.  The initial iterate is one linear
    solve of the forcing plus the u-independent part of the nonlinearity,
    which is -0.0 everywhere with no lifting, so that start is solve(f).  Any
    start inside the radius ball converges to the same fixed point at small
    data.  An iterate's norm is measured only when its triangle bound (the
    last norm plus the update's, times 1 + 1e-9) could leave the ball or
    stop the loop.  The pressure and the residuals come from the certificate
    solve of the returned velocity; the report carries that velocity's exact
    driver norm and the forcing size the gate measured.
    """
    return _fixed_point(
        f, cfg, lifting, PROBLEM_STEADY, solve_steady, lambda_norm
    )


def picard_timeperiodic(
    f: TimePeriodicField,
    cfg: PicardConfig,
    lifting: LiftingField | None = None,
) -> tuple[StokesPair, SolveReport]:
    """Fixed point of the time-periodic problem; returns the stack pair.

    Stopping, the radius ball, and the certificate all use the decomposed
    norm from :func:`driver_norm_timeperiodic`.  The lifting, the initial
    iterate and the pressure follow :func:`picard_steady`.
    """
    return _fixed_point(
        f, cfg, lifting, PROBLEM_TP, solve_timeperiodic,
        driver_norm_timeperiodic,
    )
