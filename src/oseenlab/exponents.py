"""Exponent arithmetic for the a-priori estimates and the contraction setup.

Everything here is exact rational/float arithmetic on Lebesgue exponents:
the resolvent-weight exponent M and the planar correction delta, the
interpolation exponent theta, admissibility windows for the steady and
time-periodic nonlinear problems, and the exponent interval for the
radius-to-data schedule lambda = epsilon = rho**gamma.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

PROBLEM_LINEAR = "linear-full"
PROBLEM_STEADY = "steady-nonlinear"
PROBLEM_TP = "timeperiodic-nonlinear"

_PROBLEMS = (PROBLEM_LINEAR, PROBLEM_STEADY, PROBLEM_TP)

# Conservative values of the bilinear-estimate exponents used by every
# profile: the top of the eta range and just under the open zeta ceiling.
ETA_FALLBACK = 2.0
ZETA_FALLBACK = 1.0 - 1e-6


def s_exponent(n: int, r: float) -> float:
    """The wake-weight companion exponent s = (n+1) r / (n+1-r); needs r < n+1."""
    _check_dim(n)
    if not 1.0 < r < n + 1:
        raise ValueError(f"r must lie in (1, n+1) = (1, {n + 1}), got {r}")
    return (n + 1) * r / (n + 1 - r)


def exponents_Mdelta(n: int, r: float) -> tuple[int, int]:
    """Resolvent-weight exponent M and planar correction delta.

    M = 2 on ((n+1)/n, n/(n-1)], 0 on (n/(n-1), n), 1 on [n, n+1);
    delta = 1 exactly when n = r = 2.
    """
    _check_dim(n)
    lower = (n + 1) / n
    upper = n + 1
    if not lower < r < upper:
        raise ValueError(
            f"r must lie in ((n+1)/n, n+1) = ({lower}, {upper}), got {r}"
        )
    if r <= n / (n - 1):
        m = 2
    elif r < n:
        m = 0
    else:
        m = 1
    delta = 1 if (n == 2 and r == 2) else 0
    return m, delta


def theta_exponent(n: int, q: float, r: float) -> float:
    """Interpolation exponent theta = q s / (n (q - s) + q s) in [0, 1].

    Defined when s = (n+1) r / (n+1-r) <= q, equivalently
    1/q <= 1/r - 1/(n+1).  Both algebraic forms are evaluated and must agree.
    """
    _check_dim(n)
    if not q > 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    s = s_exponent(n, r)
    if s > q * (1.0 + 1e-12):
        raise ValueError(
            f"theta undefined: s = {s} exceeds q = {q} (need 1/q <= 1/r - 1/(n+1))"
        )
    s = min(s, q)
    theta = q * s / (n * (q - s) + q * s)
    theta_alt = (n + 1) * q * r / (n * (n + 1) * (q - r) + q * r)
    if abs(theta - theta_alt) > 1e-10 * max(1.0, abs(theta)):
        raise AssertionError(
            f"theta forms disagree: {theta} vs {theta_alt} for n={n}, q={q}, r={r}"
        )
    if not -1e-12 <= theta <= 1.0 + 1e-12:
        raise AssertionError(f"theta = {theta} outside [0, 1]")
    return min(max(theta, 0.0), 1.0)


def admissibility(n: int, q: float, r: float, problem: str) -> tuple[bool, list[str]]:
    """Check an exponent pair against one problem's admissibility window.

    Returns (admissible, violated) where ``violated`` lists the failing
    conditions as human-readable inequality strings.  Endpoint semantics are
    exact: closed and open ends are enforced as written.
    """
    if problem not in _PROBLEMS:
        raise ValueError(f"problem must be one of {_PROBLEMS}, got {problem!r}")
    violated: list[str] = []

    def check(ok: bool, label: str) -> None:
        if not ok:
            violated.append(label)

    check(q > 1.0, "1 < q")
    check(r > 1.0, "1 < r")

    if problem == PROBLEM_LINEAR:
        check(n >= 2, "n >= 2")
        check((n + 1) / n < r, "(n+1)/n < r")
        check(r < n + 1, "r < n+1")
        if r > 1.0 and r < n + 1:
            check(1.0 / q <= 1.0 / r - 1.0 / (n + 1), "1/q <= 1/r - 1/(n+1)")
        return (not violated, violated)

    check(n >= 3, "n >= 3")
    if n < 3 or q <= 1.0 or r <= 1.0:
        return (False, violated)

    inv_r = 1.0 / r
    inv_q = 1.0 / q
    r_ceiling = (n - 1) / n if n in (3, 4) else n / (n + 1)

    if problem == PROBLEM_STEADY:
        check(q >= n / 3.0, "q >= n/3")
        check(inv_q / 3.0 + 1.0 / (n + 1) <= inv_r, "1/(3q) + 1/(n+1) <= 1/r")
        check(2.0 * inv_q - 4.0 / n <= inv_r, "2/q - 4/n <= 1/r")
        check(2.0 / (n + 1) <= inv_r, "2/(n+1) <= 1/r")
        check(inv_r < r_ceiling, "1/r < (n-1)/n" if n in (3, 4) else "1/r < n/(n+1)")
        return (not violated, violated)

    # time-periodic window
    check((n + 2) / 3.0 < q, "(n+2)/3 < q")
    check(q <= n + 1, "q <= n+1")
    check(n * (n + 1) / (n * n - n - 1.0) < q, "n(n+1)/(n^2-n-1) < q")
    check(2.0 * inv_q - 4.0 / n <= inv_r, "2/q - 4/n <= 1/r")
    check(inv_r <= 2.0 * inv_q, "1/r <= 2/q")
    check(inv_q + 1.0 / (n + 1) <= inv_r, "1/q + 1/(n+1) <= 1/r")
    check(inv_r < r_ceiling, "1/r < (n-1)/n" if n in (3, 4) else "1/r < n/(n+1)")
    return (not violated, violated)


def gamma_interval(
    n: int, m_exponent: float, theta: float, zeta: float, eta: float
) -> tuple[float, float]:
    """Open interval of admissible schedule exponents gamma.

    The interval is (max(1, (n+1)/(n+1-M)), (n+1)/max(theta, zeta, M+eta)),
    nonempty exactly when max(theta, zeta, M+eta) < n+1-M.
    """
    _check_dim(n)
    if m_exponent < 0 or m_exponent >= n + 1:
        raise ValueError(f"M must lie in [0, n+1), got {m_exponent}")
    for name, value in (("theta", theta), ("zeta", zeta), ("eta", eta)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    top = max(theta, zeta, m_exponent + eta)
    if top >= n + 1 - m_exponent:
        raise ValueError(
            f"empty gamma interval: max(theta, zeta, M+eta) = {top} "
            f">= n+1-M = {n + 1 - m_exponent}"
        )
    lower = max(1.0, (n + 1) / (n + 1 - m_exponent))
    upper = math.inf if top == 0 else (n + 1) / top
    return (lower, upper)


@dataclass(frozen=True)
class ExponentProfile:
    """The exponent data of one (n, q, r) configuration.

    Only n, q and r are stored; ``m_exponent``, ``theta`` and the open
    schedule interval ``gamma_range`` follow from them, and an inadmissible
    triple raises at construction.  ``eta`` and ``zeta`` are the conservative
    bilinear-estimate exponents ``ETA_FALLBACK`` and ``ZETA_FALLBACK``.
    """

    n: int
    q: float
    r: float

    eta = ETA_FALLBACK
    zeta = ZETA_FALLBACK

    def __post_init__(self) -> None:
        _check_dim(self.n)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "r", float(self.r))
        _ = self.gamma_range  # an inadmissible triple raises here

    @property
    def m_exponent(self) -> int:
        return exponents_Mdelta(self.n, self.r)[0]

    @property
    def theta(self) -> float:
        return theta_exponent(self.n, self.q, self.r)

    @property
    def gamma_range(self) -> tuple[float, float]:
        return gamma_interval(self.n, self.m_exponent, self.theta, self.zeta, self.eta)

    def gamma_midpoint(self) -> float:
        lower, upper = self.gamma_range
        if math.isinf(upper):
            return lower + 1.0
        return 0.5 * (lower + upper)


def _check_dim(n: int) -> None:
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 2:
        raise ValueError(f"dimension n must be an integer >= 2, got {n}")
