"""Experiment drivers: deterministic sweeps, fitted constants, and reports.

Each runner consumes an :class:`ExperimentConfig`, performs a fully
deterministic sweep, and returns a :class:`ScalingResult` carrying the data
table, least-squares log-log slopes, fitted constants, and pass/fail check
records.  Randomness is confined to seeded generators whose draws attach to
spectral mode indices, so a seed reproduces the same continuum fields on any
grid fine enough to hold them.  Sweeps run sequentially on purpose: the
reports are meant to be byte-for-byte reproducible, and parallelism lives
inside the FFTs instead.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .exponents import (
    ETA_FALLBACK,
    PROBLEM_LINEAR,
    PROBLEM_STEADY,
    PROBLEM_TP,
    ZETA_FALLBACK,
    ExponentProfile,
    admissibility,
    exponents_Mdelta,
    gamma_interval,
    s_exponent,
    theta_exponent,
)
from .fields import (
    GridSpec,
    SpatialField,
    TimePeriodicField,
    _fold_modes,
    _ifftn,
    _lock,
    derivative,
    gradient,
)
from .lifting import (
    build_lifting,
    center_distance,
    default_cutoff,
    lifting_load,
)
from .nonlinear import _convective_samples, convective_product
from .norms import (
    _bochner_gradient_norm,
    _exact_grid,
    lambda_norm,
    lambda_norm_from_pieces,
    lambda_norm_pieces,
    lq_norm,
    maxreg_norm,
    negative_norm_surrogate,
    sobolev_full_norm,
    sobolev_seminorm,
    spacetime_l2_plancherel,
)
from .oseen import (
    OseenParams,
    StokesPair,
    _mode_solution_coeff,
    apply_oseen,
    project_oscillatory,
    project_steady,
    solve_steady,
    solve_timeperiodic,
)
from .picard import (
    PicardConfig,
    _contraction_loop,
    data_size,
    driver_norm_timeperiodic,
    picard_steady,
    picard_timeperiodic,
    radius_schedule,
)


class WakeConstraintError(ValueError):
    """A requested drift lies below the wake-resolution floor of the box."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs for one experiment run; its field defaults are the only ones (the
    INI loader and the experiment table's built-in configs state departures).

    ``lambda_grid`` must be strictly increasing and positive; the
    experiment's table entry adds its drift ceiling, wake floor
    (:attr:`wake_floor`), (q, r) windows and sweep rule; the fixed-point
    runs schedule their own drift and ignore it.  The seeded draws take
    :attr:`draw_modes`, the cube |m_i| <= ``mode_cap`` (default: the grid's),
    and the random forcing :attr:`forcing_modes`: with ``forcing_shell`` set
    its cap is ceil(shell high), it keeps the Euclidean radii in the closed
    interval and ``mode_cap`` shapes only the other draws; ``drift_mode_cap``
    caps its |m_1|.  So a field is the same on every grid that holds it.
    """

    experiment: str
    grid: GridSpec
    lambda_grid: tuple[float, ...] = (1.0,)
    q: float = 2.0
    r: float = 2.0
    period: float = 2.0 * math.pi
    time_modes: int = 1
    seed: int = 0
    sample_count: int = 100
    rho: float = 0.05
    gamma: float | None = None
    tol: float = 1e-10
    mode_cap: int | None = None
    forcing_shell: tuple[float, float] | None = None
    drift_mode_cap: int | None = None

    def __post_init__(self) -> None:
        if self.experiment not in _TABLE:
            raise ValueError(
                f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}"
            )
        spec = _TABLE[self.experiment]
        lams = tuple(float(x) for x in self.lambda_grid)
        # NaN fails every comparison below, so it is refused by name here.
        if not all(math.isfinite(x) for x in lams):
            raise ValueError(f"lambda_grid must be finite, got {lams}")
        if not lams:
            raise ValueError("lambda_grid must not be empty")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("lambda_grid must be strictly increasing")
        if lams[0] <= 0 or lams[-1] > spec.lambda_ceiling * (1.0 + 1e-12):
            raise ValueError(
                f"lambda_grid must lie in (0, {spec.lambda_ceiling}], got "
                f"[{lams[0]}, {lams[-1]}]"
            )
        if not 0 < self.period < math.inf:
            raise ValueError(f"period must be positive and finite, got {self.period}")
        counts = ("seed", "time_modes", "sample_count", "mode_cap", "drift_mode_cap")
        for name in counts:
            value = getattr(self, name)
            if value is None and name.endswith("mode_cap"):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value}")
        if self.time_modes < 1:
            raise ValueError(f"time_modes must be >= 1, got {self.time_modes}")
        if self.sample_count < 1:
            raise ValueError(
                f"sample_count must be >= 1, got {self.sample_count}"
            )
        if not 0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.gamma is not None and not 1 < self.gamma < math.inf:
            raise ValueError(f"gamma must exceed 1 and be finite, got {self.gamma}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.forcing_shell is not None:
            lo, hi = self.forcing_shell
            if not 0 < lo <= hi < math.inf:
                raise ValueError(
                    f"forcing_shell must satisfy 0 < lo <= hi < inf, got "
                    f"{self.forcing_shell}"
                )
        for name in ("q", "r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        n, windows = self.grid.dim, spec.windows
        violated = [v for w in windows for v in admissibility(n, self.q, self.r, w)[1]]
        if violated:
            raise ValueError(
                f"{self.experiment} needs (q, r) = ({self.q}, {self.r}) to meet the "
                f"{' and '.join(windows)} conditions; violated: " + "; ".join(violated)
            )
        if spec.sweep and len(lams) < 5:
            raise ValueError(
                f"{self.experiment} needs at least 5 sweep points, got {len(lams)}"
            )
        span = math.log10(lams[-1] / lams[0])
        if spec.sweep and span < 1.0 - 1e-9:
            raise ValueError(
                f"{self.experiment} needs a sweep spanning >= 1 decade, got {span:.3g}"
            )
        floor = self.wake_floor
        if lams[0] < floor * (1.0 - 1e-12):
            raise WakeConstraintError(
                f"smallest drift {lams[0]} is below the wake floor "
                f"{floor} = 4 / half_period; enlarge the box or raise "
                "the sweep"
            )
        object.__setattr__(self, "lambda_grid", lams)
        if self.forcing_shell is not None:  # a hashable mode-set key
            object.__setattr__(self, "forcing_shell", tuple(self.forcing_shell))
        # Build (and memoise) the draws' mode sets, so a bad cap fails here.
        if (self.mode_cap, self.forcing_shell, self.drift_mode_cap) != (None,) * 3:
            self.draw_modes, self.forcing_modes

    @property
    def wake_floor(self) -> float:
        """4 / half_period for the box-sweep experiments, else 0."""
        box_sweep = _TABLE[self.experiment].box_sweep
        return 4.0 / self.grid.half_period if box_sweep else 0.0

    @property
    def draw_modes(self) -> np.ndarray:
        """The ``mode_cap`` cube: the ``modes`` of every draw but the forcing's."""
        return _mode_list(self.grid, self.mode_cap, None, None)

    @property
    def forcing_modes(self) -> np.ndarray:
        """The random forcing's ``modes`` (the memoised :attr:`draw_modes`
        object when neither a shell nor a drift cap is set)."""
        shell, drift = self.forcing_shell, self.drift_mode_cap
        return _mode_list(self.grid, self.mode_cap, shell, drift)


_RELATIONS = {  # check kind: its symbol and its test
    "le": ("<=", operator.le), "ge": (">=", operator.ge), "lt": ("<", operator.lt)
}


@dataclass(frozen=True)
class CheckRecord:
    """One asserted inequality: value versus bound; the verdict follows."""

    name: str
    value: float
    bound: float
    kind: str  # "le", "ge", or "lt"

    @property
    def passed(self) -> bool:
        return _RELATIONS[self.kind][1](self.value, self.bound)

    def describe(self) -> str:
        op = _RELATIONS[self.kind][0]
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.name}: {self.value:.6g} {op} {self.bound:.6g}"


def _check_le(name: str, value: float, bound: float) -> CheckRecord:
    return CheckRecord(name, float(value), float(bound), "le")


def _check_lt(name: str, value: float, bound: float) -> CheckRecord:
    return CheckRecord(name, float(value), float(bound), "lt")


def _check_ge(name: str, value: float, bound: float) -> CheckRecord:
    return CheckRecord(name, float(value), float(bound), "ge")


@dataclass(frozen=True)
class ScalingResult:
    """Outcome of one experiment: table, slopes, constants, checks, flags."""

    experiment: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    slopes: dict[str, float]
    constants: dict[str, float]
    checks: tuple[CheckRecord, ...]
    flags: tuple[str, ...]

    def __post_init__(self) -> None:
        width = len(self.columns)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(
                    f"row width {len(row)} does not match {width} columns"
                )

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)


# ---------------------------------------------------------------------------
# slope fitting


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x; NaN when undefined."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        return math.nan
    if np.any(x <= 0) or np.any(y <= 0) or not np.all(np.isfinite(y)):
        return math.nan
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def leave_one_out_shift(x, y) -> float:
    """Largest slope change when a single sweep point is removed."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    base = loglog_slope(x, y)
    if not math.isfinite(base) or x.size < 3:
        return math.nan
    worst = 0.0
    for i in range(x.size):
        keep = np.arange(x.size) != i
        shifted = loglog_slope(x[keep], y[keep])
        if not math.isfinite(shifted):
            return math.nan
        worst = max(worst, abs(shifted - base))
    return worst


def _sweep_table(columns, rows, fitted):
    """The float table, each column's values, and log-log slopes against lambda.

    ``fitted`` names the columns whose slopes are fitted.
    """
    table = tuple(tuple(map(float, row)) for row in rows)
    values = {name: [row[i] for row in table] for i, name in enumerate(columns)}
    slopes = {name: loglog_slope(values["lambda"], values[name]) for name in fitted}
    return table, values, slopes


# ---------------------------------------------------------------------------
# seeded random fields, stable across grid refinement


def _check_mode_cap(grid: GridSpec, cap: int) -> None:
    if cap < 1:
        raise ValueError(f"mode cap must be >= 1, got {cap}")
    if cap > grid.dealias_cutoff:
        raise ValueError(
            f"mode cap {cap} exceeds the grid's dealias cutoff "
            f"{grid.dealias_cutoff}; refine the grid"
        )


@functools.lru_cache(maxsize=64)
def _mode_list(
    grid: GridSpec,
    mode_cap: int | None,
    shell: tuple[float, float] | None,
    drift_mode_cap: int | None,
) -> np.ndarray:
    """Half-lattice representatives of the requested mode set.

    One member of every conjugate pair {m, -m} is listed (first nonzero
    coordinate positive) as a memoised, read-only (count, dim) integer array,
    in an order that depends only on the requested caps, never on the grid.
    """
    default = min(4, max(1, grid.points_per_axis // 8))
    cap = int(math.ceil(shell[1])) if shell is not None else (
        mode_cap if mode_cap is not None else default
    )
    _check_mode_cap(grid, cap)
    modes: list[tuple[int, ...]] = []
    for m in itertools.product(range(-cap, cap + 1), repeat=grid.dim):
        if all(v == 0 for v in m):
            continue
        lead = next(v for v in m if v != 0)
        if lead < 0:
            continue
        if shell is not None:
            radius = math.sqrt(sum(v * v for v in m))
            if not shell[0] - 1e-9 <= radius <= shell[1] + 1e-9:
                continue
        if drift_mode_cap is not None and abs(m[0]) > drift_mode_cap:
            continue
        modes.append(m)
    if not modes:
        raise ValueError("the requested mode set is empty")
    return _lock(np.array(modes, dtype=np.int64))


def _draw_modes(grid: GridSpec, modes) -> np.ndarray:
    """A draw's ``modes`` checked against ``grid``; None: the default cube."""
    if modes is None:
        return _mode_list(grid, None, None, None)
    modes = np.asarray(modes)
    if modes.dtype.kind not in "iu" or modes.shape[1:] != (grid.dim,) or not len(modes):
        raise ValueError(
            f"modes must be a nonempty (count, {grid.dim}) integer array, got "
            f"shape {modes.shape} of {modes.dtype}"
        )
    _check_mode_cap(grid, int(np.max(np.abs(modes))))
    return modes


def _coefficients_from_draws(
    grid: GridSpec, modes: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """Hermitian coefficient array with Gaussian weights on the given modes."""
    coeff = np.zeros(grid.shape, dtype=np.complex128)
    value = 0.5 * (draws[:, 0] + 1j * draws[:, 1])
    coeff[tuple((modes % grid.points_per_axis).T)] = value
    coeff[tuple((-modes % grid.points_per_axis).T)] = np.conj(value)
    return coeff


def _normalized(field):
    size = lq_norm(field, 2.0)
    if not size > 0:
        raise ValueError("random field degenerated to zero; change the seed")
    return field * (1.0 / size)


def random_scalar_field(grid: GridSpec, seed_key, *, modes=None) -> SpatialField:
    """Seeded zero-mean scalar field of unit L^2 norm.

    Every seeded draw takes ``modes``, a (count, dim) integer array of
    half-lattice representatives such as :attr:`ExperimentConfig.draw_modes`
    (None: the grid's default cube).
    """
    modes = _draw_modes(grid, modes)
    rng = np.random.default_rng(seed_key)
    coeff = _coefficients_from_draws(grid, modes, rng.standard_normal((len(modes), 2)))
    values = _ifftn(coeff[None], grid.dim).real
    return _normalized(SpatialField._adopt(grid, values))


def random_divergence_free(grid: GridSpec, seed_key, *, modes=None) -> SpatialField:
    """Seeded divergence-free velocity (stream function in 2-D, curl in 3-D)."""
    modes = _draw_modes(grid, modes)
    rng = np.random.default_rng(seed_key)
    if grid.dim == 2:
        psi = _coefficients_from_draws(
            grid, modes, rng.standard_normal((len(modes), 2))
        )
        parts = [
            psi * (1j * grid.wavenumber(1)),
            psi * (-1j * grid.wavenumber(0)),
        ]
    else:
        potential = [
            _coefficients_from_draws(
                grid, modes, rng.standard_normal((len(modes), 2))
            )
            for _ in range(3)
        ]
        w = [grid.wavenumber(axis) for axis in range(3)]
        parts = [
            1j * (w[1] * potential[2] - w[2] * potential[1]),
            1j * (w[2] * potential[0] - w[0] * potential[2]),
            1j * (w[0] * potential[1] - w[1] * potential[0]),
        ]
    field = SpatialField._adopt(grid, _ifftn(np.stack(parts), grid.dim).real)
    return _normalized(field)


def _seeded_stack(grid, period, time_modes, draw, key, mode_zero):
    """Stack of the samples ``mode_zero`` and, at k = 1..K, the seeded fields
    draw(key + [k, 0]) + i draw(key + [k, 1])."""
    modes = [mode_zero]
    for k in range(1, time_modes + 1):
        re, im = (draw(key + [k, j]).components for j in (0, 1))
        modes.append(re + 1j * im)
    return TimePeriodicField.from_modes(grid, period, modes)


def random_oscillatory(
    grid: GridSpec, period: float, time_modes: int, seed_key, *, modes=None
) -> TimePeriodicField:
    """Seeded divergence-free time-periodic field with zero time average."""
    draw = functools.partial(random_divergence_free, grid, modes=modes)
    zero = np.zeros((grid.dim,) + grid.shape)
    stack = _seeded_stack(grid, period, time_modes, draw, list(seed_key), zero)
    return _normalized(stack)


def random_timeperiodic_forcing(
    grid: GridSpec, period: float, time_modes: int, seed_key, *, modes=None
) -> TimePeriodicField:
    """Divergence-free forcing with both a steady part and oscillation."""
    key = list(seed_key)
    draw = functools.partial(random_divergence_free, grid, modes=modes)
    steady = TimePeriodicField.from_steady(draw(key + [0]), period, time_modes)
    zero = np.zeros((grid.dim,) + grid.shape)
    oscillation = _seeded_stack(grid, period, time_modes, draw, key, zero)
    return _normalized(steady + 0.5 * oscillation)


# ---------------------------------------------------------------------------
# fitted smallness constant

# The fit draws _FIT_SAMPLES random forcings and probes each at _FIT_DRIFTS.
_FIT_SAMPLES = 8
_FIT_DRIFTS = (0.25, 1.0, 4.0)


def _integrand_exponents(n: int, q: float, r: float) -> tuple[float, ...]:
    """The Lebesgue exponents of the norms the fit and the ensemble evaluate:
    q, r and the wake exponent s (``_exact_grid`` needs each even)."""
    return (q, r, s_exponent(n, r))


def _padded(coeff: np.ndarray, grid: GridSpec, band: int) -> np.ndarray:
    """Half-layout coefficients on ``grid`` of a field band-limited to
    |m_i| <= ``band``, from its half-layout coefficients ``coeff`` on any grid
    that holds the band: the band's modes are copied, every other mode is 0."""
    dim = grid.dim
    modes, last = np.r_[0 : band + 1, -band:0], np.arange(band + 1)
    index = [modes % coeff.shape[-dim]] * (dim - 1) + [last]
    target = [modes % grid.points_per_axis] * (dim - 1) + [last]
    half = grid.shape[:-1] + (grid.points_per_axis // 2 + 1,)
    out = np.zeros(coeff.shape[: coeff.ndim - dim] + half, dtype=np.complex128)
    out[(Ellipsis,) + np.ix_(*target)] = coeff[(Ellipsis,) + np.ix_(*index)]
    return out


def fit_smallness_constant(
    grid: GridSpec, profile: ExponentProfile, *, seed: int
) -> float:
    """Empirical constant shared by the linear and bilinear inequalities.

    The fit takes the maximum of (a) wake-norm over data-norm ratios of
    drift solves on random divergence-free forcing, and (b) drift-weighted
    bilinear ratios of convective products, across the probe drifts.  The
    result feeds the radius schedule; the fixed-point runs then verify the
    scheduled contraction empirically rather than trusting the fit.

    The random forcings are drawn on the default mode cube of ``grid``, once
    each, on the probe grid :func:`oseenlab.norms._exact_grid`: the coarsest
    grid that integrates their even powers exactly (18^3 for a 32^3 grid at
    q = 4, r = 2), where they are the same continuum fields as on ``grid``.
    Each sample's spectrum (:attr:`SpatialField.coefficients`) serves its
    wake pieces, its r = 2 surrogate and all drifts of its linear probe, whose
    solutions ``SpatialField._from_coefficients`` builds from the velocity
    spectra of ``oseen._mode_solution_coeff``, with no pressure transform.

    A grid exact for fourth powers (N > 4B for band B) also multiplies two
    band-B fields without aliasing, so the convective products are formed
    on the probe grid too.  Their band 2B lies inside the dealias cutoff of
    ``grid``, so no truncation touches them: at r = 2 the weak norm is a
    Parseval sum over the product's spectrum on the probe grid, and the
    strong norm is taken on ``grid``, from that spectrum zero-padded there.
    Each product pairs sample i with sample i + 1 (the last with sample 0),
    so only the current pair and sample 0 are held.
    """
    if profile.n != grid.dim:
        raise ValueError(
            f"profile is for n = {profile.n}, but the grid has dim {grid.dim}"
        )
    n, q, r = profile.n, profile.q, profile.r
    weight = 1.0 / (n + 1)
    modes = _mode_list(grid, None, None, None)
    band = int(np.max(np.abs(modes)))
    # A product of two band-B fields is unaliased where |u|^4 is exact (N > 4B).
    exponents = _integrand_exponents(n, q, r) + (4.0,)
    probe_grid = _exact_grid(grid, band, exponents)

    def probe(i):
        """Sample i's largest linear ratio, its wake pieces and its field on
        the probe grid."""
        g = random_divergence_free(probe_grid, [seed, 101, i], modes=modes)
        numerators = []
        for lam in _FIT_DRIFTS:
            u_coeff, _ = _mode_solution_coeff(probe_grid, g.coefficients, lam, 0.0)
            u = SpatialField._from_coefficients(probe_grid, u_coeff)
            numerators.append(lambda_norm(u, lam, q, r))
        g_data = lq_norm(g, q)
        g_neg = negative_norm_surrogate(g, r)
        linear = max(
            numerator / (g_data + lam ** (-profile.m_exponent * weight) * g_neg)
            for lam, numerator in zip(_FIT_DRIFTS, numerators)
        )
        return linear, lambda_norm_pieces(g, q, r), g

    def bilinear(one, two):
        """The largest bilinear ratio of the product (one . grad) two."""
        _, pieces_one, g_one = one
        _, pieces_two, g_two = two
        acc = _convective_samples(probe_grid, g_one.components, g_two.coefficients)
        unpadded = SpatialField._adopt(probe_grid, acc)
        padded = _padded(unpadded.coefficients, grid, 2 * band)
        product = SpatialField._from_coefficients(grid, padded)
        strong = lq_norm(product, q)
        # At r = 2 the weak norm is a Parseval sum, exact on the smaller probe
        # grid; the transform path of any other r reads the padded samples.
        weak = negative_norm_surrogate(unpadded if r == 2.0 else product, r)
        best = 0.0
        for lam in _FIT_DRIFTS:
            denominator = lambda_norm_from_pieces(
                pieces_one, lam, n
            ) * lambda_norm_from_pieces(pieces_two, lam, n)
            best = max(
                best,
                strong * lam ** (profile.theta * weight) / denominator,
                weak * lam ** (profile.eta * weight) / denominator,
            )
        return best

    probes = map(probe, range(_FIT_SAMPLES))
    first = one = next(probes)
    best = 0.0
    for two in itertools.chain(probes, [first]):
        best = max(best, one[0], bilinear(one, two))
        one = two
    return best


# ---------------------------------------------------------------------------
# recovery of manufactured solutions


def _relative_l2(diff_field, reference_field) -> float:
    return lq_norm(diff_field, 2.0) / lq_norm(reference_field, 2.0)


def _relative_spacetime(diff_field, reference_field) -> float:
    return spacetime_l2_plancherel(diff_field) / spacetime_l2_plancherel(
        reference_field
    )


def _run_mms(cfg: ExperimentConfig) -> ScalingResult:
    """Recover manufactured solutions through every solver path.

    One seeded time-periodic pair is drawn per run and its forcing formed at
    each drift; the linear time-periodic solve must recover the pair, and the
    steady solve of the time-averaged forcing its time average, both to near
    machine accuracy.  The nonlinear steady fixed point, run at its scheduled
    drift with an amplitude below the data gate, must recover the manufactured
    velocity and pressure to 1e-7.
    """
    grid = cfg.grid
    stacks = []
    for random_field, tag in ((random_divergence_free, 21), (random_scalar_field, 22)):
        draw = functools.partial(random_field, grid, modes=cfg.draw_modes)
        key = [cfg.seed, tag]
        zero = draw(key + [0, 0]).components
        stacks.append(_seeded_stack(grid, cfg.period, cfg.time_modes, draw, key, zero))
    manufactured = StokesPair(*stacks)
    u_tp, p_tp = manufactured
    u_star, p_star = project_steady(u_tp), project_steady(p_tp)
    rows = []
    for lam in cfg.lambda_grid:
        params = OseenParams(lam)
        f_tp = apply_oseen(manufactured, params)
        pair = solve_steady(project_steady(f_tp), params)
        steady_u_err = _relative_l2(pair.velocity - u_star, u_star)
        steady_p_err = _relative_l2(pair.pressure - p_star, p_star)
        velocity, pressure = solve_timeperiodic(f_tp, params)
        tp_u_err = _relative_spacetime(velocity - u_tp, u_tp)
        tp_p_err = _relative_spacetime(pressure - p_tp, p_tp)
        rows.append((lam, steady_u_err, steady_p_err, tp_u_err, tp_p_err))

    constants, checks = _mms_nonlinear(cfg)
    columns = (
        "lambda",
        "steady_velocity_error",
        "steady_pressure_error",
        "tp_velocity_error",
        "tp_pressure_error",
    )
    table, values, _ = _sweep_table(columns, rows, ())
    result_checks = [
        _check_le(name + "_max", max(values[name]), 1e-11) for name in columns[1:]
    ]
    result_checks.extend(checks)
    return ScalingResult(
        experiment=cfg.experiment,
        columns=columns,
        rows=table,
        slopes={},
        constants=constants,
        checks=tuple(result_checks),
        flags=(),
    )


def _mms_nonlinear(cfg: ExperimentConfig):
    """Manufactured recovery through the steady fixed-point driver."""
    grid = cfg.grid
    _profile, _gamma, constant, pcfg = _picard_schedule(cfg)
    u_unit = random_divergence_free(grid, [cfg.seed, 31], modes=cfg.draw_modes)
    p_unit = random_scalar_field(grid, [cfg.seed, 32], modes=cfg.draw_modes)
    linear_part = apply_oseen(StokesPair(u_unit, p_unit), OseenParams(pcfg.lam))
    quadratic_part = convective_product(u_unit, u_unit)
    linear_size = data_size(linear_part, cfg.q, cfg.r)
    quadratic_size = data_size(quadratic_part, cfg.q, cfg.r)
    amplitude = 0.8 * min(
        pcfg.epsilon / (2.0 * linear_size),
        math.sqrt(pcfg.epsilon / (2.0 * quadratic_size)),
        pcfg.rho / (2.0 * lambda_norm(u_unit, pcfg.lam, cfg.q, cfg.r)),
    )
    for _ in range(60):
        forcing = linear_part * amplitude + quadratic_part * (amplitude**2)
        size = data_size(forcing, cfg.q, cfg.r)
        if size <= 0.95 * pcfg.epsilon:
            break
        amplitude *= 0.5
    else:
        raise RuntimeError("could not scale the manufactured data under the gate")
    pair, report = picard_steady(forcing, pcfg)
    u_star = u_unit * amplitude
    p_star = p_unit * amplitude
    velocity_error = _relative_l2(pair.velocity - u_star, u_star)
    pressure_error = _relative_l2(pair.pressure - p_star, p_star)
    constants = {
        "picard_lambda": pcfg.lam,
        "picard_epsilon": pcfg.epsilon,
        "picard_rho": pcfg.rho,
        "picard_amplitude": amplitude,
        "picard_data_size": size,
        "picard_iterations": float(report.iterations),
        "picard_velocity_error": velocity_error,
        "picard_pressure_error": pressure_error,
        "fitted_constant": constant,
    }
    checks = [
        _check_le("picard_velocity_error", velocity_error, 1e-7),
        _check_le("picard_pressure_error", pressure_error, 1e-7),
    ]
    return constants, checks


# ---------------------------------------------------------------------------
# a-priori estimate sweeps

_STEADY_COLUMNS = (
    "lambda",
    "seminorm_1r",
    "lq_s",
    "weighted_lq_s",
    "drift_negnorm_1r_surrogate",
    "pressure_lq_r",
    "rhs_line1",
    "ratio_line1",
    "seminorm_2q",
    "drift_lq_q",
    "pressure_gradient_lq_q",
    "rhs_line2",
    "ratio_line2",
)


def _estimate_sweep(cfg, forcing, solve, extra_columns, extra_row, finish):
    """The drift sweep of both scaling runners, steady (K = 0) or not.

    Solves at every drift and measures both steady estimate lines on the
    time averages (:func:`project_steady`) of the solution and the forcing;
    ``extra_row(lam, pair, line)`` appends the runner's own columns, with
    ``line`` the dict of the steady columns.  The lines' constants, checks
    and flags come first, then those ``finish(values, slopes)`` returns.
    Each row's fields, and the spectra they own, end with the row.
    """
    n = cfg.grid.dim
    weight = 1.0 / (n + 1)
    s = s_exponent(n, cfg.r)
    m_exp, delta = exponents_Mdelta(n, cfg.r)
    f_mean = project_steady(forcing)
    f_lq = lq_norm(f_mean, cfg.q)
    f_neg = negative_norm_surrogate(f_mean, cfg.r)
    columns = _STEADY_COLUMNS + extra_columns

    def row(lam):
        pair = solve(forcing, OseenParams(lam))
        velocity = project_steady(pair.velocity)
        pressure = project_steady(pair.pressure)
        drift_derivative = derivative(velocity, 1)
        seminorm_1r = sobolev_seminorm(velocity, 1, cfg.r)
        lq_s = lq_norm(velocity, s)
        weighted_lq_s = lam ** ((1.0 + delta) * weight) * lq_s
        drift_neg = lam * negative_norm_surrogate(drift_derivative, cfg.r)
        pressure_lq_r = lq_norm(pressure, cfg.r)
        rhs_line1 = lam ** (-m_exp * weight) * f_neg
        lhs_line1 = seminorm_1r + weighted_lq_s + drift_neg + pressure_lq_r
        seminorm_2q = sobolev_seminorm(velocity, 2, cfg.q)
        drift_lq_q = lam * lq_norm(drift_derivative, cfg.q)
        pressure_grad = sobolev_seminorm(pressure, 1, cfg.q)
        rhs_line2 = f_lq + rhs_line1
        lhs_line2 = seminorm_2q + drift_lq_q + pressure_grad
        line = (
            lam,
            seminorm_1r,
            lq_s,
            weighted_lq_s,
            drift_neg,
            pressure_lq_r,
            rhs_line1,
            lhs_line1 / rhs_line1,
            seminorm_2q,
            drift_lq_q,
            pressure_grad,
            rhs_line2,
            lhs_line2 / rhs_line2,
        )
        return line + extra_row(lam, pair, dict(zip(_STEADY_COLUMNS, line)))

    rows = [row(lam) for lam in cfg.lambda_grid]
    table, values, slopes = _sweep_table(columns, rows, columns[1:])
    constants = {
        "constant_line1": max(values["ratio_line1"]),
        "constant_line2": max(values["ratio_line2"]),
        "m_exponent": float(m_exp),
        "delta": float(delta),
    }
    checks = [
        _check_ge("weighted_lq_s_slope", slopes["weighted_lq_s"], -0.15)
    ]
    flags = []
    if m_exp == 0:
        for name in ("ratio_line1", "ratio_line2"):
            checks.append(_check_le(name + "_slope", slopes[name], 0.15))
            checks.append(
                _check_le(
                    name + "_leverage",
                    leave_one_out_shift(values["lambda"], values[name]),
                    0.05,
                )
            )
    else:
        flags.append(
            "drift-amplified data weight (M != 0): estimate ratios "
            "scale with a positive drift power, so flatness is reported, "
            "not asserted"
        )
    own_constants, own_checks, own_flags = finish(values, slopes)
    return ScalingResult(
        experiment=cfg.experiment,
        columns=columns,
        rows=table,
        slopes=slopes,
        constants={**constants, **own_constants},
        checks=tuple(checks + own_checks),
        flags=tuple(flags + own_flags),
    )


def _run_scaling_steady(cfg: ExperimentConfig) -> ScalingResult:
    """Sweep the steady solver and test both a-priori estimate lines.

    The forcing is a fixed random divergence-free field plus a gradient
    part; the gradient part must leave the velocity untouched (checked at
    one sweep point) while making the pressure columns nontrivial.
    """
    grid = cfg.grid
    n = grid.dim
    m_exp, delta = exponents_Mdelta(n, cfg.r)
    try:
        theta = theta_exponent(n, cfg.q, cfg.r)
    except ValueError:
        theta = None

    def gradient_part(tag):
        potential = random_scalar_field(grid, [cfg.seed, tag], modes=cfg.draw_modes)
        return gradient(potential)

    forcing = random_divergence_free(
        grid, [cfg.seed, 11], modes=cfg.forcing_modes
    ) + gradient_part(12)
    weight = 1.0 / (n + 1)
    middle = cfg.lambda_grid[len(cfg.lambda_grid) // 2]
    # A pure-gradient perturbation of the data must not move the velocity.  It
    # is solved before the sweep, when no row's fields are held, and compared
    # in the middle row.
    shifted = solve_steady(forcing + gradient_part(13), OseenParams(middle)).velocity
    invariance = math.nan

    def extra_row(lam, pair, line):
        nonlocal invariance
        if lam == middle:
            base = pair.velocity
            invariance = _relative_l2(shifted - base, base)
        lq_q = lq_norm(pair.velocity, cfg.q)
        seminorm_1q = sobolev_seminorm(pair.velocity, 1, cfg.q)
        if theta is None:
            return (lq_q, seminorm_1q, math.nan)
        lhs_full = (
            lam ** ((1.0 + delta) * theta * weight) * lq_q
            + lam ** ((1.0 + delta) * theta * weight / 2.0) * seminorm_1q
            + line["seminorm_2q"]
        )
        return (lq_q, seminorm_1q, lhs_full / line["rhs_line2"])

    def finish(values, slopes):
        constants, checks, flags = {}, [], []
        if theta is None:
            flags.append(
                "full-norm line skipped: the interpolation exponent needs "
                "1/q <= 1/r - 1/(n+1)"
            )
        else:
            constants["constant_fullnorm"] = max(values["ratio_fullnorm"])
            if m_exp == 0:
                checks.append(
                    _check_le(
                        "ratio_fullnorm_slope", slopes["ratio_fullnorm"], 0.15
                    )
                )
        checks.append(
            _check_le("gradient_part_velocity_invariance", invariance, 1e-12)
        )
        return constants, checks, flags

    columns = ("lq_q", "seminorm_1q", "ratio_fullnorm")
    return _estimate_sweep(cfg, forcing, solve_steady, columns, extra_row, finish)


def maxreg_norm_mode_sum(field: TimePeriodicField) -> float:
    """Plancherel evaluation of the maximal-regularity norm, q = 2 only.

    Parseval in time converts period averages into sums over the time modes
    k = -K..K, folded onto the stored modes by :func:`_fold_modes`.  The
    spatial pieces go through the same full-Sobolev code path on the real and
    imaginary parts of each mode, so this is an independent quadrature-free
    cross-check of :func:`oseenlab.norms.maxreg_norm`.
    """

    def mode_terms(k):
        mode = field.modes[k]
        parts = [SpatialField(field.grid, part) for part in (mode.real, mode.imag)]
        spatial = sum(sobolev_full_norm(part, 2, 2.0) ** 2 for part in parts)
        dt = field.omega(k) ** 2 * sum(lq_norm(part, 2.0) ** 2 for part in parts)
        return np.array([spatial, dt])

    totals = _fold_modes(mode_terms(k) for k in range(field.max_mode + 1))
    return math.sqrt(totals[0]) + math.sqrt(totals[1])


def _run_scaling_tp(cfg: ExperimentConfig) -> ScalingResult:
    """Sweep the time-periodic solver: steady lines plus the oscillatory ratio.

    The time-averaged part of the solution must obey the steady estimate
    lines against the averaged forcing, while the oscillatory part's
    maximal-regularity norm over its forcing norm must stay flat in the
    drift (fitted slope within +-0.1).
    """
    grid = cfg.grid
    forcing_free = random_timeperiodic_forcing(
        grid, cfg.period, cfg.time_modes, [cfg.seed, 61], modes=cfg.forcing_modes
    )
    # Gradient parts per time mode keep every pressure column nontrivial.
    def draw(key):
        return gradient(random_scalar_field(grid, key, modes=cfg.draw_modes))

    key = [cfg.seed, 62]
    zero = draw(key + [0, 0]).components
    gradients = _seeded_stack(grid, cfg.period, cfg.time_modes, draw, key, zero)
    forcing = forcing_free + gradients * 0.5
    f_osc_lq = lq_norm(project_oscillatory(forcing), cfg.q)
    plancherel_worst = 0.0

    def extra_row(lam, pair, line):
        nonlocal plancherel_worst
        w_osc = project_oscillatory(pair.velocity)
        maxreg = maxreg_norm(w_osc, cfg.q)
        p_grad = _bochner_gradient_norm(project_oscillatory(pair.pressure), cfg.q)
        if cfg.q == 2.0:
            cross = maxreg_norm_mode_sum(w_osc)
            plancherel_worst = max(
                plancherel_worst, abs(cross - maxreg) / maxreg
            )
        ratio_full = (maxreg + p_grad) / f_osc_lq
        return (maxreg, p_grad, f_osc_lq, maxreg / f_osc_lq, ratio_full)

    def finish(values, slopes):
        constants = {"constant_oscillatory": max(values["ratio_oscillatory"])}
        checks = [
            _check_le(
                "oscillatory_ratio_slope_magnitude",
                abs(slopes["ratio_oscillatory"]),
                0.1,
            ),
            _check_le(
                "oscillatory_ratio_leverage",
                leave_one_out_shift(values["lambda"], values["ratio_oscillatory"]),
                0.05,
            ),
        ]
        if cfg.q == 2.0:
            checks.append(
                _check_le(
                    "maxreg_plancherel_crosscheck", plancherel_worst, 1e-10
                )
            )
        return constants, checks, []

    columns = (
        "maxreg_12q_oscillatory",
        "oscillatory_pressure_gradient_lq_q",
        "oscillatory_forcing_lq_q",
        "ratio_oscillatory",
        "ratio_oscillatory_full",
    )
    return _estimate_sweep(cfg, forcing, solve_timeperiodic, columns, extra_row, finish)


# ---------------------------------------------------------------------------
# bilinear convective estimates

_BILINEAR_NAMES = (
    "steady_strong",
    "steady_weak",
    "osc_strong",
    "osc_weak",
    "mixed_steady_osc",
    "mixed_osc_steady",
)


def _ensemble_grid(cfg: ExperimentConfig) -> GridSpec:
    """The coarsest grid that integrates the bilinear ensemble exactly.

    The draws take :attr:`ExperimentConfig.forcing_modes`, whose modes have
    |m_i| <= B (B = 1 for the built-in shell (1.0, 1.8), whose cap is 2), so
    the convective products have band 2B; :func:`oseenlab.norms._exact_grid`
    gives 10^3 for the built-in 16^3 config, and ``cfg.grid`` itself where
    no coarser grid is exact.
    """
    band = 2 * int(np.max(np.abs(cfg.forcing_modes)))
    exponents = _integrand_exponents(cfg.grid.dim, cfg.q, cfg.r)
    return _exact_grid(cfg.grid, band, exponents)


def _run_bilinear_ensemble(cfg: ExperimentConfig) -> ScalingResult:
    """Fit the convective-estimate constants and drift exponents.

    A fixed ensemble of divergence-free pairs is reused across the whole
    sweep, so each raw ratio is a smooth deterministic function of the drift
    and the fitted exponents are minus (n+1) times its log-log slope.
    Steady denominators use the wake norm; oscillatory denominators use the
    maximal-regularity norm and carry no drift weight.

    The ensemble is drawn and evaluated on :func:`_ensemble_grid`, where
    every norm it takes is exact.  The draws take the mode set built for
    ``cfg.grid``, so each seed gives the same continuum fields there as on
    ``cfg.grid``, and the table moves by roundoff only.
    Pair i draws its four fields from the keys [seed, tag, i], fills row i
    of the norms and numerators and is dropped, so the working set does not
    grow with ``sample_count``.
    """
    grid = _ensemble_grid(cfg)
    n = grid.dim
    theta_formula = theta_exponent(n, cfg.q, cfg.r)
    weight = 1.0 / (n + 1)
    count = cfg.sample_count
    flags: list[str] = []
    if count < 100:
        flags.append(
            f"ensemble has {count} pairs, below the 100-pair reporting floor"
        )

    modes = cfg.forcing_modes

    def draw(random_field, tag, i, *time_args):
        return random_field(grid, *time_args, [cfg.seed, tag, i], modes=modes)

    v_one_pieces, v_two_pieces = np.empty((count, 2)), np.empty((count, 2))
    w_one_arr, w_two_arr = np.empty(count), np.empty(count)
    numerators = np.empty((count, 6))
    for i in range(count):
        v_one, v_two = (draw(random_divergence_free, tag, i) for tag in (201, 202))
        w_one, w_two = (
            draw(random_oscillatory, tag, i, cfg.period, cfg.time_modes)
            for tag in (203, 204)
        )
        v_one_pieces[i] = lambda_norm_pieces(v_one, cfg.q, cfg.r)
        v_two_pieces[i] = lambda_norm_pieces(v_two, cfg.q, cfg.r)
        w_one_arr[i] = maxreg_norm(w_one, cfg.q)
        w_two_arr[i] = maxreg_norm(w_two, cfg.q)
        vv = convective_product(v_one, v_two)
        ww = convective_product(w_one, w_two)
        vw = convective_product(v_one, w_two)
        wv = convective_product(w_one, v_two)
        numerators[i] = (
            lq_norm(vv, cfg.q),
            negative_norm_surrogate(vv, cfg.r),
            lq_norm(ww, cfg.q),
            negative_norm_surrogate(project_steady(ww), cfg.r),
            lq_norm(vw, cfg.q),
            lq_norm(wv, cfg.q),
        )

    rows = []
    for lam in cfg.lambda_grid:
        den_one = lambda_norm_from_pieces(v_one_pieces.T, lam, n)
        den_two = lambda_norm_from_pieces(v_two_pieces.T, lam, n)
        vv, ww = den_one * den_two, w_one_arr * w_two_arr
        denominators = np.column_stack(
            (vv, vv, ww, ww, den_one * w_two_arr, w_one_arr * den_two)
        )
        ratios = numerators / denominators
        means = np.exp(np.mean(np.log(ratios), axis=0))
        maxima = np.max(ratios, axis=0)
        rows.append((lam, *map(float, means), *map(float, maxima)))

    columns = (
        ("lambda",)
        + tuple("raw_" + name for name in _BILINEAR_NAMES)
        + tuple("max_" + name for name in _BILINEAR_NAMES)
    )
    table, values, slopes = _sweep_table(columns, rows, columns[1:])
    fitted = {
        "fitted_theta": -(n + 1) * slopes["raw_steady_strong"],
        "fitted_eta": -(n + 1) * slopes["raw_steady_weak"],
        "fitted_zeta_steady_osc": -(n + 1) * slopes["raw_mixed_steady_osc"],
        "fitted_zeta_osc_steady": -(n + 1) * slopes["raw_mixed_osc_steady"],
    }

    def weighted_constant(name: str, exponent: float) -> float:
        worst = 0.0
        for lam, value in zip(values["lambda"], values["max_" + name]):
            worst = max(worst, value * lam ** (exponent * weight))
        return worst

    exponents = {
        "steady_strong": theta_formula,
        "steady_weak": fitted["fitted_eta"],
        "osc_strong": 0.0,  # the oscillatory constants carry no drift weight
        "osc_weak": 0.0,
        "mixed_steady_osc": fitted["fitted_zeta_steady_osc"],
        "mixed_osc_steady": fitted["fitted_zeta_osc_steady"],
    }
    constants = {"theta_formula": theta_formula, **fitted}
    for name, exponent in exponents.items():
        constants["constant_" + name] = weighted_constant(name, exponent)
    checks = []
    for name, upper, check_upper in (
        ("fitted_theta", 2.0, _check_le),
        ("fitted_eta", 2.0, _check_le),
        ("fitted_zeta_steady_osc", 1.0, _check_lt),
        ("fitted_zeta_osc_steady", 1.0, _check_lt),
    ):
        checks.append(_check_ge(name + "_lower", fitted[name], 0.0))
        checks.append(check_upper(name + "_upper", fitted[name], upper))
    if abs(cfg.r - (n + 1) / 2.0) <= 1e-9:
        checks.append(
            _check_le(
                "fitted_eta_near_two", abs(fitted["fitted_eta"] - 2.0), 0.25
            )
        )
    return ScalingResult(
        experiment=cfg.experiment,
        columns=columns,
        rows=table,
        slopes=slopes,
        constants=constants,
        checks=tuple(checks),
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# boundary lifting diagnostics


def _run_lifting_check(cfg: ExperimentConfig) -> ScalingResult:
    """Verify the boundary lifting: trace value, solenoidality, load scaling.

    On the inner ball the lifting must equal the uniform counterflow
    exactly; its divergence must vanish to roundoff; and the momentum load it
    injects, divided by lam * (1 + lam), must stay constant across the drift
    range (coefficient of variation at most 5%).
    """
    grid = cfg.grid
    spec = default_cutoff(grid)
    interior = center_distance(grid) <= spec.inner_radius * (1.0 + 1e-12)
    rows = []
    for lam in cfg.lambda_grid:
        lifting = build_lifting(lam, spec, grid)
        load_lq, load_neg = lifting_load(lifting, cfg.q, cfg.r)
        ratio = (load_lq + load_neg) / (lam * (1.0 + lam))
        target = np.zeros((grid.dim,) + grid.shape)
        target[0] = -lam
        boundary_error = float(
            np.max(np.abs(lifting.velocity.components - target)[:, interior])
        )
        div_values = lifting.divergence_values()
        div_l2 = float(np.sqrt(np.mean(div_values**2) * grid.volume))
        rows.append((lam, load_lq, load_neg, ratio, boundary_error, div_l2))
    columns = (
        "lambda",
        "load_lq_q",
        "load_negnorm_1r_surrogate",
        "load_ratio",
        "boundary_error_max",
        "divergence_l2",
    )
    table, values, slopes = _sweep_table(
        columns, rows, ("load_lq_q", "load_negnorm_1r_surrogate", "load_ratio")
    )
    ratios = np.array(values["load_ratio"])
    mean = float(np.mean(ratios))
    variation = float(np.std(ratios) / mean)
    max_deviation = float(np.max(np.abs(ratios - mean)) / mean)
    constants = {
        "load_ratio_mean": mean,
        "load_ratio_variation": variation,
        "load_ratio_max_deviation": max_deviation,
    }
    checks = (
        _check_le("boundary_error_max", max(values["boundary_error_max"]), 1e-10),
        _check_le("divergence_l2_max", max(values["divergence_l2"]), 1e-10),
        _check_le("load_ratio_variation", variation, 0.05),
    )
    return ScalingResult(
        experiment=cfg.experiment,
        columns=columns,
        rows=table,
        slopes=slopes,
        constants=constants,
        checks=checks,
        flags=(),
    )


# ---------------------------------------------------------------------------
# fixed-point experiments

_PICARD_COLUMNS = (
    "rho",
    "lambda",
    "epsilon",
    "forcing_size",
    "iterations",
    "contraction_rate",
    "certificate",
    "solution_norm",
    "residual_momentum",
    "residual_div",
)


def _picard_schedule(cfg: ExperimentConfig):
    profile = ExponentProfile(cfg.grid.dim, cfg.q, cfg.r)
    gamma = cfg.gamma if cfg.gamma is not None else profile.gamma_midpoint()
    constant = fit_smallness_constant(cfg.grid, profile, seed=cfg.seed)
    base = radius_schedule(cfg.rho, gamma, profile, constant, tol=cfg.tol)
    return profile, gamma, constant, base


def _run_picard(cfg: ExperimentConfig) -> ScalingResult:
    """Run the fixed-point construction on a shrinking radius ladder.

    Serves both picard-steady and picard-tp; they differ only in the forcing
    draw, the driver and the norm it contracts in.  The radius is scheduled
    once from the configured start, then the run is repeated at half and
    quarter radius; every run must contract at a rate below one half, the
    rates must decrease down the ladder, and a fresh application of the
    solution map must reproduce the fixed point within twice the stopping
    tolerance.  At the first radius the loop alone (no gate, no certificate)
    must reach the same fixed point from a second start in the ball.
    """
    steady = cfg.experiment == "picard-steady"
    grid = cfg.grid
    profile, gamma, constant, base = _picard_schedule(cfg)
    driver = picard_steady if steady else picard_timeperiodic
    solve = solve_steady if steady else solve_timeperiodic
    norm = lambda_norm if steady else driver_norm_timeperiodic
    forcing_seed, start_seed = (41, 42) if steady else (51, 52)

    def draw(seed_tail: int):
        if steady:
            return random_divergence_free(
                grid, [cfg.seed, seed_tail], modes=cfg.draw_modes
            )
        return random_timeperiodic_forcing(
            grid, cfg.period, cfg.time_modes, [cfg.seed, seed_tail],
            modes=cfg.draw_modes,
        )

    def start_in_ball(pcfg: PicardConfig):
        alt = draw(start_seed)
        return alt * (0.5 * pcfg.rho / norm(alt, pcfg.lam, cfg.q, cfg.r))

    direction = draw(forcing_seed)
    unit_size = data_size(direction, cfg.q, cfg.r)
    rows = []
    checks: list[CheckRecord] = []
    for j, rho in enumerate((base.rho, base.rho / 2.0, base.rho / 4.0)):
        pcfg = PicardConfig.from_schedule(profile, rho, gamma, tol=cfg.tol)
        forcing = direction * (0.5 * pcfg.epsilon / unit_size)
        solution, report = driver(forcing, pcfg)
        velocity = solution.velocity
        del solution  # the pressure is never read
        solution_norm = report.solution_norm
        rows.append(
            (
                rho,
                pcfg.lam,
                pcfg.epsilon,
                report.forcing_size,
                float(report.iterations),
                report.contraction_rate,
                report.final_residual,
                solution_norm,
                report.residual_momentum,
                report.residual_div,
            )
        )
        tag = f"rho_{j}"
        checks.append(
            _check_lt(f"contraction_rate_{tag}", report.contraction_rate, 0.5)
        )
        checks.append(
            _check_le(
                f"certificate_{tag}",
                report.final_residual,
                2.0 * cfg.tol * solution_norm,
            )
        )
        if j == 0:
            # A start elsewhere in the ball must reach the same fixed point;
            # nothing here holds the start, nor the iterate once subtracted.
            distance = norm(
                _contraction_loop(
                    forcing, pcfg, None, start_in_ball(pcfg), solve, norm
                )[0] - velocity,
                pcfg.lam, cfg.q, cfg.r,
            )
            checks.append(
                _check_le(
                    "initial_iterate_independence",
                    distance,
                    10.0 * cfg.tol * solution_norm,
                )
            )
        del velocity  # read by the independence check only
    table, values, _ = _sweep_table(_PICARD_COLUMNS, rows, ())
    rates = values["contraction_rate"]
    for j in range(len(rates) - 1):
        checks.append(
            _check_lt(
                f"contraction_rate_decreases_{j + 1}", rates[j + 1], rates[j]
            )
        )
    constants = {
        "fitted_constant": constant,
        "gamma": gamma,
        "scheduled_rho": base.rho,
        "scheduled_lambda": base.lam,
        "scheduled_epsilon": base.epsilon,
    }
    return ScalingResult(
        experiment=cfg.experiment,
        columns=_PICARD_COLUMNS,
        rows=table,
        slopes={},
        constants=constants,
        checks=tuple(checks),
        flags=(),
    )


# ---------------------------------------------------------------------------
# exponent tables


def exponent_report(n: int, q: float, r: float) -> dict[str, object]:
    """All exponent values and admissibility verdicts for one configuration."""
    report: dict[str, object] = {"n": n, "q": q, "r": r}
    m_exp, delta = exponents_Mdelta(n, r)
    report["s"] = s_exponent(n, r)
    report["m_exponent"] = m_exp
    report["delta"] = delta
    try:
        theta = theta_exponent(n, q, r)
        report["theta"] = theta
    except ValueError as error:
        theta = None
        report["theta"] = None
        report["theta_reason"] = str(error)
    for problem in ("linear-full", "steady-nonlinear", "timeperiodic-nonlinear"):
        admissible, violated = admissibility(n, q, r, problem)
        report[f"admissible[{problem}]"] = admissible
        if violated:
            report[f"violated[{problem}]"] = "; ".join(violated)
    if theta is not None:
        try:
            report["gamma_interval"] = gamma_interval(
                n, m_exp, theta, ZETA_FALLBACK, ETA_FALLBACK
            )
        except ValueError as error:
            report["gamma_interval"] = None
            report["gamma_reason"] = str(error)
    return report


# ---------------------------------------------------------------------------
# serialization


def _format_value(value: float) -> str:
    return f"{float(value):.17g}"


def _dat_twin(path: str) -> str:
    """The plotting twin of a CSV path, refused where it is the path itself."""
    twin = os.path.splitext(path)[0] + ".dat"
    if twin == path:
        raise ValueError(f"output path {path!r} would be overwritten by its .dat twin")
    return twin


def emit_csv(result: ScalingResult, path) -> None:
    """Write the result table as CSV plus a plotting-tool twin.

    Floats carry 17 significant digits so parsing the file back reproduces
    them bit-exactly; an empty sweep writes the header line only.  A
    companion ``.dat`` file with a commented header and space-separated
    columns lands next to the CSV for plotting pipelines.
    """
    path = os.fspath(path)
    dat_path = _dat_twin(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    for target, sep, head in ((path, ",", ""), (dat_path, " ", "# ")):
        lines = [head + sep.join(result.columns)]
        lines.extend(
            sep.join(_format_value(value) for value in row) for row in result.rows
        )
        with open(target, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the experiment table


@dataclass(frozen=True)
class _Experiment:
    """One experiment: its runner, its built-in config's departures from the
    ExperimentConfig defaults, the (q, r) windows it needs (the linear one
    holds 1/q <= 1/r - 1/(n+1), which theta needs), the largest drift its
    ``lambda_grid`` may reach, and whether it fits slopes to a drift sweep
    (at least 5 drifts spanning a decade)."""

    runner: Callable[[ExperimentConfig], ScalingResult]
    built_in: dict
    windows: tuple[str, ...] = ()
    lambda_ceiling: float = 16.0
    # Experiments that solve on the box at sweep drifts need the wake scale
    # c/lam to fit inside the box, hence the floor lam >= 4 / half_period.
    # The other experiments either solve at schedule-determined drifts
    # (fixed-point runs), compare against exact manufactured solutions, or
    # never solve at all, so they have no floor.
    box_sweep: bool = False
    sweep: bool = False


def default_config(experiment: str) -> ExperimentConfig:
    """The built-in configuration of one experiment."""
    if experiment not in _TABLE:
        raise ValueError(f"no default configuration for {experiment!r}")
    return ExperimentConfig(experiment=experiment, **_TABLE[experiment].built_in)


def run_experiment(cfg: ExperimentConfig) -> ScalingResult:
    """Run a config through its experiment's runner."""
    return _TABLE[cfg.experiment].runner(cfg)


def log_spaced(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """Logarithmically spaced sweep, endpoints exact."""
    if count < 2:
        raise ValueError(f"a sweep needs at least 2 points, got {count}")
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lambda_min < lambda_max, got [{lo}, {hi}]")
    values = np.exp(np.linspace(math.log(lo), math.log(hi), count))
    values[0], values[-1] = lo, hi
    return tuple(float(v) for v in values)


_BOX_SWEEP = log_spaced(4.0 / math.pi, 40.0 / math.pi, 7)
_TABLE = {
    "mms": _Experiment(_run_mms, dict(
        grid=GridSpec(3, math.pi, 32), lambda_grid=(0.5, 2.0), q=4.0, time_modes=2
    ), windows=(PROBLEM_STEADY, PROBLEM_LINEAR)),
    "scaling-steady": _Experiment(_run_scaling_steady, dict(
        grid=GridSpec(3, math.pi, 64), lambda_grid=_BOX_SWEEP, q=4.0,
        forcing_shell=(14.0, 18.0), drift_mode_cap=1,
    ), box_sweep=True, sweep=True),
    "scaling-tp": _Experiment(_run_scaling_tp, dict(
        grid=GridSpec(3, math.pi, 32), lambda_grid=_BOX_SWEEP, period=1.0,
        forcing_shell=(7.0, 9.0), drift_mode_cap=1,
    ), box_sweep=True, sweep=True),
    "bilinear": _Experiment(_run_bilinear_ensemble, dict(
        grid=GridSpec(3, 1.0e7, 16), lambda_grid=log_spaced(10.0, 100.0, 7), q=4.0,
        forcing_shell=(1.0, 1.8),
    ), windows=(PROBLEM_TP,), lambda_ceiling=100.0, sweep=True),
    "picard-steady": _Experiment(_run_picard, dict(
        grid=GridSpec(3, math.pi, 32), q=4.0, gamma=1.1
    ), windows=(PROBLEM_STEADY, PROBLEM_LINEAR)),
    "picard-tp": _Experiment(_run_picard, dict(
        grid=GridSpec(3, math.pi, 24), q=4.0, time_modes=2, gamma=1.1
    ), windows=(PROBLEM_TP,)),
    "lifting-check": _Experiment(_run_lifting_check, dict(
        grid=GridSpec(3, math.pi, 32), lambda_grid=log_spaced(1e-3, 1e-1, 7)
    )),
}
EXPERIMENTS = tuple(_TABLE)
