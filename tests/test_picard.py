"""Fixed-point driver: contraction, certificates, gates, and escapes."""

from __future__ import annotations

import numpy as np
import pytest

from oseenlab import picard
from oseenlab.exponents import ExponentProfile
from oseenlab.fields import (
    GridSpec,
    SpatialField,
    TimePeriodicField,
    gradient,
)
from oseenlab.harness import _mode_list, random_divergence_free, random_oscillatory
from oseenlab.lifting import build_lifting, default_cutoff
from oseenlab.nonlinear import nonlinearity
from oseenlab.norms import (
    _negative_norm_by_transforms,
    lambda_norm,
    lq_norm,
    maxreg_norm,
    negative_norm_surrogate,
)
from oseenlab.oseen import (
    OseenParams,
    StokesPair,
    project_oscillatory,
    project_steady,
    residual,
    solve_steady,
    solve_timeperiodic,
)
from oseenlab.picard import (
    GateError,
    PicardConfig,
    PicardConvergenceError,
    PicardDivergenceError,
    PicardRunError,
    RadiusEscapeError,
    driver_norm_timeperiodic,
    picard_steady,
    picard_timeperiodic,
)
from conftest import zero_field

Q, R = 4.0, 2.0
PERIOD = 2.0


@pytest.fixture(scope="module")
def grid():
    return GridSpec(3, np.pi, 16)


@pytest.fixture(scope="module")
def profile():
    return ExponentProfile(3, Q, R)


@pytest.fixture(scope="module")
def config(profile):
    return PicardConfig.from_schedule(profile, 0.05, 1.5, 1e-10)


@pytest.fixture(scope="module")
def free_lifting():
    """No lifting: the obstacle-free problem."""
    return None


def _obstacle_lifting(grid, config):
    return build_lifting(config.lam, default_cutoff(grid), grid)


def _scaled_forcing(grid, config, seed=(7,), fraction=0.5, modes=None):
    raw = random_divergence_free(grid, seed, modes=modes)
    data = lq_norm(raw, Q) + negative_norm_surrogate(raw, R)
    return SpatialField(
        grid, raw.components * (fraction * config.epsilon / data)
    )


# --- trivial data ---------------------------------------------------------


def test_zero_forcing_yields_the_zero_solution(grid, profile, free_lifting):
    cfg = PicardConfig(profile, rho=0.05, lam=0.0, epsilon=0.01, tol=1e-10)
    pair, report = picard_steady(zero_field(grid, grid.dim), cfg, lifting=free_lifting)
    assert np.isfinite(report.final_residual)
    assert report.iterates == (0.0,)
    assert np.max(np.abs(pair.velocity.components)) == 0.0
    assert np.isnan(report.contraction_rate)


# --- steady contraction ----------------------------------------------------


def test_steady_iteration_contracts_and_certifies(grid, config, free_lifting):
    f = _scaled_forcing(grid, config)
    pair, report = picard_steady(f, config, lifting=free_lifting)
    assert np.isfinite(report.final_residual)
    assert report.contraction_rate < 0.5
    assert report.contraction_rate < 1e-2  # small data contracts hard
    fixed_norm = lambda_norm(pair.velocity, config.lam, Q, R)
    assert report.final_residual <= 2.0 * config.tol * fixed_norm
    assert 0 < fixed_norm <= config.rho * (1.0 + 1e-9)


def test_steady_fixed_point_ignores_the_starting_point(grid, config, free_lifting):
    f = _scaled_forcing(grid, config)
    pair_default, _ = picard_steady(f, config, lifting=free_lifting)
    params = OseenParams(lam=config.lam)
    half_linear = SpatialField(
        grid, 0.5 * solve_steady(f, params).velocity.components
    )
    for start in (zero_field(grid, grid.dim), half_linear):
        u, _, _ = picard._contraction_loop(
            f, config, free_lifting, start, solve_steady, lambda_norm
        )
        gap = lambda_norm(u - pair_default.velocity, config.lam, Q, R)
        assert gap <= 10.0 * config.tol


def test_fixed_point_satisfies_the_momentum_balance(config, profile, free_lifting):
    """Finite-difference residual, entirely independent of the FFT solver."""

    def fd_residual(grid, u, p, f, lam):
        h = grid.spacing
        vol = (2.0 * np.pi * grid.half_period) ** grid.dim

        def d1(a, ax):
            return (np.roll(a, -1, axis=ax) - np.roll(a, 1, axis=ax)) / (2 * h)

        def lap(a):
            out = np.zeros_like(a)
            for ax in range(grid.dim):
                out += (
                    np.roll(a, -1, axis=ax) - 2 * a + np.roll(a, 1, axis=ax)
                ) / h**2
            return out

        velocity = u.components
        total = 0.0
        for i in range(grid.dim):
            res = (
                -lap(velocity[i])
                + lam * d1(velocity[i], 0)
                + d1(p.components[0], i)
                - f.components[i]
            )
            for a in range(grid.dim):
                res += velocity[a] * d1(velocity[i], a)
            res -= res.mean()
            total += np.mean(res**2)
        return np.sqrt(total * vol)

    # Both grids draw on the 16^3 grid's mode cube: one continuum forcing.
    modes = _mode_list(GridSpec(3, np.pi, 16), None, None, None)
    residuals = {}
    for n in (16, 32):
        grid_n = GridSpec(3, np.pi, n)
        f = _scaled_forcing(grid_n, config, modes=modes)
        pair, _ = picard_steady(f, config, lifting=free_lifting)
        residuals[n] = fd_residual(
            grid_n, pair.velocity, pair.pressure, f, config.lam
        )
        if n == 16:
            assert residuals[n] <= 0.1 * lq_norm(f, 2.0)
    # second-order stencil: halving h divides the defect by about four
    assert 3.0 <= residuals[16] / residuals[32] <= 5.0


def test_shrinking_the_radius_shrinks_the_contraction_rate(
    grid, profile, free_lifting
):
    rates = []
    for rho in (0.05, 0.025):
        cfg = PicardConfig.from_schedule(profile, rho, 1.5, 1e-10)
        f = _scaled_forcing(grid, cfg)
        _, report = picard_steady(f, cfg, lifting=free_lifting)
        assert np.isfinite(report.final_residual)
        rates.append(report.contraction_rate)
    assert rates[1] < rates[0]


def test_projected_out_forcing_leaves_the_rest_state(grid, config, free_lifting):
    coords = grid.coordinates()
    x1 = coords[0] * np.ones(grid.shape)
    potential = SpatialField(grid, np.sin(x1 / grid.half_period)[None])
    grad = gradient(potential)
    data = lq_norm(grad, Q) + negative_norm_surrogate(grad, R)
    f = SpatialField(grid, grad.components * (0.3 * config.epsilon / data))
    pair, report = picard_steady(f, config, lifting=free_lifting)
    assert np.isfinite(report.final_residual)
    assert lambda_norm(pair.velocity, config.lam, Q, R) <= 1e-8


# --- time-periodic driver ---------------------------------------------------


def test_time_constant_forcing_reproduces_the_steady_fixed_point(
    grid, config, free_lifting
):
    f = _scaled_forcing(grid, config)
    pair_steady, _ = picard_steady(f, config, lifting=free_lifting)
    f_tp = TimePeriodicField.from_steady(f, PERIOD, max_mode=1)
    (u_tp, _), report = picard_timeperiodic(f_tp, config, lifting=free_lifting)
    assert np.isfinite(report.final_residual)
    scale = np.max(np.abs(u_tp.modes))
    oscillation = u_tp.modes.copy()
    oscillation[0] = 0.0
    assert np.max(np.abs(oscillation)) <= 1e-13 * scale
    assert (
        np.max(np.abs(u_tp.mode(0).real - pair_steady.velocity.components))
        <= 1e-13 * scale
    )


def test_oscillatory_forcing_contracts_and_certifies(grid, config, free_lifting):
    raw = random_oscillatory(grid, PERIOD, 1, (13,))
    data = lq_norm(raw, Q) + negative_norm_surrogate(project_steady(raw), R)
    f = TimePeriodicField(grid, PERIOD, raw.modes * (0.4 * config.epsilon / data))
    (u, _), report = picard_timeperiodic(f, config, lifting=free_lifting)
    assert np.isfinite(report.final_residual)
    assert report.contraction_rate < 0.5
    fixed_norm = driver_norm_timeperiodic(u, config.lam, Q, R)
    assert report.final_residual <= 2.0 * config.tol * fixed_norm

    zero_start = TimePeriodicField(grid, PERIOD, np.zeros_like(f.modes))
    u_again, _, _ = picard._contraction_loop(
        f, config, free_lifting, zero_start, solve_timeperiodic,
        driver_norm_timeperiodic,
    )
    gap = driver_norm_timeperiodic(u_again - u, config.lam, Q, R)
    assert gap <= 10.0 * config.tol


def test_driver_norm_splits_average_and_oscillation(grid):
    steady = random_divergence_free(grid, (9,))
    osc = random_oscillatory(grid, PERIOD, 1, (13,))
    base = TimePeriodicField.from_steady(steady, PERIOD, max_mode=1)
    u = TimePeriodicField(grid, PERIOD, base.modes + osc.modes)
    lam = 0.3
    osc_modes = u.modes.copy()
    osc_modes[0] = 0.0
    average = SpatialField(grid, u.modes[0].real)
    expected = lambda_norm(average, lam, Q, R) + maxreg_norm(
        TimePeriodicField(grid, PERIOD, osc_modes), Q
    )
    assert driver_norm_timeperiodic(u, lam, Q, R) == pytest.approx(
        expected, rel=1e-12
    )


def test_driver_norm_reads_the_oscillation_in_place_bit_for_bit(grid):
    # A stack with a nonzero mean: the copy-free oscillation norm equals the
    # norm of the copied oscillatory part bit for bit.
    rng = np.random.default_rng(5)
    shape = (3, grid.dim) + grid.shape
    modes = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    modes[0] = modes[0].real + 0.5
    u = TimePeriodicField(grid, PERIOD, modes)
    lam = 0.3
    expected = lambda_norm(project_steady(u), lam, Q, R) + maxreg_norm(
        project_oscillatory(u), Q
    )
    assert driver_norm_timeperiodic(u, lam, Q, R) == expected


def test_norm_roundoff_leaves_the_iterates_bit_for_bit(
    grid, config, free_lifting, monkeypatch
):
    # The norms only measure the iterates (update, ball, certificate); they
    # never feed the next one.  So a norm that moves by roundoff leaves
    # every iterate, and the iteration count, exactly as they were.
    f = _scaled_forcing(grid, config, fraction=0.25)
    raw = random_oscillatory(grid, PERIOD, 1, (13,))
    data = lq_norm(raw, Q) + negative_norm_surrogate(project_steady(raw), R)
    modes = raw.modes * (0.25 * config.epsilon / data)
    modes[0] = modes[0] + f.components
    f_tp = TimePeriodicField(grid, PERIOD, modes)

    def run_both():
        pair, steady = picard_steady(f, config, lifting=free_lifting)
        (u, p), tp = picard_timeperiodic(f_tp, config, lifting=free_lifting)
        fields = (pair.velocity.components, pair.pressure.components, u.modes, p.modes)
        return fields, (len(steady.iterates), len(tp.iterates))

    calls = []

    def perturbed_norm(exact):
        def norm(*args):
            calls.append(exact.__name__)
            return exact(*args) * (1.0 + 1e-15)

        return norm

    fields, counts = run_both()
    # The driver norm takes the oscillation's norm from the stack in place.
    for name in ("_maxreg_norm", "lambda_norm"):
        monkeypatch.setattr(picard, name, perturbed_norm(getattr(picard, name)))
    perturbed, perturbed_counts = run_both()
    assert set(calls) == {"_maxreg_norm", "lambda_norm"}
    assert perturbed_counts == counts and min(counts) > 1
    for before, after in zip(fields, perturbed):
        assert np.array_equal(before, after)


@pytest.mark.parametrize("steady", [True, False], ids=["steady", "timeperiodic"])
def test_drivers_return_the_certificate_solves_pressure(
    grid, config, free_lifting, steady
):
    # The pressure that pairs with the returned velocity is the one of a
    # solve at that velocity, that is of the certificate solve; the residuals
    # are those of the returned pair.
    f = _scaled_forcing(grid, config)
    if steady:
        driver, solve, data = picard_steady, solve_steady, "components"
    else:
        f = TimePeriodicField.from_steady(f, PERIOD, max_mode=1)
        driver, solve, data = picard_timeperiodic, solve_timeperiodic, "modes"
    pair, report = driver(f, config, lifting=free_lifting)
    assert isinstance(pair, StokesPair) and report.iterations > 1
    params = OseenParams(config.lam)
    forcing = f + nonlinearity(pair.velocity, free_lifting)
    pressure = solve(forcing, params).pressure
    assert np.array_equal(getattr(pair.pressure, data), getattr(pressure, data))
    assert (report.residual_momentum, report.residual_div) == residual(
        pair, forcing, params
    )


# --- the start and the evaluation counts -------------------------------------


def _oscillating_forcing(grid, config):
    """A time-periodic forcing at half the budget: a quarter in the steady
    part and a quarter in a K = 1 oscillation."""
    f = _scaled_forcing(grid, config, fraction=0.25)
    raw = random_oscillatory(grid, PERIOD, 1, (13,))
    data = lq_norm(raw, Q) + negative_norm_surrogate(project_steady(raw), R)
    modes = raw.modes * (0.25 * config.epsilon / data)
    modes[0] = modes[0] + f.components
    return TimePeriodicField(grid, PERIOD, modes)


def _bits(field):
    data = field.components if isinstance(field, SpatialField) else field.modes
    return data.view(np.uint64)


def test_the_obstacle_free_start_adds_nothing_to_the_forcing(grid, config):
    # With no lifting the nonlinearity of 0 is -0.0 everywhere, so the start
    # forcing f + nonlinearity(f * 0.0) is f bit for bit, signed zeros too;
    # the drivers therefore start from solve(f).
    components = _scaled_forcing(grid, config).components.copy()
    components[0, 0] = 0.0
    components[1, 0] = -0.0
    modes = _oscillating_forcing(grid, config).modes.copy()
    modes[1, 0, 0] = complex(-0.0, -0.0)
    forcings = (
        SpatialField(grid, components),
        TimePeriodicField(grid, PERIOD, modes),
    )
    for forcing in forcings:
        data = _bits(forcing)
        assert np.any(data == np.float64(-0.0).view(np.uint64))
        start = forcing + nonlinearity(forcing * 0.0, None)
        assert np.array_equal(_bits(start), data)


@pytest.mark.parametrize("steady", [True, False], ids=["steady", "timeperiodic"])
def test_a_lifting_start_solves_the_forcing_plus_the_lifting_terms(
    grid, config, monkeypatch, steady
):
    if steady:
        f, driver, name = _scaled_forcing(grid, config), picard_steady, "solve_steady"
    else:
        f, driver = _oscillating_forcing(grid, config), picard_timeperiodic
        name = "solve_timeperiodic"
    lifting = _obstacle_lifting(grid, config)
    received = []
    exact = getattr(picard, name)

    def capture(forcing, params):
        received.append(forcing)
        return exact(forcing, params)

    monkeypatch.setattr(picard, name, capture)
    with pytest.raises(RadiusEscapeError, match="exceeds rho"):
        driver(f, config, lifting=lifting)
    expected = f + nonlinearity(f * 0.0, lifting)
    assert not np.array_equal(_bits(expected), _bits(f))
    assert len(received) == 1
    assert np.array_equal(_bits(received[0]), _bits(expected))


@pytest.mark.parametrize("steady", [True, False], ids=["steady", "timeperiodic"])
def test_a_converged_run_evaluates_nothing_it_already_knows(
    grid, config, free_lifting, monkeypatch, steady
):
    if steady:
        f, driver, name = _scaled_forcing(grid, config), picard_steady, "lambda_norm"
    else:
        f, driver = _oscillating_forcing(grid, config), picard_timeperiodic
        name = "driver_norm_timeperiodic"
    exact_norm = getattr(picard, name)
    calls = {name: 0, "nonlinearity": 0}

    def counted(key):
        exact = getattr(picard, key)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return exact(*args, **kwargs)

        return wrapper

    for key in calls:
        monkeypatch.setattr(picard, key, counted(key))
    pair, report = driver(f, config, lifting=free_lifting)
    iterations = report.iterations
    assert iterations > 1
    # The start, each update, the iterate at the stop and the certificate;
    # the nonlinearity once per update and once for the certificate.
    assert calls[name] == 1 + iterations + 1 + 1
    assert calls["nonlinearity"] == iterations + 1
    assert report.solution_norm == exact_norm(pair.velocity, config.lam, Q, R)
    assert report.forcing_size == picard.data_size(f, Q, R)


def test_data_size_keeps_the_transform_path_surrogate(grid):
    # The gate's size scales the Picard forcing, so it keeps the transform
    # path's bits rather than taking the r = 2 Parseval sum.
    steady = random_divergence_free(grid, (7,))
    stack = random_oscillatory(grid, PERIOD, 1, (13,))
    stack = stack + TimePeriodicField.from_steady(steady, PERIOD, 1)
    for f in (steady, stack):
        expected = lq_norm(f, Q) + _negative_norm_by_transforms(project_steady(f), R)
        assert picard.data_size(f, Q, R) == expected


# --- gates and escapes -------------------------------------------------------
#
# Each failure is checked on both drivers: the steady one on a steady forcing
# and the time-periodic one on the same forcing embedded as a time-constant
# stack.


def _both_drivers(f):
    """(driver, forcing) pairs for the steady and time-periodic drivers."""
    return (
        (picard_steady, f),
        (picard_timeperiodic, TimePeriodicField.from_steady(f, PERIOD, max_mode=1)),
    )


def _partial_report(excinfo):
    """The report a failed run carries: partial, never converged."""
    assert isinstance(excinfo.value, PicardRunError)
    report = excinfo.value.report
    assert np.isnan(report.final_residual)
    return report


def test_oversized_forcing_is_gated(grid, config, free_lifting):
    f = _scaled_forcing(grid, config, fraction=2.0)
    for driver, forcing in _both_drivers(f):
        with pytest.raises(GateError, match="exceeds the budget"):
            driver(forcing, config, lifting=free_lifting)


def test_obstacle_lifting_at_desk_radius_escapes_immediately(grid, config):
    f = _scaled_forcing(grid, config)
    lifting = _obstacle_lifting(grid, config)
    for driver, forcing in _both_drivers(f):
        with pytest.raises(RadiusEscapeError, match="exceeds rho") as excinfo:
            driver(forcing, config, lifting=lifting)
        assert _partial_report(excinfo).iterations == 0


def test_iterate_leaving_the_ball_escapes_with_partial_report(grid, config):
    # Zero forcing started at zero: the first step picks up the lifting load.
    lifting = _obstacle_lifting(grid, config)
    zero = zero_field(grid, grid.dim)
    for forcing, solve, norm in (
        (zero, solve_steady, lambda_norm),
        (
            TimePeriodicField.from_steady(zero, PERIOD, max_mode=1),
            solve_timeperiodic,
            driver_norm_timeperiodic,
        ),
    ):
        with pytest.raises(RadiusEscapeError, match="left the ball") as excinfo:
            picard._contraction_loop(forcing, config, lifting, forcing, solve, norm)
        assert _partial_report(excinfo).iterations == 1


def test_drivers_default_to_the_obstacle_free_problem(grid, config):
    f = _scaled_forcing(grid, config)
    for driver, forcing in _both_drivers(f):
        _, report = driver(forcing, config)
        assert np.isfinite(report.final_residual) and report.contraction_rate < 0.5


def test_large_data_divergence_is_detected(grid, profile, free_lifting):
    cfg = PicardConfig(profile, rho=1e9, lam=0.5, epsilon=1e9, tol=1e-12)
    raw = random_divergence_free(grid, (7,))
    f = SpatialField(grid, raw.components * 50.0)
    for driver, forcing in _both_drivers(f):
        with pytest.raises(PicardDivergenceError, match="grew three times") as excinfo:
            driver(forcing, cfg, lifting=free_lifting)
        assert _partial_report(excinfo).iterations >= 3


def test_exhausted_iteration_budget_raises(grid, profile, free_lifting, monkeypatch):
    monkeypatch.setattr(picard, "_MAX_ITER", 1)
    cfg = PicardConfig(
        profile, rho=0.05, lam=0.05**1.5, epsilon=0.05**1.5, tol=1e-15
    )
    f = _scaled_forcing(grid, cfg)
    for driver, forcing in _both_drivers(f):
        with pytest.raises(PicardConvergenceError, match="no convergence within 1") as excinfo:
            driver(forcing, cfg, lifting=free_lifting)
        assert _partial_report(excinfo).iterations == 1


def _marked(grid, j, iterate):
    """A field the scripted norm can read back: 2**j in the first component,
    and 1 (an iterate) or 0 (an update) in the second."""
    components = np.zeros((grid.dim,) + grid.shape)
    components[0] = 2.0**j
    components[1] = 1.0 if iterate else 0.0
    return SpatialField(grid, components)


def _scripted_run(grid, profile, free_lifting, updates, iterate_norms=None):
    """The steady contraction loop with a marking solve and a scripted norm.

    The first solve, the start, returns iterate 0 and each later one the
    next iterate, marked by :func:`_marked`, so the update from iterate j - 1
    to j carries 2**(j - 1) and 0.  The norm answers by its argument, never
    by call order: update j reads ``updates[j - 1]`` (0 past the end, which
    converges, and for the certificate), and iterate j reads
    ``iterate_norms[j]`` (default 0 for the start and 1 for every later
    iterate).
    """
    cfg = PicardConfig(profile, rho=10.0, lam=0.0, epsilon=1.0, tol=1e-10)
    zero = zero_field(grid, grid.dim)
    solves = []
    iterate_norms = {0: 0.0} if iterate_norms is None else iterate_norms

    def solve(forcing, params):
        solves.append(forcing)
        marked = _marked(grid, len(solves) - 1, True)
        return StokesPair(marked, zero_field(grid, 1))

    def norm(field, lam, q, r):
        first, second = field.components[0].flat[0], field.components[1].flat[0]
        j = int(np.log2(first))
        if second == 1.0:
            return iterate_norms.get(j, 1.0)
        return updates[j] if j < len(updates) else 0.0

    return picard._fixed_point(
        zero, cfg, free_lifting, picard.PROBLEM_STEADY, solve, norm
    )


def test_three_growing_updates_in_a_row_diverge(grid, profile, free_lifting):
    updates = (1.0, 2.0, 3.0, 4.0, 0.0)
    with pytest.raises(PicardDivergenceError, match="grew three times") as excinfo:
        _scripted_run(grid, profile, free_lifting, updates)
    assert _partial_report(excinfo).iterates == updates[:4]


def test_an_update_equal_to_the_last_counts_as_growth(grid, profile, free_lifting):
    updates = (1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(PicardDivergenceError, match="grew three times") as excinfo:
        _scripted_run(grid, profile, free_lifting, updates)
    assert _partial_report(excinfo).iterates == updates[:4]


def test_a_shrinking_update_resets_the_growth_streak(grid, profile, free_lifting):
    updates = (1.0, 2.0, 3.0, 2.5, 3.0, 4.0, 0.0)
    _, report = _scripted_run(grid, profile, free_lifting, updates)
    assert np.isfinite(report.final_residual)
    assert report.iterates == updates


def test_a_bound_that_straddles_rho_takes_the_exact_norm(grid, profile, free_lifting):
    # After updates 6 and 6 the triangle bound is 12 > rho = 10, so the
    # driver measures iterate 2 exactly: at 10.5 it escapes with that value
    # in the message, and at 1 it carries on to convergence.
    updates = (6.0, 6.0)
    with pytest.raises(RadiusEscapeError, match="iterate norm 1.050000e[+]01 left") as excinfo:
        _scripted_run(grid, profile, free_lifting, updates, {0: 0.0, 2: 10.5})
    assert _partial_report(excinfo).iterates == updates
    assert np.isnan(excinfo.value.report.solution_norm)
    _, report = _scripted_run(grid, profile, free_lifting, updates)
    assert report.iterates == updates + (0.0,) and report.solution_norm == 1.0


def test_a_bound_that_meets_the_stop_test_takes_the_exact_norm(
    grid, profile, free_lifting
):
    # From a start of norm 1 an update of 1.00000000005e-10 misses the stop
    # test against the last norm but meets it against the bound; the exact
    # norm of the iterate, 1.0000000005, then stops the loop there.
    updates = (1.00000000005e-10,)
    iterate_norms = {0: 1.0, 1: 1.0000000005}
    _, report = _scripted_run(grid, profile, free_lifting, updates, iterate_norms)
    assert report.iterates == updates and report.solution_norm == 1.0000000005


def test_a_bound_inside_the_ball_stands_in_for_the_iterate_norm(
    grid, profile, free_lifting
):
    # Iterates 1 and 2 would escape if measured, but their triangle bounds
    # (1, then 3) stay inside the ball and far from the stop test, so the
    # driver never measures them; iterate 3 is measured at the stop.
    iterate_norms = {0: 0.0, 1: 50.0, 2: 50.0, 3: 2.0}
    _, report = _scripted_run(grid, profile, free_lifting, (1.0, 2.0), iterate_norms)
    assert report.iterates == (1.0, 2.0, 0.0) and report.solution_norm == 2.0


# --- input validation --------------------------------------------------------


def test_lifting_compatibility_checks(grid, config, free_lifting):
    f = _scaled_forcing(grid, config)
    other = GridSpec(3, np.pi, 8)
    with pytest.raises(ValueError, match="lifting lives on a different grid"):
        picard_steady(
            f, config, lifting=build_lifting(0.0, default_cutoff(other), other)
        )
    mismatched = build_lifting(0.9, default_cutoff(grid), grid)
    with pytest.raises(ValueError, match="lifting was built for drift"):
        picard_steady(f, config, lifting=mismatched)
    # The zero lifting is the lifting of drift 0, not of every drift.
    zero = build_lifting(0.0, default_cutoff(grid), grid)
    for driver, forcing in _both_drivers(f):
        with pytest.raises(ValueError, match="built for drift 0.0, config wants"):
            driver(forcing, config, lifting=zero)


def test_steady_driver_refuses_a_stack_before_the_gate(grid, config, monkeypatch):
    measured = []
    monkeypatch.setattr(picard, "data_size", lambda *a: measured.append(a) or 0.0)
    f_tp = TimePeriodicField.from_steady(zero_field(grid, grid.dim), PERIOD, 1)
    with pytest.raises(TypeError, match="f must be a SpatialField, not TimePeriodic"):
        picard_steady(f_tp, config)
    assert not measured


def test_time_periodic_driver_refuses_a_steady_forcing(grid, config):
    with pytest.raises(TypeError, match="f must be a TimePeriodicField, not Spatial"):
        picard_timeperiodic(zero_field(grid, grid.dim), config)


def test_drivers_refuse_a_scalar_forcing_before_the_gate(grid, config, monkeypatch):
    measured = []
    monkeypatch.setattr(picard, "data_size", lambda *a: measured.append(a) or 0.0)
    scalar = zero_field(grid, 1)
    for driver, forcing in _both_drivers(scalar):
        with pytest.raises(ValueError, match="f must be vector-valued"):
            driver(forcing, config)
    assert not measured


def test_inadmissible_exponent_pairs_are_rejected(grid, free_lifting):
    profile = ExponentProfile(3, 5.0, 2.1)
    cfg = PicardConfig.from_schedule(profile, 0.05, 1.5, 1e-10)
    f = zero_field(grid, grid.dim)
    with pytest.raises(ValueError, match="inadmissible for steady-nonlinear"):
        picard_steady(f, cfg, lifting=free_lifting)
    f_tp = TimePeriodicField.from_steady(f, PERIOD, max_mode=1)
    with pytest.raises(ValueError, match="inadmissible for timeperiodic"):
        picard_timeperiodic(f_tp, cfg, lifting=free_lifting)


def test_profile_dimension_must_match_the_grid(profile):
    plane = GridSpec(2, np.pi, 16)
    cfg = PicardConfig.from_schedule(profile, 0.05, 1.5, 1e-10)
    with pytest.raises(ValueError, match="profile dimension"):
        picard_steady(zero_field(plane, plane.dim), cfg)
