"""Experiment configs, seeded ensembles, runners, and result serialization."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from oseenlab import harness, norms, picard
from oseenlab.cli import default_config, main
from oseenlab.config import log_spaced
from oseenlab.exponents import ExponentProfile, s_exponent
from oseenlab.fields import (
    GridSpec,
    SpatialField,
    TimePeriodicField,
    _fftn,
    _fold_modes,
    derivative,
    gradient,
)
from oseenlab.harness import (
    EXPERIMENTS,
    CheckRecord,
    ExperimentConfig,
    ScalingResult,
    WakeConstraintError,
    emit_csv,
    exponent_report,
    fit_smallness_constant,
    leave_one_out_shift,
    loglog_slope,
    random_divergence_free,
    random_oscillatory,
    random_scalar_field,
    random_timeperiodic_forcing,
    run_experiment,
)
from oseenlab.nonlinear import convective_product
from oseenlab.norms import (
    lambda_norm,
    lambda_norm_from_pieces,
    lambda_norm_pieces,
    lq_norm,
    maxreg_norm,
    negative_norm_surrogate,
    sobolev_seminorm,
)
from oseenlab.oseen import (
    OseenParams,
    StokesPair,
    apply_oseen,
    project_oscillatory,
    project_steady,
    solve_steady,
    solve_timeperiodic,
)
from oseenlab.picard import radius_schedule

from conftest import zero_field


# --- slope fitting ---------------------------------------------------------


def test_loglog_slope_recovers_an_exact_power_law():
    x = np.logspace(-1, 1, 9)
    y = 3.0 * x**2.5
    assert abs(loglog_slope(x, y) - 2.5) <= 1e-13


def test_loglog_slope_undefined_cases():
    assert np.isnan(loglog_slope([1.0], [2.0]))
    assert np.isnan(loglog_slope([1.0, 2.0], [2.0]))
    assert np.isnan(loglog_slope([1.0, 2.0], [2.0, -1.0]))
    assert np.isnan(loglog_slope([1.0, 2.0], [2.0, np.inf]))


def test_leverage_is_zero_for_a_clean_power_law():
    x = np.logspace(0, 1, 7)
    y = 0.5 * x**-1.25
    assert leave_one_out_shift(x, y) <= 1e-13
    bent = y.copy()
    bent[3] *= 1.5
    assert leave_one_out_shift(x, bent) > 0.01
    assert np.isnan(leave_one_out_shift(x[:2], y[:2]))


# --- result containers -------------------------------------------------------


# Verdicts at values 1, 2 and 3 against the bound 2.
_VERDICTS = {"le": (True, True, False), "lt": (True, False, False), "ge": (False, True, True)}


@pytest.mark.parametrize("kind", _VERDICTS)
def test_check_record_verdict_follows_value_bound_and_kind(kind):
    verdicts = tuple(CheckRecord("x", v, 2.0, kind).passed for v in (1.0, 2.0, 3.0))
    assert verdicts == _VERDICTS[kind]
    assert not CheckRecord("x", math.nan, 2.0, kind).passed


def test_check_record_describes_the_verdict():
    passing = CheckRecord("demo", 1.0, 2.0, "le")
    failing = CheckRecord("demo", 3.0, 2.0, "lt")
    assert passing.describe() == "PASS demo: 1 <= 2"
    assert failing.describe() == "FAIL demo: 3 < 2"


def _column(result, name):
    """One table column of a ScalingResult as an array."""
    index = result.columns.index(name)
    return np.array([row[index] for row in result.rows])


def _toy_result(rows=((1.0, 2.0), (3.0, 4.0)), checks=()):
    return ScalingResult(
        experiment="mms",
        columns=("lambda", "value"),
        rows=rows,
        slopes={},
        constants={},
        checks=checks,
        flags=(),
    )


def test_scaling_result_validates_row_width_and_reads_columns():
    result = _toy_result()
    assert np.array_equal(_column(result, "value"), [2.0, 4.0])
    assert result.all_passed  # vacuous without checks
    failed = _toy_result(checks=(CheckRecord("x", 3.0, 2.0, "le"),))
    assert not failed.all_passed
    with pytest.raises(ValueError, match="row width"):
        _toy_result(rows=((1.0,),))


# --- config validation --------------------------------------------------------


def test_config_rejects_malformed_inputs():
    grid = GridSpec(3, np.pi, 16)
    with pytest.raises(ValueError, match="experiment must be one of"):
        ExperimentConfig("sweep", grid, (1.0,))
    with pytest.raises(ValueError, match="must not be empty"):
        ExperimentConfig("mms", grid, ())
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig("mms", grid, (2.0, 1.0))
    with pytest.raises(ValueError, match=r"lie in \(0, 16.0\]"):
        ExperimentConfig("mms", grid, (1.0, 20.0))
    with pytest.raises(ValueError, match="gamma must exceed 1"):
        ExperimentConfig("mms", grid, (1.0,), gamma=1.0)
    with pytest.raises(ValueError, match="forcing_shell must satisfy"):
        ExperimentConfig("mms", grid, (1.0,), forcing_shell=(3.0, 2.0))
    with pytest.raises(ValueError, match="time_modes must be >= 1"):
        ExperimentConfig("mms", grid, (1.0,), time_modes=0)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize("name", ["q", "r"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite_exponents(experiment, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
        ExperimentConfig(experiment, GridSpec(3, np.pi, 16), (2.0,), **{name: value})


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
def test_config_rejects_a_radius_that_is_not_positive_and_finite(value):
    # At rho = inf the radius schedule would halve forever.
    with pytest.raises(ValueError, match="^rho must be positive and finite, got"):
        ExperimentConfig("picard-steady", GridSpec(3, np.pi, 16), (2.0,), rho=value)


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
def test_config_rejects_a_tolerance_that_is_not_positive_and_finite(value):
    # At tol = inf every tol-scaled check bound would pass vacuously.
    message = f"^tol must be positive and finite, got {value}$"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig("picard-steady", GridSpec(3, np.pi, 16), (2.0,), tol=value)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("period", math.inf, "period must be positive and finite, got inf"),
        ("gamma", math.inf, "gamma must exceed 1 and be finite, got inf"),
        (
            "forcing_shell",
            (1.0, math.inf),
            r"forcing_shell must satisfy 0 < lo <= hi < inf, got \(1.0, inf\)",
        ),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("time_modes", 1.5, "time_modes must be an integer, got 1.5"),
        ("sample_count", 2.5, "sample_count must be an integer, got 2.5"),
        ("mode_cap", 2.5, "mode_cap must be an integer, got 2.5"),
        ("drift_mode_cap", 1.5, "drift_mode_cap must be an integer, got 1.5"),
    ],
    ids=[
        "period",
        "gamma",
        "forcing_shell",
        "seed",
        "time_modes",
        "sample_count",
        "mode_cap",
        "drift_mode_cap",
    ],
)
def test_config_rejects_non_finite_and_non_integer_inputs(name, value, message):
    # Each was accepted once and failed only later, if at all: period = inf
    # makes every frequency 0, gamma = inf fails inside the radius schedule,
    # an infinite shell overflows the mode cap, a fractional count fails
    # inside numpy or range, a fractional mode cap fails in the mode list and
    # a fractional drift mode cap acted as its floor.
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig("picard-tp", GridSpec(3, np.pi, 16), (1.0,), **{name: value})


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1"):
        ExperimentConfig("mms", GridSpec(3, np.pi, 16), (2.0,), seed=-1)


def test_wake_floor_guards_the_solving_sweeps():
    grid = GridSpec(3, np.pi, 16)
    floor = 4.0 / np.pi
    with pytest.raises(WakeConstraintError, match="below the wake floor"):
        ExperimentConfig("scaling-steady", grid, log_spaced(0.5, 13.0, 5))
    cfg = ExperimentConfig("scaling-steady", grid, log_spaced(floor, 13.0, 5))
    assert cfg.wake_floor == pytest.approx(floor)
    # non-solving experiments have no floor
    low = ExperimentConfig("lifting-check", grid, (0.001, 1.0))
    assert low.wake_floor == 0.0
    # and no config can move the floor of the solving ones
    with pytest.raises(TypeError, match="c_wake"):
        ExperimentConfig("scaling-tp", grid, log_spaced(0.1, 1.0, 5), c_wake=math.nan)


@pytest.mark.parametrize(
    "experiment, ceiling", [("bilinear", 100.0), ("scaling-tp", 16.0)]
)
def test_each_experiment_keeps_its_drift_ceiling(experiment, ceiling):
    # The ceiling is the table entry's, not a config setting.
    cfg = default_config(experiment)
    top = (*cfg.lambda_grid[:-1], ceiling)
    assert dataclasses.replace(cfg, lambda_grid=top).lambda_grid[-1] == ceiling
    over = (*cfg.lambda_grid[:-1], ceiling + 1.0)
    message = rf"^lambda_grid must lie in \(0, {ceiling}\], got "
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(cfg, lambda_grid=over)


@pytest.mark.parametrize("experiment", ["picard-steady", "scaling-steady", "bilinear"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_non_finite_drift_is_refused(experiment, where):
    # NaN fails every ordering test, so only the finiteness check stops it
    # from failing late in a sweep or dropping bilinear's wake weight.
    cfg = default_config(experiment)
    lams = list(cfg.lambda_grid if len(cfg.lambda_grid) >= 3 else (0.5, 1.0, 2.0))
    lams[{"first": 0, "middle": len(lams) // 2, "last": -1}[where]] = math.nan
    with pytest.raises(ValueError, match="^lambda_grid must be finite, got "):
        dataclasses.replace(cfg, lambda_grid=tuple(lams))


def test_sweep_requirements_are_enforced():
    grid = GridSpec(3, np.pi, 16)
    with pytest.raises(ValueError, match="at least 5 sweep points"):
        ExperimentConfig(
            "scaling-steady", grid, tuple(log_spaced(4 / np.pi, 40 / np.pi, 3))
        )
    with pytest.raises(ValueError, match="spanning >= 1"):
        ExperimentConfig(
            "scaling-steady", grid, tuple(log_spaced(4 / np.pi, 8 / np.pi, 5))
        )


# --- seeded ensembles ----------------------------------------------------------


def test_random_fields_are_deterministic_and_divergence_free():
    grid = GridSpec(3, np.pi, 16)
    a = random_divergence_free(grid, (5,))
    b = random_divergence_free(grid, (5,))
    assert np.array_equal(a.components, b.components)
    assert abs(lq_norm(a, 2.0) - 1.0) <= 1e-12
    from oseenlab.fields import divergence

    assert lq_norm(divergence(a), 2.0) <= 1e-12


def test_random_fields_are_the_same_continuum_object_across_grids():
    # One mode set, drawn for the coarse grid, serves both grids.
    coarse_grid = GridSpec(3, np.pi, 16)
    modes = harness._mode_list(coarse_grid, None, None, None)
    coarse = random_divergence_free(coarse_grid, (5,), modes=modes)
    fine = random_divergence_free(GridSpec(3, np.pi, 32), (5,), modes=modes)
    subsampled = fine.components[:, ::2, ::2, ::2]
    assert np.max(np.abs(subsampled - coarse.components)) <= 1e-12


def test_forcing_shell_and_drift_cap_shape_the_spectrum():
    grid = GridSpec(3, np.pi, 32)
    shell_modes = harness._mode_list(grid, None, (7.0, 9.0), 1)
    field = random_divergence_free(grid, (11,), modes=shell_modes)
    coeffs = np.abs(_fftn(field.components, grid.dim))
    m = np.fft.fftfreq(32, d=1.0 / 32)
    m1, m2, m3 = np.meshgrid(m, m, m, indexing="ij")
    radius = np.sqrt(m1**2 + m2**2 + m3**2)
    live = coeffs.max(axis=0) > 1e-14 * coeffs.max()
    assert radius[live].min() >= 7.0 - 1e-9
    assert radius[live].max() <= 9.0 + 1e-9
    assert np.abs(m1)[live].max() <= 1

    cube = harness._mode_list(grid, 2, None, None)
    capped = random_divergence_free(grid, (12,), modes=cube)
    spectrum = np.abs(_fftn(capped.components, grid.dim)).max(axis=0)
    live = spectrum > 1e-14 * spectrum.max()
    infinity_norm = np.maximum(np.abs(m1), np.maximum(np.abs(m2), np.abs(m3)))
    assert infinity_norm[live].max() <= 2


def _steady_oseen_reference(u, p, lam):
    """-Lap u + lam d_1 u + grad p composed from physical-space derivatives."""
    expected = lam * derivative(u, 1).components
    for axis in range(1, u.grid.dim + 1):
        expected = expected - derivative(derivative(u, axis), axis).components
    return expected + gradient(p).components


def test_oseen_apply_matches_explicit_derivatives():
    grid = GridSpec(3, np.pi, 16)
    lam, period, time_modes = 0.7, 2.0, 2
    velocity = [random_divergence_free(grid, (3, j)) for j in range(5)]
    pressure = [random_scalar_field(grid, (4, j)) for j in range(5)]
    steady = apply_oseen(StokesPair(velocity[0], pressure[0]), OseenParams(lam))
    expected = [_steady_oseen_reference(velocity[0], pressure[0], lam)]
    assert np.max(np.abs(steady.components - expected[0])) <= 1e-12 * np.max(
        np.abs(expected[0])
    )
    # Mode k of d_t u is i omega_k u_k: -omega u_im joins the real part and
    # +omega u_re the imaginary part.
    u_modes = [velocity[0].components]
    p_modes = [pressure[0].components]
    for k in range(1, time_modes + 1):
        omega = 2.0 * math.pi * k / period
        u_re, u_im = velocity[2 * k - 1], velocity[2 * k]
        p_re, p_im = pressure[2 * k - 1], pressure[2 * k]
        f_re = _steady_oseen_reference(u_re, p_re, lam) - omega * u_im.components
        f_im = _steady_oseen_reference(u_im, p_im, lam) + omega * u_re.components
        expected.append(f_re + 1j * f_im)
        u_modes.append(u_re.components + 1j * u_im.components)
        p_modes.append(p_re.components + 1j * p_im.components)
    pair = StokesPair(
        TimePeriodicField.from_modes(grid, period, u_modes),
        TimePeriodicField.from_modes(grid, period, p_modes),
    )
    out = apply_oseen(pair, OseenParams(lam)).modes
    expected = np.stack(expected)
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def _modes(mode_list, grid, kwargs):
    """``mode_list(grid, ...)`` of the caps ``kwargs`` as an array, or None
    (the draws' default cube) for no caps."""
    if not kwargs:
        return None
    caps = {"mode_cap": None, "shell": None, "drift_mode_cap": None, **kwargs}
    return np.asarray(mode_list(grid, **caps))


def _ref_random_stack(grid, period, time_modes, key, mode_zero, weight, modes):
    """The stack assembly the seeded stacks replaced, kept as their reference."""
    nonneg = [mode_zero]
    for k in range(1, time_modes + 1):
        re = random_divergence_free(grid, key + [k, 0], modes=modes)
        im = random_divergence_free(grid, key + [k, 1], modes=modes)
        nonneg.append(weight * (re.components + 1j * im.components))
    return harness._normalized(TimePeriodicField.from_modes(grid, period, nonneg))


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("time_modes", [1, 2])
@pytest.mark.parametrize(
    "grid, kwargs",
    [
        (GridSpec(2, np.pi, 16), {}),
        (GridSpec(3, np.pi, 16), dict(mode_cap=2)),
        (GridSpec(3, np.pi, 32), dict(shell=(7.0, 9.0), drift_mode_cap=1)),
    ],
)
def test_seeded_stacks_are_bitwise_the_assembly_reference(
    grid, kwargs, time_modes, seed
):
    modes = _modes(harness._mode_list, grid, kwargs)
    zero = np.zeros((grid.dim,) + grid.shape, dtype=np.complex128)
    steady = random_divergence_free(grid, [seed, 0], modes=modes).components
    cases = [
        (
            random_oscillatory(grid, 2.0, time_modes, (seed,), modes=modes),
            _ref_random_stack(grid, 2.0, time_modes, [seed], zero, 1.0, modes),
        ),
        (
            random_timeperiodic_forcing(grid, 2.0, time_modes, (seed,), modes=modes),
            _ref_random_stack(
                grid, 2.0, time_modes, [seed], steady.astype(np.complex128), 0.5,
                modes,
            ),
        ),
    ]
    for out, ref in cases:
        assert np.array_equal(out.modes.view(np.int64), ref.modes.view(np.int64))


# --- runners -------------------------------------------------------------------


def test_manufactured_solutions_recover_through_every_path():
    cfg = ExperimentConfig(
        "mms",
        GridSpec(3, np.pi, 16),
        (0.5, 2.0),
        q=4.0,
        r=2.0,
        time_modes=2,
    )
    result = run_experiment(cfg)
    assert result.columns == (
        "lambda",
        "steady_velocity_error",
        "steady_pressure_error",
        "tp_velocity_error",
        "tp_pressure_error",
    )
    assert result.all_passed
    worst_linear = max(max(row[1:]) for row in result.rows)
    assert worst_linear <= 1e-13
    names = {check.name for check in result.checks}
    assert "steady_velocity_error_max" in names
    assert "tp_pressure_error_max" in names


def test_mms_passes_the_mode_cap_to_every_draw(monkeypatch):
    cfg = ExperimentConfig(
        "mms", GridSpec(3, np.pi, 16), (0.5, 2.0), q=4.0, r=2.0, time_modes=2
    )
    passed = []
    for name in ("random_divergence_free", "random_scalar_field"):
        def recording(grid, key, _draw=getattr(harness, name), **kwargs):
            # The smallness fit draws on its own mode set, under tag 101.
            if key[1] != 101:
                passed.append(kwargs.get("modes"))
            return _draw(grid, key, **kwargs)

        monkeypatch.setattr(harness, name, recording)
    assert run_experiment(cfg).all_passed
    # Once per run, not per drift: two time-periodic stacks of 2K + 1 draws
    # each, then the nonlinear pair.
    assert len(passed) == 2 * (2 * cfg.time_modes + 1) + 2
    assert all(modes is cfg.draw_modes for modes in passed)


def _steady_config():
    return ExperimentConfig(
        "scaling-steady",
        GridSpec(3, np.pi, 32),
        tuple(log_spaced(4 / np.pi, 40 / np.pi, 5)),
        q=4.0,
        r=2.0,
        forcing_shell=(7.0, 9.0),
        drift_mode_cap=1,
    )


def test_steady_sweep_rows_are_re_derivable_from_module_calls():
    cfg = _steady_config()
    result = run_experiment(cfg)
    assert result.all_passed

    grid = cfg.grid
    forcing = random_divergence_free(
        grid, [cfg.seed, 11], modes=cfg.forcing_modes
    ) + gradient(random_scalar_field(grid, [cfg.seed, 12], modes=cfg.draw_modes))
    f_lq = lq_norm(forcing, cfg.q)
    f_neg = negative_norm_surrogate(forcing, cfg.r)

    row = result.rows[2]
    lam = row[0]
    pair = solve_steady(forcing, OseenParams(lam=lam))
    s = s_exponent(grid.dim, cfg.r)

    def col(name):
        return row[result.columns.index(name)]

    assert col("seminorm_1r") == pytest.approx(
        sobolev_seminorm(pair.velocity, 1, cfg.r), rel=1e-13
    )
    assert col("lq_s") == pytest.approx(lq_norm(pair.velocity, s), rel=1e-13)
    assert col("pressure_lq_r") == pytest.approx(
        lq_norm(pair.pressure, cfg.r), rel=1e-13
    )
    # M = 0 for (n, r) = (3, 2): the first line's data norm carries no weight
    assert col("rhs_line1") == pytest.approx(f_neg, rel=1e-13)
    drift = derivative(pair.velocity, 1)
    lhs_line2 = (
        sobolev_seminorm(pair.velocity, 2, cfg.q)
        + lam * lq_norm(drift, cfg.q)
        + sobolev_seminorm(pair.pressure, 1, cfg.q)
    )
    assert col("ratio_line2") == pytest.approx(
        lhs_line2 / (f_lq + f_neg), rel=1e-13
    )


def _seeded_pressure(points: int, max_mode: int) -> TimePeriodicField:
    grid = GridSpec(3, np.pi, points)
    draw = functools.partial(random_scalar_field, grid)
    zero = np.zeros((1,) + grid.shape)
    return harness._seeded_stack(grid, 1.0, max_mode, draw, [0, 62], zero)


def _dense_gradient_norm(pressure: TimePeriodicField, count: int, q: float) -> float:
    """The l^q space-time gradient norm from ``count`` synthesized instants,
    one spatial derivative at a time."""
    grid = pressure.grid
    return np.mean(
        [
            sum(
                lq_norm(derivative(SpatialField(grid, sample), axis), q) ** q
                for axis in range(1, grid.dim + 1)
            )
            for sample in pressure.sample_times(count)
        ]
    ) ** (1.0 / q)


def test_bochner_gradient_norm_is_converged_in_time():
    # The oscillatory pressure of the default scaling-tp run, up to a factor.
    # At q = 2 its integrand has degree 2K in t: 2K + 1 instants are exact.
    pressure = _seeded_pressure(32, 1)
    dense = _dense_gradient_norm(pressure, 48, 2.0)
    assert abs(norms._bochner_gradient_norm(pressure, 2.0) - dense) <= 1e-11 * dense


def test_bochner_gradient_norm_keeps_doubling_at_two_time_modes():
    # At 16^3, K = 2 the l^q integrand is exact on 2K + 1 = 5 instants at
    # q = 2 and on 4K + 1 = 9 at q = 4.
    pressure = _seeded_pressure(16, 2)
    for q in (2.0, 4.0):
        dense = _dense_gradient_norm(pressure, 96, q)
        assert abs(norms._bochner_gradient_norm(pressure, q) - dense) <= 1e-11 * dense


def test_bochner_gradient_norm_transforms_its_stack_once(monkeypatch):
    # One forward transform of the stack's 2K real time fields, whatever
    # the instant count.
    shapes = []
    original = norms._rfftn

    def recording(values, dim):
        shapes.append(values.shape)
        return original(values, dim)

    monkeypatch.setattr(norms, "_rfftn", recording)
    norms._bochner_gradient_norm(_seeded_pressure(16, 2), 2.0)
    assert shapes == [(4, 1, 16, 16, 16)]


@pytest.mark.parametrize("max_mode", [1, 2, 3])
def test_bochner_gradient_norm_is_exact_at_even_q(monkeypatch, max_mode):
    # |d_i p(t)|^q has degree qK in t at an even q: qK + 1 instants give
    # the value of eight times as many.
    pressure = _seeded_pressure(16 if max_mode < 3 else 12, max_mode)
    for q in (2.0, 4.0, 6.0):
        exact = norms._bochner_gradient_norm(pressure, q)
        count = norms._default_time_samples
        assert count(max_mode, q) == int(q) * max_mode + 1
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_default_time_samples", lambda k, e: 8 * count(k, e))
            dense = norms._bochner_gradient_norm(pressure, q)
        assert abs(exact - dense) <= 1e-14 * dense


@pytest.mark.parametrize("max_mode", [1, 2])
def test_bochner_gradient_norm_at_q2_is_plancherel(max_mode):
    # Parseval in space and time: the mean over x and t of sum_i |d_i p|^2
    # is the folded mode sum of sum_i |xi_i|^2 |p_k|^2.
    pressure = _seeded_pressure(16, max_mode)
    grid = pressure.grid
    xi_sq = sum(grid.wavenumber(axis) ** 2 for axis in range(grid.dim))
    total = _fold_modes(
        float(np.sum(xi_sq * np.abs(_fftn(mode, grid.dim)[0]) ** 2))
        for mode in pressure.modes
    )
    plancherel = math.sqrt(total * grid.volume)
    value = norms._bochner_gradient_norm(pressure, 2.0)
    assert abs(value - plancherel) <= 1e-13 * plancherel


@pytest.mark.parametrize("q", ["3", "2.5"])
def test_scaling_tp_config_at_odd_q_passes(tmp_path, capsys, q):
    # The built-in scaling-tp settings at a q with no exact instant count.
    ini = tmp_path / "tp.ini"
    ini.write_text(
        "[experiment]\nname = scaling-tp\n"
        f"q = {q}\n"
        "points = 32\nperiod = 1.0\nforcing_shell = 7.0, 9.0\n"
        "drift_mode_cap = 1\nlambda_min = 1.2732395447351628\n"
        "lambda_max = 12.732395447351628\nlambda_points = 7\n"
    )
    assert main(["scaling-tp", "--config", str(ini)]) == 0
    assert "ALL CHECKS PASSED" in capsys.readouterr().out


def test_timeperiodic_sweep_rows_are_re_derivable_from_module_calls():
    # Every entry of every row, exactly: the scaling-tp table is the steady
    # estimate lines on the time averages plus the oscillatory columns.
    cfg = ExperimentConfig(
        "scaling-tp",
        GridSpec(3, np.pi, 16),
        tuple(log_spaced(4 / np.pi, 40 / np.pi, 5)),
        period=1.0,
        forcing_shell=(3.0, 4.0),
        drift_mode_cap=1,
    )
    result = run_experiment(cfg)
    grid, q, r, n = cfg.grid, cfg.q, cfg.r, cfg.grid.dim

    grad_modes = []
    for k in range(cfg.time_modes + 1):
        g_re = random_scalar_field(grid, [cfg.seed, 62, k, 0])
        g_im = (
            zero_field(grid, 1)
            if k == 0
            else random_scalar_field(grid, [cfg.seed, 62, k, 1])
        )
        grad_modes.append(
            0.5 * (gradient(g_re).components + 1j * gradient(g_im).components)
        )
    forcing = random_timeperiodic_forcing(
        grid,
        cfg.period,
        cfg.time_modes,
        [cfg.seed, 61],
        modes=cfg.forcing_modes,
    ) + TimePeriodicField.from_modes(grid, cfg.period, grad_modes)
    f_mean = project_steady(forcing)
    f_lq, f_neg = lq_norm(f_mean, q), negative_norm_surrogate(f_mean, r)
    f_osc_lq = lq_norm(project_oscillatory(forcing), q)
    s = s_exponent(n, r)

    assert len(result.rows) == len(cfg.lambda_grid)
    for row in result.rows:
        lam = row[0]
        velocity, pressure = solve_timeperiodic(forcing, OseenParams(lam=lam))
        v_mean, p_mean = project_steady(velocity), project_steady(pressure)
        drift = derivative(v_mean, 1)
        seminorm_1r = sobolev_seminorm(v_mean, 1, r)
        lq_s = lq_norm(v_mean, s)
        # M = 0 and delta = 0 for (n, r) = (3, 2): no data weight, and the
        # wake weight is lam^(1/(n+1))
        weighted_lq_s = lam ** (1.0 / (n + 1)) * lq_s
        drift_neg = lam * negative_norm_surrogate(drift, r)
        pressure_lq_r = lq_norm(p_mean, r)
        seminorm_2q = sobolev_seminorm(v_mean, 2, q)
        drift_lq_q = lam * lq_norm(drift, q)
        pressure_grad = sobolev_seminorm(p_mean, 1, q)
        maxreg = maxreg_norm(project_oscillatory(velocity), q)
        p_osc_grad = norms._bochner_gradient_norm(project_oscillatory(pressure), q)
        expected = (
            lam,
            seminorm_1r,
            lq_s,
            weighted_lq_s,
            drift_neg,
            pressure_lq_r,
            f_neg,
            (seminorm_1r + weighted_lq_s + drift_neg + pressure_lq_r) / f_neg,
            seminorm_2q,
            drift_lq_q,
            pressure_grad,
            f_lq + f_neg,
            (seminorm_2q + drift_lq_q + pressure_grad) / (f_lq + f_neg),
            maxreg,
            p_osc_grad,
            f_osc_lq,
            maxreg / f_osc_lq,
            (maxreg + p_osc_grad) / f_osc_lq,
        )
        assert row == tuple(map(float, expected))
    assert result.constants["constant_oscillatory"] == max(
        _column(result, "ratio_oscillatory")
    )


def test_steady_sweep_slopes_and_constants_match_the_table():
    result = run_experiment(_steady_config())
    lams = _column(result, "lambda")
    for name in ("ratio_line1", "ratio_line2", "weighted_lq_s"):
        recomputed = loglog_slope(lams, _column(result, name))
        assert result.slopes[name] == pytest.approx(recomputed, rel=1e-13)
    assert result.constants["constant_line1"] == pytest.approx(
        _column(result, "ratio_line1").max(), rel=1e-15
    )
    assert result.constants["constant_line2"] == pytest.approx(
        _column(result, "ratio_line2").max(), rel=1e-15
    )


def test_planar_drift_weight_is_flagged_not_asserted():
    cfg = ExperimentConfig(
        "scaling-steady",
        GridSpec(2, np.pi, 128),
        tuple(log_spaced(4 / np.pi, 40 / np.pi, 7)),
        q=6.0,
        r=2.0,
        forcing_shell=(14.0, 18.0),
        drift_mode_cap=1,
    )
    result = run_experiment(cfg)
    assert result.all_passed
    assert result.constants["m_exponent"] == 2.0
    assert result.constants["delta"] == 1.0
    assert any("M != 0" in flag for flag in result.flags)
    # drift-amplified data: the weighted norm line grows instead of decaying
    assert result.slopes["weighted_lq_s"] == pytest.approx(0.6631, abs=1e-3)
    check_names = {check.name for check in result.checks}
    assert "ratio_line1_slope" not in check_names


def test_smallness_constant_is_stable_under_refinement():
    profile = ExponentProfile(3, 4.0, 2.0)
    coarse = fit_smallness_constant(GridSpec(3, np.pi, 16), profile, seed=0)
    fine = fit_smallness_constant(GridSpec(3, np.pi, 24), profile, seed=0)
    assert coarse > 0
    assert 0.8 <= coarse / fine <= 1.2
    # each grid is fitted on its own draws
    assert coarse != fine


def _full_grid_fit(grid, profile, seed):
    """The fit with every probe on ``grid``, as before the probe grid."""
    n, q, r = profile.n, profile.q, profile.r
    weight = 1.0 / (n + 1)
    samples = [random_divergence_free(grid, [seed, 101, i]) for i in range(8)]
    best = 0.0
    for g in samples:
        g_data = lq_norm(g, q)
        g_neg = negative_norm_surrogate(g, r)
        for lam in (0.25, 1.0, 4.0):
            pair = solve_steady(g, OseenParams(lam))
            numerator = lambda_norm(pair.velocity, lam, q, r)
            denominator = g_data + lam ** (-profile.m_exponent * weight) * g_neg
            best = max(best, numerator / denominator)
    pieces = [lambda_norm_pieces(v, q, r) for v in samples]
    for i, v_one in enumerate(samples):
        j = (i + 1) % len(samples)
        product = convective_product(v_one, samples[j])
        strong = lq_norm(product, q)
        weak = negative_norm_surrogate(product, r)
        for lam in (0.25, 1.0, 4.0):
            denominator = lambda_norm_from_pieces(
                pieces[i], lam, n
            ) * lambda_norm_from_pieces(pieces[j], lam, n)
            best = max(
                best,
                strong * lam ** (profile.theta * weight) / denominator,
                weak * lam ** (profile.eta * weight) / denominator,
            )
    return best


@pytest.mark.parametrize("points", [8, 16, 24, 32])
def test_smallness_constant_on_the_probe_grid_matches_the_full_grid(points):
    # The probes are band-limited, so the coarse probe grid integrates their
    # even-power norms exactly: the fit moves by roundoff only.
    profile = ExponentProfile(3, 4.0, 2.0)
    grid = GridSpec(3, np.pi, points)
    assert fit_smallness_constant(grid, profile, seed=0) == pytest.approx(
        _full_grid_fit(grid, profile, 0), rel=1e-13
    )


@pytest.mark.parametrize("experiment", ["picard-steady", "picard-tp"])
def test_fit_roundoff_cannot_move_the_scheduled_radius(experiment):
    # The fit reaches the iterate only through the halving radius schedule,
    # and the default schedules sit far from a threshold.
    cfg = default_config(experiment)
    profile, gamma, constant, base = harness._picard_schedule(cfg)
    for scale in (1.0 - 1e-12, 1.0 + 1e-12):
        moved = radius_schedule(cfg.rho, gamma, profile, constant * scale, tol=cfg.tol)
        assert moved.rho == base.rho


def _small_picard_config(experiment):
    return dataclasses.replace(
        default_config(experiment), grid=GridSpec(3, np.pi, 16), time_modes=2
    )


def _counting(calls, function):
    def wrapped(*args, **kwargs):
        calls.append(function.__name__)
        return function(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("experiment", ["picard-steady", "picard-tp"])
def test_picard_ladder_certifies_each_rung_once_and_sizes_four_forcings(
    monkeypatch, experiment
):
    # The unit forcing and the three rung gates are sized; the second start
    # runs the loop alone, so it adds neither a gate nor a certificate.
    calls = []
    monkeypatch.setattr(picard, "_certificate", _counting(calls, picard._certificate))
    for module in (harness, picard):
        monkeypatch.setattr(module, "data_size", _counting(calls, picard.data_size))
    result = run_experiment(_small_picard_config(experiment))
    assert result.all_passed
    assert calls.count("_certificate") == 3
    assert calls.count("data_size") == 1 + 3


@pytest.mark.parametrize("experiment", ["picard-steady", "picard-tp"])
def test_initial_iterate_independence_fails_when_the_loop_keeps_its_start(
    monkeypatch, experiment
):
    # A loop that hands back the second start unchanged never reaches the
    # fixed point, so the check must read FAIL while the rungs still pass.
    def stuck(f, cfg, lifting, initial, solve, norm):
        return initial, (), norm(initial, cfg.lam, cfg.profile.q, cfg.profile.r)

    monkeypatch.setattr(harness, "_contraction_loop", stuck)
    result = run_experiment(_small_picard_config(experiment))
    checks = {check.name: check for check in result.checks}
    independence = checks.pop("initial_iterate_independence")
    assert not independence.passed
    assert independence.value > 1e3 * independence.bound
    assert all(check.passed for check in checks.values())


def test_smallness_constant_rejects_a_profile_of_another_dimension():
    profile = ExponentProfile(4, 4.0, 2.0)
    with pytest.raises(ValueError, match="profile is for n = 4, but the grid has dim 3"):
        fit_smallness_constant(GridSpec(3, np.pi, 8), profile, seed=0)


def test_bilinear_constants_are_stable_under_resampling():
    base = dict(
        grid=GridSpec(3, 1.0e7, 16),
        lambda_grid=tuple(log_spaced(10.0, 100.0, 7)),
        q=4.0,
        r=2.0,
        forcing_shell=(1.0, 1.8),
    )
    small = run_experiment(
        ExperimentConfig("bilinear", sample_count=40, **base)
    )
    large = run_experiment(
        ExperimentConfig("bilinear", sample_count=80, **base)
    )
    assert small.all_passed and large.all_passed
    for key, value in small.constants.items():
        if value == 0.0:
            continue
        assert 0.8 <= large.constants[key] / value <= 1.2, key
    assert small.constants["fitted_zeta_steady_osc"] < 1.0
    assert small.constants["fitted_zeta_osc_steady"] < 1.0
    # r = (n+1)/2 pins the weak-estimate drift exponent near two
    assert abs(small.constants["fitted_eta"] - 2.0) <= 0.25
    assert any("below the 100-pair reporting floor" in flag for flag in small.flags)


def _bilinear_config(points, **overrides):
    """A reduced bilinear ensemble: 20 pairs, 5 drifts spanning one decade."""
    settings = dict(
        grid=GridSpec(3, 1.0e7, points),
        lambda_grid=tuple(log_spaced(10.0, 100.0, 5)),
        q=4.0,
        r=2.0,
        forcing_shell=(1.0, 1.8),
        sample_count=20,
    )
    return ExperimentConfig("bilinear", **{**settings, **overrides})


def _on_the_config_grid(monkeypatch, cfg):
    """The ensemble with every draw and norm on ``cfg.grid``."""
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_ensemble_grid", lambda c: c.grid)
        return run_experiment(cfg)


def test_bilinear_default_config_evaluates_on_its_exact_grid():
    # The shell (1.0, 1.8) caps the draws at 2, but it keeps only modes with
    # |m_i| <= 1: the products have band 2, and q = s = 4 needs N > 8.
    cfg = default_config("bilinear")
    assert math.ceil(cfg.forcing_shell[1]) == 2
    assert np.max(np.abs(cfg.forcing_modes)) == 1
    assert harness._ensemble_grid(cfg) == GridSpec(3, cfg.grid.half_period, 10)
    assert cfg.grid.points_per_axis == 16


def test_bilinear_ensemble_falls_back_to_the_config_grid():
    # No coarser grid is exact: 10 points would not be fewer than 8.
    coarse = _bilinear_config(8)
    assert harness._ensemble_grid(coarse) is coarse.grid
    # q = 3 and r = 1.6 are not even integers, so no grid is exact.
    odd = _bilinear_config(16, q=3.0, r=1.6, sample_count=10)
    assert harness._ensemble_grid(odd) is odd.grid


def test_bilinear_ensemble_off_the_rule_equals_the_config_grid_run(monkeypatch):
    cfg = _bilinear_config(16, q=3.0, r=1.6, sample_count=10)
    result = run_experiment(cfg)
    reference = _on_the_config_grid(monkeypatch, cfg)
    assert result.rows == reference.rows
    assert result.constants == reference.constants
    assert result.slopes == reference.slopes
    assert result.checks == reference.checks
    assert result.flags == reference.flags


@pytest.mark.parametrize("points", [16, 24])
def test_bilinear_ensemble_on_its_exact_grid_matches_the_config_grid(
    monkeypatch, points
):
    # The draws are band-limited, so the 10^3 grid integrates every norm of
    # the ensemble exactly: the table moves by roundoff only.  The reference
    # runs on the config grid itself, so a bug that depends on N (say, a
    # wrong volume factor) shows here.
    cfg = _bilinear_config(points)
    assert harness._ensemble_grid(cfg).points_per_axis == 10
    result = run_experiment(cfg)
    reference = _on_the_config_grid(monkeypatch, cfg)
    np.testing.assert_allclose(result.rows, reference.rows, rtol=1e-13, atol=0)
    assert result.constants.keys() == reference.constants.keys()
    for key, value in reference.constants.items():
        assert result.constants[key] == pytest.approx(value, rel=1e-13, abs=0), key
    assert result.slopes.keys() == reference.slopes.keys()
    for key, slope in reference.slopes.items():
        assert abs(result.slopes[key] - slope) <= 1e-13 * max(abs(slope), 1.0), key
    assert [c.passed for c in result.checks] == [c.passed for c in reference.checks]
    assert [c.name for c in result.checks] == [c.name for c in reference.checks]
    assert result.flags == reference.flags


# --- the draw set-up against the loops it replaced ----------------------------


def _ref_mode_list(grid, mode_cap, shell, drift_mode_cap):
    cap = int(math.ceil(shell[1])) if shell is not None else (
        mode_cap if mode_cap is not None else min(4, max(1, grid.points_per_axis // 8))
    )
    if cap < 1:
        raise ValueError(f"mode cap must be >= 1, got {cap}")
    if cap > grid.dealias_cutoff:
        raise ValueError(
            f"mode cap {cap} exceeds the grid's dealias cutoff "
            f"{grid.dealias_cutoff}; refine the grid"
        )
    modes = []
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
    return modes


def _ref_coefficients_from_draws(grid, modes, draws):
    coeff = np.zeros(grid.shape, dtype=np.complex128)
    n = grid.points_per_axis
    for m, (a, b) in zip(modes, draws):
        value = 0.5 * (a + 1j * b)
        coeff[tuple(v % n for v in m)] = value
        coeff[tuple(-v % n for v in m)] = np.conj(value)
    return coeff


_DRAW_CASES = [
    (GridSpec(2, np.pi, 16), {}),
    (GridSpec(2, np.pi, 32), dict(shell=(7.0, 9.0), drift_mode_cap=1)),
    (GridSpec(3, np.pi, 16), dict(mode_cap=2)),
    (GridSpec(3, np.pi, 16), dict(mode_cap=3, drift_mode_cap=1)),
    (GridSpec(3, 1.0e7, 16), dict(shell=(1.0, 1.8))),
]


def _draws(grid, modes):
    return [
        random_scalar_field(grid, [7, 1], modes=modes).components[0],
        random_divergence_free(grid, [7, 2], modes=modes).components,
        random_timeperiodic_forcing(grid, 2.0, 2, [7, 3], modes=modes).modes,
    ]


@pytest.mark.parametrize("grid, kwargs", _DRAW_CASES)
def test_random_draws_are_bitwise_the_loop_reference(monkeypatch, grid, kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_mode_list", _ref_mode_list)
        patch.setattr(harness, "_coefficients_from_draws", _ref_coefficients_from_draws)
        expected = _draws(grid, _modes(_ref_mode_list, grid, kwargs))
    modes = _modes(harness._mode_list, grid, kwargs)
    for out, ref in zip(_draws(grid, modes), expected):
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))


def test_mode_set_is_cached_read_only_and_still_validated():
    grid = GridSpec(3, 1.0e7, 16)
    modes = harness._mode_list(grid, None, (1.0, 1.8), None)
    assert modes is harness._mode_list(grid, None, (1.0, 1.8), None)
    assert modes.dtype == np.int64 and modes.shape == (len(modes), 3)
    assert np.array_equal(modes, _ref_mode_list(grid, None, (1.0, 1.8), None))
    with pytest.raises(ValueError, match="read-only"):
        modes[0, 0] = 0
    listed = random_divergence_free(grid, [3], modes=modes.tolist())
    assert np.array_equal(
        listed.components, random_divergence_free(grid, [3], modes=modes).components
    )
    # A 16^3 draw refuses the cap-6 cube of a 32^3 grid, with the mode list's
    # message, every time.
    wide = harness._mode_list(GridSpec(3, 1.0e7, 32), 6, None, None)
    for _ in range(2):
        with pytest.raises(ValueError, match="mode cap 6 exceeds the grid's dealias"):
            random_divergence_free(grid, [3], modes=wide)
    # A 3-D draw refuses planar modes, and every draw refuses non-integer or
    # empty sets.
    planar = harness._mode_list(GridSpec(2, np.pi, 16), None, None, None)
    bad_sets = [planar, modes.astype(float), modes[:0], modes[0]]
    refused = r"modes must be a nonempty \(count, 3\) integer array"
    for draw in (random_scalar_field, random_divergence_free):
        for bad in bad_sets:
            with pytest.raises(ValueError, match=refused):
                draw(grid, [3], modes=bad)
    with pytest.raises(ValueError, match=refused):
        random_oscillatory(grid, 2.0, 1, [3], modes=planar)


def test_forcing_modes_are_the_draw_modes_unless_a_shell_or_drift_cap_is_set():
    cfg = default_config("picard-steady")
    assert cfg.forcing_modes is cfg.draw_modes
    assert np.array_equal(cfg.draw_modes, _ref_mode_list(cfg.grid, None, None, None))
    # A shell sets the forcing's cap (ceil 9.0 = 9), and mode_cap = 2 shapes
    # only the other draws.
    shelled = dataclasses.replace(
        cfg, mode_cap=2, forcing_shell=[7.0, 9.0], drift_mode_cap=1
    )
    assert shelled.forcing_shell == (7.0, 9.0)
    assert np.array_equal(
        shelled.forcing_modes, _ref_mode_list(cfg.grid, None, (7.0, 9.0), 1)
    )
    assert np.array_equal(shelled.draw_modes, _ref_mode_list(cfg.grid, 2, None, None))


# --- dispatch and serialization ---------------------------------------------


def test_every_experiment_has_a_runner():
    assert EXPERIMENTS == tuple(harness._TABLE)
    for experiment, spec in harness._TABLE.items():
        assert default_config(experiment).experiment == experiment
        assert callable(spec.runner)


def test_exponent_report_contents():
    report = exponent_report(3, 4.0, 2.0)
    assert report["s"] == 4.0
    assert report["m_exponent"] == 0
    assert report["theta"] == 1.0
    assert report["admissible[steady-nonlinear]"] is True
    assert report["admissible[timeperiodic-nonlinear]"] is True
    blocked = exponent_report(3, 3.0, 2.0)
    assert blocked["theta"] is None
    assert "theta undefined" in blocked["theta_reason"]
    assert "violated[linear-full]" in blocked


@pytest.mark.parametrize(
    "n, q, r", [(3, 3.0, 1.6), (3, 4.0, 2.0), (3, 8.0, 2.5), (3, 20.0, 2.8)]
)
def test_exponent_report_states_the_profile_interval(n, q, r):
    profile = ExponentProfile(n, q, r)
    assert exponent_report(n, q, r)["gamma_interval"] == profile.gamma_range


def _read_csv(path):
    lines = path.read_text().splitlines()
    rows = tuple(tuple(float(token) for token in line.split(",")) for line in lines[1:])
    return tuple(lines[0].split(",")), rows


def test_emit_csv_round_trip_and_twin(tmp_path):
    result = _toy_result(rows=((0.1, 1.0 / 3.0), (0.2, 2.0 / 7.0)))
    path = tmp_path / "nested" / "table.csv"
    emit_csv(result, path)
    columns, rows = _read_csv(path)
    assert columns == result.columns
    assert rows == result.rows  # bit-exact through 17 significant digits

    first = path.read_bytes()
    emit_csv(result, path)
    assert path.read_bytes() == first  # rerun is byte-identical

    twin = path.with_suffix(".dat")
    text = twin.read_text().splitlines()
    assert text[0] == "# lambda value"
    assert len(text) == 3
    assert [float(tok) for tok in text[1].split()] == list(result.rows[0])


def test_emit_csv_refuses_a_path_that_is_its_own_twin(tmp_path):
    with pytest.raises(ValueError, match=r"would be overwritten by its \.dat twin"):
        emit_csv(_toy_result(), tmp_path / "nested" / "table.dat")
    assert not any(tmp_path.iterdir())


def test_emit_csv_empty_sweep_writes_header_only(tmp_path):
    result = _toy_result(rows=())
    path = tmp_path / "empty.csv"
    emit_csv(result, path)
    assert path.read_text() == "lambda,value\n"
    columns, rows = _read_csv(path)
    assert columns == ("lambda", "value") and rows == ()
