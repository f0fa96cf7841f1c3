"""Experiment configs, seeded ensembles, runners, and result serialization."""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict

import numpy as np
import pytest

from oseenlab import harness
from oseenlab.config import log_spaced
from oseenlab.exponents import ExponentProfile, s_exponent
from oseenlab.fields import (
    GridSpec,
    _fftn,
    derivative,
    gradient,
)
from oseenlab.harness import (
    EXPERIMENTS,
    RUNNERS,
    CheckRecord,
    ExperimentConfig,
    ScalingResult,
    WakeConstraintError,
    emit_csv,
    exponent_report,
    fit_smallness_constant,
    leave_one_out_shift,
    loglog_slope,
    oseen_apply,
    random_divergence_free,
    random_scalar_field,
    random_timeperiodic_forcing,
    run_bilinear_ensemble,
    run_mms,
    run_scaling_steady,
)
from oseenlab.norms import lq_norm, negative_norm_surrogate, sobolev_seminorm
from oseenlab.oseen import OseenParams, solve_steady


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


def test_check_record_describes_the_verdict():
    passing = CheckRecord("demo", 1.0, 2.0, "le", True)
    failing = CheckRecord("demo", 3.0, 2.0, "lt", False)
    assert passing.describe() == "PASS demo: 1 <= 2"
    assert failing.describe() == "FAIL demo: 3 < 2"


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
    assert np.array_equal(result.column("value"), [2.0, 4.0])
    assert result.all_passed  # vacuous without checks
    failed = _toy_result(checks=(CheckRecord("x", 3.0, 2.0, "le", False),))
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
    with pytest.raises(ValueError, match="set together"):
        ExperimentConfig("mms", grid, (1.0,), inner_radius=1.0)
    with pytest.raises(ValueError, match="forcing_shell must satisfy"):
        ExperimentConfig("mms", grid, (1.0,), forcing_shell=(3.0, 2.0))
    with pytest.raises(ValueError, match="time_modes must be >= 1"):
        ExperimentConfig("mms", grid, (1.0,), time_modes=0)


def test_wake_floor_guards_the_solving_sweeps():
    grid = GridSpec(3, np.pi, 16)
    floor = 4.0 / np.pi
    with pytest.raises(WakeConstraintError, match="below the wake floor"):
        ExperimentConfig("scaling-steady", grid, (0.5, 13.0))
    cfg = ExperimentConfig("scaling-steady", grid, (floor, 13.0))
    assert cfg.resolved_c_wake == 4.0
    assert cfg.wake_floor == pytest.approx(floor)
    # non-solving experiments default to no floor
    low = ExperimentConfig("mms", grid, (0.001, 1.0))
    assert low.resolved_c_wake == 0.0
    # an explicit c_wake overrides the default
    with pytest.raises(WakeConstraintError):
        ExperimentConfig("mms", grid, (0.5, 13.0), c_wake=8.0)


def test_cutoff_spec_uses_explicit_radii_when_given():
    grid = GridSpec(3, np.pi, 16)
    cfg = ExperimentConfig("mms", grid, (1.0,), inner_radius=1.5, outer_radius=4.0)
    spec = cfg.cutoff_spec()
    assert spec.inner_radius == 1.5 and spec.outer_radius == 4.0
    default = ExperimentConfig("mms", grid, (1.0,)).cutoff_spec()
    half_width = np.pi * grid.half_period
    assert default.inner_radius == pytest.approx(0.2 * half_width)
    assert default.outer_radius == pytest.approx(0.6 * half_width)


def test_sweep_requirements_are_enforced():
    grid = GridSpec(3, np.pi, 16)
    short = ExperimentConfig(
        "scaling-steady", grid, tuple(log_spaced(4 / np.pi, 40 / np.pi, 3))
    )
    with pytest.raises(ValueError, match="at least 5 sweep points"):
        run_scaling_steady(short)
    narrow = ExperimentConfig(
        "scaling-steady", grid, tuple(log_spaced(4 / np.pi, 8 / np.pi, 5))
    )
    with pytest.raises(ValueError, match="spanning >= 1"):
        run_scaling_steady(narrow)
    mismatched = ExperimentConfig("mms", grid, (0.5, 2.0))
    with pytest.raises(ValueError, match="runner expects"):
        run_scaling_steady(mismatched)


# --- seeded ensembles ----------------------------------------------------------


def test_random_fields_are_deterministic_and_divergence_free():
    grid = GridSpec(3, np.pi, 16)
    a = random_divergence_free(grid, (5,), mode_cap=2)
    b = random_divergence_free(grid, (5,), mode_cap=2)
    assert np.array_equal(a.components, b.components)
    assert abs(lq_norm(a, 2.0) - 1.0) <= 1e-12
    from oseenlab.fields import divergence

    assert lq_norm(divergence(a), 2.0) <= 1e-12


def test_random_fields_are_the_same_continuum_object_across_grids():
    coarse = random_divergence_free(GridSpec(3, np.pi, 16), (5,), mode_cap=2)
    fine = random_divergence_free(GridSpec(3, np.pi, 32), (5,), mode_cap=2)
    subsampled = fine.components[:, ::2, ::2, ::2]
    assert np.max(np.abs(subsampled - coarse.components)) <= 1e-12


def test_forcing_shell_and_drift_cap_shape_the_spectrum():
    grid = GridSpec(3, np.pi, 32)
    field = random_divergence_free(grid, (11,), shell=(7.0, 9.0), drift_mode_cap=1)
    coeffs = np.abs(_fftn(field.components, grid.dim))
    m = np.fft.fftfreq(32, d=1.0 / 32)
    m1, m2, m3 = np.meshgrid(m, m, m, indexing="ij")
    radius = np.sqrt(m1**2 + m2**2 + m3**2)
    live = coeffs.max(axis=0) > 1e-14 * coeffs.max()
    assert radius[live].min() >= 7.0 - 1e-9
    assert radius[live].max() <= 9.0 + 1e-9
    assert np.abs(m1)[live].max() <= 1

    capped = random_divergence_free(grid, (12,), mode_cap=2)
    spectrum = np.abs(_fftn(capped.components, grid.dim)).max(axis=0)
    live = spectrum > 1e-14 * spectrum.max()
    infinity_norm = np.maximum(np.abs(m1), np.maximum(np.abs(m2), np.abs(m3)))
    assert infinity_norm[live].max() <= 2


def test_oseen_apply_matches_explicit_derivatives():
    grid = GridSpec(3, np.pi, 16)
    u = random_divergence_free(grid, (3,), mode_cap=2)
    lam = 0.7
    out = oseen_apply(u, lam)
    expected = lam * derivative(u, 1).components
    for axis in range(1, grid.dim + 1):
        expected = expected - derivative(derivative(u, axis), axis).components
    assert np.max(np.abs(out.components - expected)) <= 1e-12 * np.max(
        np.abs(expected)
    )


# --- runners -------------------------------------------------------------------


def test_manufactured_solutions_recover_through_every_path():
    cfg = ExperimentConfig(
        "mms",
        GridSpec(3, np.pi, 16),
        (0.5, 2.0),
        q=4.0,
        r=2.0,
        time_modes=2,
        mode_cap=2,
    )
    result = run_mms(cfg)
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
    result = run_scaling_steady(cfg)
    assert result.all_passed

    grid = cfg.grid
    forcing = random_divergence_free(
        grid,
        [cfg.seed, 11],
        mode_cap=cfg.mode_cap,
        shell=cfg.forcing_shell,
        drift_mode_cap=cfg.drift_mode_cap,
    ) + gradient(random_scalar_field(grid, [cfg.seed, 12], mode_cap=cfg.mode_cap))
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


def test_steady_sweep_slopes_and_constants_match_the_table():
    result = run_scaling_steady(_steady_config())
    lams = result.column("lambda")
    for name in ("ratio_line1", "ratio_line2", "weighted_lq_s"):
        recomputed = loglog_slope(lams, result.column(name))
        assert result.slopes[name] == pytest.approx(recomputed, rel=1e-13)
    assert result.constants["constant_line1"] == pytest.approx(
        result.column("ratio_line1").max(), rel=1e-15
    )
    assert result.constants["constant_line2"] == pytest.approx(
        result.column("ratio_line2").max(), rel=1e-15
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
    result = run_scaling_steady(cfg)
    assert result.all_passed
    assert result.constants["m_exponent"] == 2.0
    assert result.constants["delta"] == 1.0
    assert any("M != 0" in flag for flag in result.flags)
    # drift-amplified data: the weighted norm line grows instead of decaying
    assert result.slopes["weighted_lq_s"] == pytest.approx(0.6631, abs=1e-3)
    check_names = {check.name for check in result.checks}
    assert "ratio_line1_slope" not in check_names


def test_smallness_constant_is_stable_under_refinement():
    profile = ExponentProfile.build(3, 4.0, 2.0)
    coarse = fit_smallness_constant(GridSpec(3, np.pi, 16), profile, seed=0)
    fine = fit_smallness_constant(GridSpec(3, np.pi, 24), profile, seed=0)
    assert coarse > 0
    assert 0.8 <= coarse / fine <= 1.2
    # memoized: the repeat call returns the identical value
    assert fit_smallness_constant(GridSpec(3, np.pi, 16), profile, seed=0) == coarse


def test_smallness_constant_cache_keys_on_the_whole_grid(monkeypatch):
    monkeypatch.setattr(harness, "_FIT_CACHE", OrderedDict())
    profile = ExponentProfile.build(3, 4.0, 2.0)
    full = GridSpec(3, np.pi, 8, dealias_fraction=1.0)
    fit_smallness_constant(GridSpec(3, np.pi, 8), profile)
    cached_full = fit_smallness_constant(full, profile)
    assert len(harness._FIT_CACHE) == 2
    harness._FIT_CACHE.clear()
    assert fit_smallness_constant(full, profile) == cached_full


def test_smallness_constant_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(harness, "_FIT_CACHE", OrderedDict())
    monkeypatch.setattr(harness, "_FIT_CACHE_SIZE", 2)
    profile = ExponentProfile.build(3, 4.0, 2.0)
    grid = GridSpec(3, np.pi, 8)
    for seed in (0, 1, 2):
        fit_smallness_constant(grid, profile, seed=seed)
    assert [key[2] for key in harness._FIT_CACHE] == [1, 2]


def test_bilinear_constants_are_stable_under_resampling():
    base = dict(
        grid=GridSpec(3, 1.0e7, 16),
        lambda_grid=tuple(log_spaced(10.0, 100.0, 7)),
        q=4.0,
        r=2.0,
        lambda_ceiling=100.0,
        forcing_shell=(1.0, 1.8),
    )
    small = run_bilinear_ensemble(
        ExperimentConfig("bilinear", sample_count=40, **base)
    )
    large = run_bilinear_ensemble(
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


# --- the draw set-up against the loops it replaced ----------------------------


def _ref_mode_list(grid, mode_cap, shell, drift_mode_cap):
    cap = int(math.ceil(shell[1])) if shell is not None else (
        mode_cap if mode_cap is not None else harness._default_mode_cap(grid)
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
    # A cap of N/2: the slots of m and -m' coincide and the later one wins.
    (GridSpec(3, np.pi, 8, dealias_fraction=1.0), dict(mode_cap=4)),
]


def _draws(grid, kwargs):
    return [
        random_scalar_field(grid, [7, 1], mode_cap=kwargs.get("mode_cap")).values,
        random_divergence_free(grid, [7, 2], **kwargs).components,
        random_timeperiodic_forcing(grid, 2.0, 2, [7, 3], **kwargs).modes,
    ]


@pytest.mark.parametrize("grid, kwargs", _DRAW_CASES)
def test_random_draws_are_bitwise_the_loop_reference(monkeypatch, grid, kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_mode_list", _ref_mode_list)
        patch.setattr(harness, "_coefficients_from_draws", _ref_coefficients_from_draws)
        expected = _draws(grid, kwargs)
    for out, ref in zip(_draws(grid, kwargs), expected):
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))


def test_mode_set_is_cached_read_only_and_still_validated():
    grid = GridSpec(3, 1.0e7, 16)
    modes = harness._mode_list(grid, None, (1.0, 1.8), None)
    assert modes is harness._mode_list(grid, None, (1.0, 1.8), None)
    assert modes.dtype == np.int64 and modes.shape == (len(modes), 3)
    assert np.array_equal(modes, _ref_mode_list(grid, None, (1.0, 1.8), None))
    with pytest.raises(ValueError, match="read-only"):
        modes[0, 0] = 0
    listed = random_divergence_free(grid, [3], shell=[1.0, 1.8])
    paired = random_divergence_free(grid, [3], shell=(1.0, 1.8))
    assert np.array_equal(listed.components, paired.components)
    for _ in range(2):
        with pytest.raises(ValueError, match="exceeds the grid's dealias cutoff"):
            random_divergence_free(grid, [3], mode_cap=6)


# --- dispatch and serialization ---------------------------------------------


def test_every_experiment_has_a_runner():
    assert set(RUNNERS) == set(EXPERIMENTS)


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


def test_emit_csv_empty_sweep_writes_header_only(tmp_path):
    result = _toy_result(rows=())
    path = tmp_path / "empty.csv"
    emit_csv(result, path)
    assert path.read_text() == "lambda,value\n"
    columns, rows = _read_csv(path)
    assert columns == ("lambda", "value") and rows == ()
