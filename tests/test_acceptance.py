"""Acceptance suite: eight end-to-end criteria, one PASS/FAIL line each.

Run ``pytest -s tests/test_acceptance.py`` to see the lines as they print.
Every criterion is asserted at its stated tolerance, so the suite is red
whenever a line reads FAIL.
"""

import dataclasses

import numpy as np

from oseenlab.cli import default_config
from oseenlab.exponents import (
    PROBLEM_TP,
    admissibility,
    exponents_Mdelta,
    theta_exponent,
)
from oseenlab.fields import GridSpec, SpatialField, TimePeriodicField
from oseenlab.harness import run_experiment
from oseenlab.oseen import OseenParams, solve_steady, solve_timeperiodic


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number} ({label}): {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def _by_name(result):
    return {check.name: check for check in result.checks}


# ---------------------------------------------------------------------------
# 1. mode-solver oracle equivalence
# ---------------------------------------------------------------------------


def _mirror_wavenumbers(grid):
    """Zero-based per-axis wavenumbers with the Nyquist column zeroed."""
    n = grid.points_per_axis
    one = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        one[n // 2] = 0.0
    one = one / grid.half_period
    return np.meshgrid(*([one] * grid.dim), indexing="ij")


def _saddle_gap(grid, f_mode, u_mode, p_mode, lam, omega):
    """Worst coefficient gap between the solver and a dense saddle solve.

    For every retained wavenumber the (dim+1) x (dim+1) system couples the
    velocity symbol block with the pressure-gradient column and the
    divergence row; the solver's output must match its dense solution.
    """
    dim = grid.dim
    axes = tuple(range(-dim, 0))
    xi = _mirror_wavenumbers(grid)
    ksq = sum(x * x for x in xi)
    active = ksq > 0

    f_hat = np.fft.fftn(f_mode, axes=axes)
    u_hat = np.fft.fftn(u_mode, axes=axes)
    p_hat = np.fft.fftn(p_mode, axes=axes)[0]

    count = int(active.sum())
    matrix = np.zeros((count, dim + 1, dim + 1), dtype=np.complex128)
    symbol = ksq[active] + 1j * (lam * xi[0][active] + omega)
    rhs = np.zeros((count, dim + 1), dtype=np.complex128)
    for i in range(dim):
        matrix[:, i, i] = symbol
        matrix[:, i, dim] = 1j * xi[i][active]
        matrix[:, dim, i] = 1j * xi[i][active]
        rhs[:, i] = f_hat[i][active]
    solution = np.linalg.solve(matrix, rhs[..., None])[..., 0]

    scale = max(np.abs(f_hat).max(), 1e-300)
    gap = abs(p_hat[active] - solution[:, dim]).max()
    for i in range(dim):
        gap = max(gap, abs(u_hat[i][active] - solution[:, i]).max())
    return gap / scale, count


def test_criterion_1_mode_solver_oracle():
    worst = 0.0
    total_modes = 0
    period = 0.8
    for dim, lam in ((2, 1.7), (3, 2.9)):
        grid = GridSpec(dim, np.pi, 32)
        params = OseenParams(lam=lam)
        rng = np.random.default_rng(dim)
        shape = (dim,) + grid.shape

        steady_f = SpatialField(grid, rng.standard_normal(shape))
        pair = solve_steady(steady_f, params)
        gap, count = _saddle_gap(
            grid,
            steady_f.components.astype(np.complex128),
            pair.velocity.components.astype(np.complex128),
            pair.pressure.components.astype(np.complex128),
            lam,
            0.0,
        )
        worst = max(worst, gap)
        total_modes += count

        modes = [rng.standard_normal(shape).astype(np.complex128)]
        for _ in range(2):
            modes.append(
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
        forcing = TimePeriodicField.from_modes(grid, period, modes)
        velocity, pressure = solve_timeperiodic(forcing, params)
        for k in range(3):
            omega = 2.0 * np.pi * k / period
            gap, count = _saddle_gap(
                grid,
                forcing.mode(k),
                velocity.mode(k),
                pressure.mode(k),
                lam,
                omega,
            )
            worst = max(worst, gap)
            total_modes += count

    ok = worst <= 1e-12
    _report(
        1,
        "mode-solver oracle equivalence",
        ok,
        f"worst coefficient gap {worst:.3e} <= 1e-12 "
        f"over {total_modes} retained modes (32^2 and 32^3, steady and "
        "time-periodic)",
    )


# ---------------------------------------------------------------------------
# 2. manufactured solutions
# ---------------------------------------------------------------------------


def test_criterion_2_manufactured_solutions():
    cfg = dataclasses.replace(default_config("mms"), time_modes=3)
    result = run_experiment(cfg)
    checks = _by_name(result)
    linear_names = (
        "steady_velocity_error_max",
        "steady_pressure_error_max",
        "tp_velocity_error_max",
        "tp_pressure_error_max",
    )
    picard_names = ("picard_velocity_error", "picard_pressure_error")
    assert all(checks[name].bound == 1e-11 for name in linear_names)
    assert all(checks[name].bound == 1e-7 for name in picard_names)
    worst_linear = max(checks[name].value for name in linear_names)
    worst_picard = max(checks[name].value for name in picard_names)
    ok = result.all_passed
    _report(
        2,
        "manufactured solutions",
        ok,
        f"linear relative L2 error {worst_linear:.3e} <= 1e-11, "
        f"small-data fixed-point error {worst_picard:.3e} <= 1e-7",
    )


# ---------------------------------------------------------------------------
# 3. steady estimate uniformity in the drift
# ---------------------------------------------------------------------------


def test_criterion_3_steady_estimate_uniformity():
    cfg = default_config("scaling-steady")
    assert cfg.grid.dim == 3 and cfg.q == 4.0 and cfg.r == 2.0
    decades = np.log10(cfg.lambda_grid[-1] / cfg.lambda_grid[0])
    assert decades >= 1.0
    result = run_experiment(cfg)
    checks = _by_name(result)
    assert checks["ratio_line1_slope"].bound == 0.15
    assert checks["ratio_line2_slope"].bound == 0.15
    assert checks["weighted_lq_s_slope"].bound == -0.15
    ok = result.all_passed
    _report(
        3,
        "steady estimate uniformity",
        ok,
        f"ratio slopes {result.slopes['ratio_line1']:+.3f}, "
        f"{result.slopes['ratio_line2']:+.3f} <= +0.15 and weighted-norm "
        f"slope {result.slopes['weighted_lq_s']:+.3f} >= -0.15 over "
        f"{decades:.2f} decades of drift",
    )


# ---------------------------------------------------------------------------
# 4. exponent tables
# ---------------------------------------------------------------------------


def _mirror_m_delta(n, r):
    if r <= n / (n - 1):
        m = 2
    elif r < n:
        m = 0
    else:
        m = 1
    return m, (1 if (n == 2 and r == 2) else 0)


def test_criterion_4_exponent_tables():
    rng = np.random.default_rng(20260818)
    mismatches = 0
    worst_theta = 0.0
    branch_hits = {0: 0, 1: 0, 2: 0}
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        lo = (n + 1) / n
        r = lo + (n + 1 - lo) * rng.uniform(0.001, 0.999)
        pair = exponents_Mdelta(n, r)
        mirror = _mirror_m_delta(n, r)
        if pair != mirror:
            mismatches += 1
        branch_hits[mirror[0]] += 1
        s = (n + 1) * r / (n + 1 - r)
        q = s * 10.0 ** rng.uniform(0.01, 1.5)
        theta = theta_exponent(n, q, r)
        primary = q * s / (n * (q - s) + q * s)
        alternate = (n + 1) * q * r / (n * (n + 1) * (q - r) + q * r)
        worst_theta = max(
            worst_theta, abs(theta - primary), abs(theta - alternate)
        )
    # interval boundaries and the planar corner, exactly
    boundary_ok = (
        exponents_Mdelta(3, 1.5) == (2, 0)
        and exponents_Mdelta(3, 3.0) == (1, 0)
        and exponents_Mdelta(2, 2.0) == (2, 1)
    )
    all_branches = all(count > 0 for count in branch_hits.values())

    # n = 3 time-periodic window: q in (12/5, 4], exact at both endpoints
    scan = list(np.linspace(1.000001, 3.999999, 8001)) + [1.5, 2.0]
    low_closed = any(admissibility(3, 12.0 / 5.0, r, PROBLEM_TP)[0] for r in scan)
    low_open = admissibility(3, 12.0 / 5.0 + 1e-6, 1.500000001, PROBLEM_TP)[0]
    high_closed = admissibility(3, 4.0, 2.0, PROBLEM_TP)[0]
    high_open = any(admissibility(3, 4.0 + 1e-9, r, PROBLEM_TP)[0] for r in scan)
    window_ok = (not low_closed) and low_open and high_closed and (not high_open)

    ok = (
        mismatches == 0
        and worst_theta <= 1e-14
        and boundary_ok
        and all_branches
        and window_ok
    )
    _report(
        4,
        "exponent tables",
        ok,
        f"0 branch mismatches and worst two-form theta gap {worst_theta:.2e} "
        "<= 1e-14 over 10000 random admissible inputs; n=3 time-periodic "
        "window (12/5, 4] exact at both endpoints",
    )


# ---------------------------------------------------------------------------
# 5. obstacle lifting field
# ---------------------------------------------------------------------------


def test_criterion_5_lifting_field():
    cfg = default_config("lifting-check")
    assert cfg.lambda_grid[0] == 1e-3 and cfg.lambda_grid[-1] == 1e-1
    result = run_experiment(cfg)
    checks = _by_name(result)
    assert checks["divergence_l2_max"].bound == 1e-10
    assert checks["boundary_error_max"].bound == 1e-10
    assert checks["load_ratio_variation"].bound == 0.05
    ok = result.all_passed
    _report(
        5,
        "obstacle lifting field",
        ok,
        f"divergence {checks['divergence_l2_max'].value:.3e} <= 1e-10, "
        f"interior boundary error {checks['boundary_error_max'].value:.3e} "
        f"<= 1e-10, load/(lam*(1+lam)) variation "
        f"{checks['load_ratio_variation'].value:.3%} <= 5%",
    )


# ---------------------------------------------------------------------------
# 6. purely oscillatory estimate flatness
# ---------------------------------------------------------------------------


def test_criterion_6_oscillatory_estimate_flatness():
    cfg = default_config("scaling-tp")
    assert cfg.q == 2.0
    result = run_experiment(cfg)
    checks = _by_name(result)
    assert checks["oscillatory_ratio_slope_magnitude"].bound == 0.1
    assert checks["maxreg_plancherel_crosscheck"].bound == 1e-10
    ok = result.all_passed
    _report(
        6,
        "oscillatory estimate flatness",
        ok,
        f"|slope| of maximal-regularity/forcing ratio "
        f"{checks['oscillatory_ratio_slope_magnitude'].value:.3f} <= 0.1 "
        "with Plancherel-exact norms at q=2",
    )


# ---------------------------------------------------------------------------
# 7. fixed-point contraction
# ---------------------------------------------------------------------------


def test_criterion_7_fixed_point_contraction():
    details = []
    ok = True
    for name in ("picard-steady", "picard-tp"):
        result = run_experiment(default_config(name))
        checks = _by_name(result)
        rates = [
            checks[f"contraction_rate_rho_{j}"] for j in range(3)
        ]
        certificates = [checks[f"certificate_rho_{j}"] for j in range(3)]
        independence = checks["initial_iterate_independence"]
        assert all(rec.bound == 0.5 and rec.kind == "lt" for rec in rates)
        ok = ok and result.all_passed
        details.append(
            f"{name}: rate {max(rec.value for rec in rates):.2e} < 1/2, "
            f"certificate within 2*tol, start gap "
            f"{independence.value:.2e} <= {independence.bound:.2e}"
        )
        assert all(rec.passed for rec in certificates)
    _report(7, "fixed-point contraction", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. bilinear estimate ensemble
# ---------------------------------------------------------------------------


def test_criterion_8_bilinear_ensemble():
    base_cfg = default_config("bilinear")
    fine_cfg = dataclasses.replace(
        base_cfg, grid=GridSpec(3, base_cfg.grid.half_period, 24)
    )
    base = run_experiment(base_cfg)
    fine = run_experiment(fine_cfg)
    names = (
        "constant_steady_strong",
        "constant_steady_weak",
        "constant_osc_strong",
        "constant_osc_weak",
        "constant_mixed_steady_osc",
        "constant_mixed_osc_steady",
    )
    drift = max(
        abs(fine.constants[name] / base.constants[name] - 1.0) for name in names
    )
    zeta_worst = max(
        result.constants[key]
        for result in (base, fine)
        for key in ("fitted_zeta_steady_osc", "fitted_zeta_osc_steady")
    )
    eta_gap = max(abs(result.constants["fitted_eta"] - 2.0) for result in (base, fine))
    for result in (base, fine):
        assert _by_name(result)["fitted_eta_near_two"].bound == 0.25
    ok = (
        base.all_passed
        and fine.all_passed
        and drift <= 0.2
        and zeta_worst < 1.0
        and eta_gap <= 0.25
    )
    _report(
        8,
        "bilinear estimate ensemble",
        ok,
        f"six fitted constants shift {drift:.2%} <= 20% under 16^3 -> 24^3 "
        f"refinement, fitted zeta {zeta_worst:.3f} < 1, fitted eta within "
        f"{eta_gap:.3f} <= 0.25 of 2 at r=(n+1)/2",
    )
