"""Exponent tables, admissibility windows, and the radius schedule."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from oseenlab.exponents import (
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
from oseenlab.picard import (
    PicardConfig,
    RadiusFloorError,
    radius_schedule,
    smallness_terms,
)


# --- companion exponent -------------------------------------------------


def test_s_exponent_values():
    assert s_exponent(3, 2.0) == 4.0
    assert s_exponent(2, 1.5) == 3.0
    assert abs(s_exponent(4, 2.0) - 10.0 / 3.0) <= 1e-15


def test_s_exponent_domain():
    with pytest.raises(ValueError, match=r"r must lie in \(1, n\+1\)"):
        s_exponent(3, 4.0)
    with pytest.raises(ValueError, match=r"r must lie in \(1, n\+1\)"):
        s_exponent(3, 1.0)
    with pytest.raises(ValueError, match="integer >= 2"):
        s_exponent(1, 1.5)


# --- weight table -------------------------------------------------------


@pytest.mark.parametrize(
    "n, r, expected",
    [
        (3, 1.4, (2, 0)),
        (3, 1.5, (2, 0)),  # closed right end of the first branch
        (3, 1.6, (0, 0)),
        (3, 2.0, (0, 0)),
        (3, 2.9, (0, 0)),
        (3, 3.0, (1, 0)),  # closed left end of the last branch
        (3, 3.9, (1, 0)),
        (4, 4.0 / 3.0, (2, 0)),
        (4, 2.0, (0, 0)),
        (4, 4.0, (1, 0)),
        (2, 1.7, (2, 0)),
        # n = r = 2: the first and last branches both contain r = 2 because
        # the middle one is empty; the first listed case wins, and the
        # planar correction switches on.
        (2, 2.0, (2, 1)),
        (2, 2.5, (1, 0)),
    ],
)
def test_weight_table_branches(n, r, expected):
    assert exponents_Mdelta(n, r) == expected


def test_weight_table_domain():
    with pytest.raises(ValueError, match=r"r must lie in \(\(n\+1\)/n, n\+1\)"):
        exponents_Mdelta(3, 4.0 / 3.0)  # open lower end
    with pytest.raises(ValueError, match=r"r must lie in"):
        exponents_Mdelta(3, 4.0)  # open upper end
    with pytest.raises(ValueError, match="integer >= 2"):
        exponents_Mdelta(0, 1.5)


# --- interpolation exponent ----------------------------------------------


def test_theta_hand_values():
    # s(3, 2) = 4 = q makes the interpolation weight saturate at one.
    assert theta_exponent(3, 4.0, 2.0) == 1.0
    # s(3, 2) = 4, q = 8: theta = 8*4 / (3*4 + 8*4) = 8/11.
    assert abs(theta_exponent(3, 8.0, 2.0) - 8.0 / 11.0) <= 1e-14


def test_theta_two_forms_agree_on_random_admissible_pairs():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 6))
        r = float(rng.uniform(1.0 + 1e-6, n + 1 - 1e-6))
        s = (n + 1) * r / (n + 1 - r)
        q = float(s * rng.uniform(1.0, 4.0))
        if q <= 1.0:
            continue
        theta = theta_exponent(n, q, r)
        alt = (n + 1) * q * r / (n * (n + 1) * (q - r) + q * r)
        assert abs(theta - alt) <= 1e-14 * max(1.0, abs(alt))
        assert 0.0 <= theta <= 1.0
        checked += 1


def test_theta_decreases_in_q():
    qs = np.linspace(4.0, 40.0, 30)
    thetas = [theta_exponent(3, float(q), 2.0) for q in qs]
    assert all(a > b for a, b in zip(thetas, thetas[1:]))
    # limit q -> infinity is s/(n+s) = 4/7
    assert thetas[-1] > 4.0 / 7.0


def test_theta_domain():
    with pytest.raises(ValueError, match="theta undefined"):
        theta_exponent(3, 3.0, 2.0)  # s = 4 > q
    with pytest.raises(ValueError, match="q must exceed 1"):
        theta_exponent(3, 1.0, 1.2)


# --- admissibility windows ----------------------------------------------


def test_linear_window_accepts_the_reference_pair():
    ok, violated = admissibility(3, 4.0, 2.0, PROBLEM_LINEAR)
    assert ok and violated == []
    # boundary 1/q = 1/r - 1/(n+1) is closed
    ok, _ = admissibility(3, 4.0, 2.0, PROBLEM_LINEAR)
    assert ok


def test_linear_window_violations_are_labelled():
    _, violated = admissibility(3, 4.0, 1.2, PROBLEM_LINEAR)
    assert "(n+1)/n < r" in violated
    _, violated = admissibility(3, 4.0, 4.0, PROBLEM_LINEAR)
    assert "r < n+1" in violated
    _, violated = admissibility(3, 3.0, 2.0, PROBLEM_LINEAR)
    assert violated == ["1/q <= 1/r - 1/(n+1)"]
    _, violated = admissibility(1, 4.0, 1.4, PROBLEM_LINEAR)
    assert "n >= 2" in violated


def test_steady_window_reference_and_single_violations():
    ok, violated = admissibility(3, 4.0, 2.0, PROBLEM_STEADY)
    assert ok and violated == []
    _, violated = admissibility(3, 1.2, 2.0, PROBLEM_STEADY)
    assert violated == ["1/(3q) + 1/(n+1) <= 1/r"]
    _, violated = admissibility(3, 4.0, 2.1, PROBLEM_STEADY)
    assert violated == ["2/(n+1) <= 1/r"]
    _, violated = admissibility(3, 4.0, 1.4, PROBLEM_STEADY)
    assert violated == ["1/r < (n-1)/n"]
    _, violated = admissibility(3, 1.01, 1.6, PROBLEM_STEADY)
    assert violated == ["2/q - 4/n <= 1/r"]
    _, violated = admissibility(6, 1.5, 2.0, PROBLEM_STEADY)
    assert "q >= n/3" in violated
    _, violated = admissibility(2, 4.0, 2.0, PROBLEM_STEADY)
    assert violated == ["n >= 3"]


def test_steady_r_ceiling_label_depends_on_dimension():
    _, violated = admissibility(5, 4.0, 1.15, PROBLEM_STEADY)
    assert "1/r < n/(n+1)" in violated
    _, violated = admissibility(4, 4.0, 1.25, PROBLEM_STEADY)
    assert "1/r < (n-1)/n" in violated


def test_timeperiodic_window_interior_and_endpoints():
    ok, violated = admissibility(3, 3.0, 1.6, PROBLEM_TP)
    assert ok and violated == []
    # closed upper endpoint q = 4 with the forced companion r = 2
    ok, violated = admissibility(3, 4.0, 2.0, PROBLEM_TP)
    assert ok and violated == []
    # open lower endpoint q = 12/5: inadmissible for every r
    _, violated = admissibility(3, 2.4, 1.5000000000349999, PROBLEM_TP)
    assert "n(n+1)/(n^2-n-1) < q" in violated
    # ... but any q above it admits a companion r
    ok, violated = admissibility(3, 2.4000000001, 1.5000000000349999, PROBLEM_TP)
    assert ok and violated == []
    # beyond the closed upper endpoint nothing works
    _, violated = admissibility(3, 4.0 + 1e-9, 2.0, PROBLEM_TP)
    assert "q <= n+1" in violated


def test_timeperiodic_window_no_companion_r_outside():
    r_grid = np.linspace(1.01, 3.99, 4000)
    assert not any(
        admissibility(3, 2.4, float(r), PROBLEM_TP)[0] for r in r_grid
    )
    assert not any(
        admissibility(3, 4.2, float(r), PROBLEM_TP)[0] for r in r_grid
    )
    assert any(admissibility(3, 3.2, float(r), PROBLEM_TP)[0] for r in r_grid)


def test_timeperiodic_violation_labels():
    _, violated = admissibility(3, 3.0, 2.5, PROBLEM_TP)
    assert "1/q + 1/(n+1) <= 1/r" in violated
    _, violated = admissibility(3, 3.0, 1.2, PROBLEM_TP)
    assert "1/r < (n-1)/n" in violated
    _, violated = admissibility(3, 3.0, 1.45, PROBLEM_TP)
    assert "1/r <= 2/q" in violated


def test_admissibility_rejects_unknown_problem():
    with pytest.raises(ValueError, match="problem must be one of"):
        admissibility(3, 4.0, 2.0, "weak")


# --- schedule interval ---------------------------------------------------


def test_gamma_interval_values():
    assert gamma_interval(3, 0, 1.0, 0.5, 1.0) == (1.0, 4.0)
    lower, upper = gamma_interval(3, 1, 1.0, 0.5, 1.0)
    assert abs(lower - 4.0 / 3.0) <= 1e-15
    assert abs(upper - 2.0) <= 1e-15
    # eta above theta and zeta sets the upper end on its own
    lower, upper = gamma_interval(3, 0, 1.0, 0.8, 1.5)
    assert lower == 1.0
    assert abs(upper - 8.0 / 3.0) <= 1e-14
    assert gamma_interval(3, 0, 0.0, 0.0, 0.0) == (1.0, math.inf)


def test_gamma_interval_errors():
    with pytest.raises(ValueError, match=r"M must lie in \[0, n\+1\)"):
        gamma_interval(3, 4, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="must be nonnegative"):
        gamma_interval(3, 0, -0.1, 0.5, 1.0)
    with pytest.raises(ValueError, match="empty gamma interval"):
        gamma_interval(3, 2, 2.0, 0.0, 0.0)


def test_profile_build_reference_configuration():
    profile = ExponentProfile(3, 4.0, 2.0)
    assert profile.m_exponent == 0
    assert profile.theta == 1.0
    assert profile.eta == ETA_FALLBACK == 2.0
    assert profile.zeta == ZETA_FALLBACK
    lower, upper = profile.gamma_range
    assert lower == 1.0
    assert abs(upper - 2.0) <= 1e-12
    assert abs(profile.gamma_midpoint() - 0.5 * (lower + upper)) <= 1e-15


def test_profile_stores_only_n_q_r_and_derives_the_rest():
    profile = ExponentProfile(6, 4, 1.2)
    assert [f.name for f in dataclasses.fields(profile)] == ["n", "q", "r"]
    assert type(profile.q) is float and profile.q == 4.0
    assert profile.m_exponent == 2
    assert profile.theta == theta_exponent(6, 4.0, 1.2)
    assert profile.gamma_range == gamma_interval(
        6, 2, profile.theta, ZETA_FALLBACK, ETA_FALLBACK
    )
    assert profile == ExponentProfile(6, 4.0, 1.2)
    # An inadmissible triple fails when the profile is built, not when read.
    with pytest.raises(ValueError, match="theta undefined"):
        ExponentProfile(3, 2.0, 2.0)


def test_dimension_accepts_any_integer_type_but_bool():
    profile = ExponentProfile(np.int64(3), 4.0, 2.0)
    assert profile == ExponentProfile(3, 4.0, 2.0)
    assert type(profile.n) is int
    assert s_exponent(np.int32(3), 2.0) == s_exponent(3, 2.0)
    for bad in (3.0, True, np.float64(3.0), 1):
        with pytest.raises(ValueError, match="must be an integer >= 2"):
            ExponentProfile(bad, 4.0, 2.0)


# --- radius schedule ------------------------------------------------------


def _profile():
    return ExponentProfile(3, 4.0, 2.0)


def test_schedule_exponents_exceed_one_inside_the_interval():
    profile = _profile()
    gamma = 1.5
    np1 = profile.n + 1
    exps = (
        gamma - gamma * profile.m_exponent / np1,
        2.0 - gamma * profile.theta / np1,
        2.0 - gamma * profile.zeta / np1,
        2.0 - gamma * (profile.m_exponent + profile.eta) / np1,
    )
    assert min(exps) > 1.0
    first, second = smallness_terms(profile, 0.01, gamma, 1.0)
    assert first > 0 and second > 0


def test_smallness_terms_vanish_superlinearly():
    profile = _profile()
    gamma = 1.5
    ratios = []
    for rho in (1e-2, 1e-3, 1e-4):
        first, second = smallness_terms(profile, rho, gamma, 1.0)
        ratios.append(first / rho)
        assert second < 1.0 or rho == 1e-2
    assert ratios[0] > ratios[1] > ratios[2]


def test_smallness_terms_carry_the_m_terms_in_six_dimensions():
    # n = 6, r = 1.2 <= n/(n-1) gives M = 2, and build() accepts the steady
    # profile: the M terms are live maths, only unreachable on a 2-D or 3-D
    # grid.  theta = (n+1) q r / (n (n+1) (q - r) + q r) = 14/51.
    profile = ExponentProfile(6, 4.0, 1.2)
    assert profile.m_exponent == 2
    assert profile.gamma_range == pytest.approx((1.4, 1.75), rel=1e-14)
    theta = 7 * 4.0 * 1.2 / (6 * 7 * (4.0 - 1.2) + 4.0 * 1.2)
    zeta, eta = 1.0 - 1e-6, 2.0
    rho, gamma, constant = 0.05, 1.575, 1.3
    exps = (
        gamma - 2 * gamma / 7,
        2.0 - gamma * theta / 7,
        2.0 - gamma * zeta / 7,
        2.0 - gamma * (2 + eta) / 7,
    )
    first, second = smallness_terms(profile, rho, gamma, constant)
    assert first == pytest.approx(constant * sum(rho**e for e in exps), rel=1e-14)
    assert second == pytest.approx(
        constant * sum(rho ** (e - 1.0) for e in exps[1:]), rel=1e-14
    )
    assert radius_schedule(0.05, 1.575, profile, 1.0, 1e-10).rho == 7.8125e-4


def test_contraction_condition_can_decide_the_radius():
    # Near the top of gamma's interval (1, 2) the rho^(2 - gamma/2) term
    # dominates both sums.  With constant 0.45 the self-map holds from the
    # start, and only the contraction condition forces the two halvings.
    profile = _profile()
    for rho in (0.05, 0.025):
        first, second = smallness_terms(profile, rho, 1.9, 0.45)
        assert first <= rho and second > 0.5
    assert radius_schedule(0.05, 1.9, profile, 0.45, 1e-10).rho == 0.0125


def test_smallness_terms_reject_gamma_outside_interval():
    profile = _profile()
    with pytest.raises(ValueError, match="must all exceed 1"):
        smallness_terms(profile, 0.01, 2.5, 1.0)


def test_radius_schedule_halves_until_both_inequalities_hold():
    profile = _profile()
    gamma = 1.5
    constant = 5.0
    cfg = radius_schedule(0.4, gamma, profile, constant, 1e-10)
    # re-derive the halving loop
    rho = 0.4
    while True:
        first, second = smallness_terms(profile, rho, gamma, constant)
        if first <= rho and second <= 0.5:
            break
        rho *= 0.5
    assert cfg.rho == rho
    assert cfg.lam == cfg.epsilon == rho**gamma


def test_halving_the_radius_scales_the_drift_geometrically():
    profile = _profile()
    gamma = 1.5
    cfg_a = PicardConfig.from_schedule(profile, 0.05, gamma, 1e-10)
    cfg_b = PicardConfig.from_schedule(profile, 0.025, gamma, 1e-10)
    expected = cfg_a.lam * 2.0 ** (-gamma)
    assert abs(cfg_b.lam - expected) <= 1e-12 * expected


def test_radius_schedule_errors():
    profile = _profile()
    with pytest.raises(ValueError, match="outside the open interval"):
        radius_schedule(0.1, 3.0, profile, 1.0, 1e-10)
    with pytest.raises(ValueError, match="constant must be positive"):
        radius_schedule(0.1, 1.5, profile, 0.0, 1e-10)
    with pytest.raises(ValueError, match="rho must be positive"):
        radius_schedule(0.0, 1.5, profile, 1.0, 1e-10)
    with pytest.raises(RadiusFloorError, match="no radius above the floor"):
        radius_schedule(0.1, 1.5, profile, 1e12, 1e-10)
    assert issubclass(RadiusFloorError, ValueError)


@pytest.mark.parametrize("rho", [math.inf, math.nan])
def test_radius_schedule_rejects_a_non_finite_radius(rho):
    # Halving infinity never reaches the floor, so this call used to hang.
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        radius_schedule(rho, 1.1, ExponentProfile(3, 4.0, 2.0), 1.0, 1e-10)


def test_picard_config_validation():
    profile = _profile()
    with pytest.raises(ValueError, match="gamma must exceed 1"):
        PicardConfig.from_schedule(profile, 0.1, 1.0, 1e-10)
    with pytest.raises(ValueError, match="rho must be positive"):
        PicardConfig(profile, 0.0, 0.01, 0.01, 1e-10)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        PicardConfig(profile, 0.1, 0.01, 0.0, 1e-10)


@pytest.mark.parametrize(
    "field, message",
    [
        ("rho", "rho must be positive and finite"),
        ("lam", "lam must be nonnegative and finite"),
        ("epsilon", "epsilon must be positive and finite"),
        ("tol", "tol must be positive and finite"),
    ],
)
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_picard_config_rejects_a_non_finite_value(field, message, value):
    # At tol = inf the driver would stop after one update, and the checks
    # whose bounds scale with tol would pass vacuously.
    settings = dict(rho=0.1, lam=0.01, epsilon=0.01, tol=1e-10)
    with pytest.raises(ValueError, match=f"^{message}, got {value}$"):
        PicardConfig(_profile(), **{**settings, field: value})
