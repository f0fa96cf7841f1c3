"""Tests for the INI experiment-configuration loader."""

import math

import numpy as np
import pytest

from oseenlab.config import log_spaced, parse_config
from oseenlab.harness import ExperimentConfig, default_config


# ---------------------------------------------------------------------------
# log_spaced
# ---------------------------------------------------------------------------


def test_log_spaced_endpoints_exact():
    lo, hi = 0.3123456789, 27.987654321
    grid = log_spaced(lo, hi, 9)
    assert len(grid) == 9
    assert grid[0] == lo
    assert grid[-1] == hi


def test_log_spaced_is_geometric():
    grid = np.asarray(log_spaced(0.5, 8.0, 5))
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    # for (0.5 -> 8.0) over 5 points the common ratio is 2
    assert ratios[0] == pytest.approx(2.0, rel=1e-12)


def test_log_spaced_two_points():
    assert log_spaced(1.0, 4.0, 2) == (1.0, 4.0)


def test_log_spaced_rejects_short_sweep():
    with pytest.raises(ValueError, match="a sweep needs at least 2 points"):
        log_spaced(1.0, 2.0, 1)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, 1.0)])
def test_log_spaced_rejects_bad_interval(lo, hi):
    with pytest.raises(ValueError, match="need 0 < lambda_min < lambda_max"):
        log_spaced(lo, hi, 3)


# ---------------------------------------------------------------------------
# parse_config: happy paths
# ---------------------------------------------------------------------------


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


FULL_INI = """
[experiment]
name = mms
dim = 3
points = 16
half_period = 2.0
q = 4
r = 2
lambda_grid = 0.5, 1.5
period = 1.25
time_modes = 2
seed = 3
samples = 5
rho = 0.01
gamma = 1.5
tol = 1e-9
mode_cap = 2
forcing_shell = 1.0, 1.8
drift_mode_cap = 1
"""


def test_parse_full_config(tmp_path):
    cfg = parse_config(_write(tmp_path, FULL_INI))
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.experiment == "mms"
    assert cfg.grid.dim == 3
    assert cfg.grid.points_per_axis == 16
    assert cfg.grid.half_period == 2.0
    assert cfg.q == 4.0
    assert cfg.r == 2.0
    assert cfg.lambda_grid == (0.5, 1.5)
    assert cfg.period == 1.25
    assert cfg.time_modes == 2
    assert cfg.seed == 3
    assert cfg.sample_count == 5
    assert cfg.rho == 0.01
    assert cfg.gamma == 1.5
    assert cfg.tol == 1e-9
    assert cfg.mode_cap == 2
    assert cfg.forcing_shell == (1.0, 1.8)
    assert cfg.drift_mode_cap == 1


def test_parse_minimal_config_defaults(tmp_path):
    cfg = parse_config(
        _write(tmp_path, "[experiment]\nname = lifting-check\nlambda_grid = 1.0\n")
    )
    assert cfg.experiment == "lifting-check"
    assert cfg.grid.dim == 3
    assert cfg.grid.points_per_axis == 32
    assert cfg.grid.half_period == math.pi
    assert cfg.lambda_grid == (1.0,)
    assert cfg.q == 2.0
    assert cfg.r == 2.0
    assert cfg.period == 2.0 * math.pi
    assert cfg.time_modes == 1
    assert cfg.seed == 0
    assert cfg.sample_count == 100
    assert cfg.rho == 0.05
    assert cfg.gamma is None
    assert cfg.tol == 1e-10
    assert cfg.mode_cap is None
    assert cfg.forcing_shell is None
    assert cfg.drift_mode_cap is None


def test_explicit_lambda_grid_wins_over_range(tmp_path):
    cfg = parse_config(
        _write(
            tmp_path,
            "[experiment]\nname = lifting-check\nlambda_grid = 0.25, 0.5, 4.0\n"
            "lambda_min = 1.0\nlambda_max = 2.0\nlambda_points = 11\n",
        )
    )
    assert cfg.lambda_grid == (0.25, 0.5, 4.0)


def test_lambda_range_uses_log_spacing(tmp_path):
    cfg = parse_config(
        _write(
            tmp_path,
            "[experiment]\nname = lifting-check\n"
            "lambda_min = 0.5\nlambda_max = 8.0\nlambda_points = 5\n",
        )
    )
    assert cfg.lambda_grid == log_spaced(0.5, 8.0, 5)
    assert cfg.lambda_grid[0] == 0.5
    assert cfg.lambda_grid[-1] == 8.0


def test_lambda_points_defaults_to_seven(tmp_path):
    cfg = parse_config(
        _write(
            tmp_path,
            "[experiment]\nname = lifting-check\nlambda_min = 0.5\nlambda_max = 8.0\n",
        )
    )
    assert len(cfg.lambda_grid) == 7


def test_accepts_string_path(tmp_path):
    path = _write(tmp_path, "[experiment]\nname = lifting-check\nlambda_grid = 1.0\n")
    cfg = parse_config(str(path))
    assert cfg.experiment == "lifting-check"


# ---------------------------------------------------------------------------
# parse_config: failure modes
# ---------------------------------------------------------------------------


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="config file not found"):
        parse_config(tmp_path / "nope.ini")


def test_missing_experiment_section(tmp_path):
    with pytest.raises(ValueError, match="needs an .experiment. section"):
        parse_config(_write(tmp_path, "[other]\nname = mms\n"))


def test_empty_file_reports_missing_section(tmp_path):
    with pytest.raises(ValueError, match="needs an .experiment. section"):
        parse_config(_write(tmp_path, ""))


def test_unknown_keys_listed_sorted(tmp_path):
    with pytest.raises(ValueError, match="unknown config keys: banana, zebra"):
        parse_config(
            _write(
                tmp_path,
                "[experiment]\nname = mms\nlambda_grid = 1.0\n"
                "zebra = 1\nbanana = 2\n",
            )
        )


def test_missing_name_key(tmp_path):
    with pytest.raises(ValueError, match="needs a 'name' key"):
        parse_config(_write(tmp_path, "[experiment]\nlambda_grid = 1.0\n"))


def test_missing_lambda_specification(tmp_path):
    # Without drift keys the default single drift stands, and a sweep refuses
    # it; the box is wide enough that the wake floor (4 / half_period) does not.
    with pytest.raises(
        ValueError, match="^scaling-steady needs at least 5 sweep points, got 1$"
    ):
        parse_config(
            _write(tmp_path, "[experiment]\nname = scaling-steady\nhalf_period = 8\n")
        )
    # A log-spaced sweep still needs both ends.
    with pytest.raises(
        ValueError, match="set either lambda_grid or lambda_min/lambda_max"
    ):
        parse_config(_write(tmp_path, "[experiment]\nname = mms\nlambda_min = 1\n"))


def test_a_picard_ini_needs_no_drift_keys(tmp_path):
    # The fixed-point runs schedule their own drift.
    ini = "[experiment]\nname = picard-steady\nq = 4\nr = 2\ngamma = 1.1\n"
    cfg = parse_config(_write(tmp_path, ini))
    assert cfg == default_config("picard-steady")


def test_mode_cap_beside_a_shell_shapes_only_the_other_draws(tmp_path):
    ini = (
        "[experiment]\nname = scaling-tp\nlambda_min = 1.5\nlambda_max = 15\n"
        "forcing_shell = 7, 9\n"
    )
    cfg = parse_config(_write(tmp_path, ini + "mode_cap = 2\n"))
    assert np.abs(cfg.draw_modes).max() == 2
    assert np.abs(cfg.forcing_modes).max() == 9
    radii = np.linalg.norm(cfg.forcing_modes, axis=1)
    assert radii.min() >= 7.0 and radii.max() <= 9.0
    # The shell sets the forcing's cap, but a cap the grid cannot hold still
    # fails when the config is built.
    with pytest.raises(ValueError, match="^mode cap 99 exceeds the grid's dealias"):
        parse_config(_write(tmp_path, ini + "mode_cap = 99\n"))


def test_forcing_shell_needs_two_radii(tmp_path):
    with pytest.raises(ValueError, match="forcing_shell needs two comma-separated"):
        parse_config(
            _write(
                tmp_path,
                "[experiment]\nname = mms\nlambda_grid = 1.0\n"
                "forcing_shell = 1.0, 2.0, 3.0\n",
            )
        )


def test_invalid_experiment_name_rejected(tmp_path):
    with pytest.raises(ValueError, match="experiment must be one of"):
        parse_config(
            _write(tmp_path, "[experiment]\nname = bogus\nlambda_grid = 1.0\n")
        )


def test_lambda_above_ceiling_rejected(tmp_path):
    with pytest.raises(ValueError, match="lambda_grid must lie in"):
        parse_config(
            _write(
                tmp_path,
                "[experiment]\nname = mms\nlambda_grid = 1.0, 32.0\n",
            )
        )


def test_value_that_does_not_convert_names_its_key(tmp_path):
    with pytest.raises(ValueError, match="mode_cap needs an integer, got ''"):
        parse_config(
            _write(
                tmp_path, "[experiment]\nname = mms\nlambda_grid = 1.0\nmode_cap =\n"
            )
        )


def test_empty_forcing_shell_means_none(tmp_path):
    cfg = parse_config(
        _write(
            tmp_path,
            "[experiment]\nname = lifting-check\nlambda_grid = 1.0\nforcing_shell =\n",
        )
    )
    assert cfg.forcing_shell is None
