"""End-to-end tests for the command-line front end."""

import pytest

from oseenlab import cli
from oseenlab.cli import default_config, main
from oseenlab.fields import set_fft_workers
from oseenlab.harness import EXPERIMENTS


MMS_INI = (
    "[experiment]\n"
    "name = mms\n"
    "points = 16\n"
    "lambda_grid = 0.5, 2.0\n"
    "q = 4\n"
    "r = 2\n"
    "time_modes = 1\n"
    "mode_cap = 2\n"
)


@pytest.fixture
def mms_ini(tmp_path):
    path = tmp_path / "mms.ini"
    path.write_text(MMS_INI)
    return path


# ---------------------------------------------------------------------------
# exponents subcommand
# ---------------------------------------------------------------------------


def test_exponents_default(capsys):
    assert main(["exponents"]) == 0
    out = capsys.readouterr().out
    assert "n = 3" in out
    assert "q = 4.0" in out
    assert "r = 2.0" in out
    assert "s = 4.0" in out
    assert "m_exponent = 0" in out
    assert "delta = 0" in out
    assert "theta = 1.0" in out
    assert "admissible[linear-full] = True" in out
    assert "admissible[steady-nonlinear] = True" in out
    assert "admissible[timeperiodic-nonlinear] = True" in out
    assert "gamma_interval = (1.0, 2.0)" in out


def test_exponents_inadmissible_pair(capsys):
    assert main(["exponents", "--dim", "3", "--q", "3", "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert "theta = None" in out
    assert "theta_reason = theta undefined" in out
    assert "admissible[linear-full] = False" in out
    assert "violated[linear-full]" in out
    assert "admissible[timeperiodic-nonlinear] = False" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--dim", "3", "--r", "5"],
            "r must lie in ((n+1)/n, n+1) = (1.3333333333333333, 4), got 5.0",
        ),
        (["--dim", "1"], "dimension n must be an integer >= 2, got 1"),
    ],
)
def test_exponents_outside_the_window_reported_on_stderr(argv, message, capsys):
    assert main(["exponents", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# experiment subcommands
# ---------------------------------------------------------------------------


def test_mms_config_run_writes_csv(mms_ini, tmp_path, capsys):
    out_path = tmp_path / "mms.csv"
    assert main(["mms", "--config", str(mms_ini), "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {out_path}" in out
    assert "experiment: mms" in out
    assert "rows: 2" in out
    assert "ALL CHECKS PASSED" in out
    assert "PASS steady_velocity_error_max" in out
    assert out_path.exists()
    assert out_path.with_suffix(".dat").exists()


def test_mms_rerun_byte_identical(mms_ini, tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["mms", "--config", str(mms_ini), "--out", str(first)]) == 0
    assert main(["mms", "--config", str(mms_ini), "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert (
        first.with_suffix(".dat").read_bytes()
        == second.with_suffix(".dat").read_bytes()
    )


def test_seed_override_changes_output(mms_ini, tmp_path, capsys):
    base = tmp_path / "base.csv"
    seeded = tmp_path / "seeded.csv"
    assert main(["mms", "--config", str(mms_ini), "--out", str(base)]) == 0
    assert (
        main(["mms", "--config", str(mms_ini), "--out", str(seeded), "--seed", "5"])
        == 0
    )
    capsys.readouterr()
    assert base.read_bytes() != seeded.read_bytes()


def test_lifting_check_default_config(capsys):
    assert main(["lifting-check"]) == 0
    out = capsys.readouterr().out
    assert "experiment: lifting-check" in out
    assert "PASS boundary_error_max" in out
    assert "PASS divergence_l2_max" in out
    assert "ALL CHECKS PASSED" in out


def test_threads_flag_accepted(capsys):
    try:
        assert main(["lifting-check", "--threads", "2"]) == 0
    finally:
        set_fft_workers(1)
    assert "ALL CHECKS PASSED" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", ["0", "-1"])
def test_nonpositive_threads_rejected(count, capsys):
    assert main(["lifting-check", "--threads", count]) == 1
    captured = capsys.readouterr()
    assert "error: fft worker count must be a positive integer" in captured.err
    assert "experiment:" not in captured.out


def test_config_subcommand_mismatch(mms_ini, capsys):
    assert main(["scaling-steady", "--config", str(mms_ini)]) == 1
    err = capsys.readouterr().err
    assert "error: config names experiment 'mms'" in err
    assert "subcommand is 'scaling-steady'" in err


def test_runner_error_reported_on_stderr(tmp_path, capsys):
    ini = tmp_path / "short.ini"
    ini.write_text(
        "[experiment]\n"
        "name = scaling-steady\n"
        "points = 16\n"
        "q = 4\n"
        "r = 2\n"
        "lambda_grid = 2.0, 3.0, 4.0\n"
        "forcing_shell = 5.0, 7.0\n"
        "drift_mode_cap = 1\n"
    )
    assert main(["scaling-steady", "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert "error: scaling-steady needs at least 5 sweep points, got 3" in err


@pytest.mark.parametrize(
    "experiment, inequality",
    [
        ("picard-tp", "1/q + 1/(n+1) <= 1/r"),
        ("picard-steady", "1/q <= 1/r - 1/(n+1)"),
        ("mms", "1/q <= 1/r - 1/(n+1)"),
        ("bilinear", "n(n+1)/(n^2-n-1) < q"),
    ],
)
def test_inadmissible_default_exponents_rejected_with_the_config(
    experiment, inequality, tmp_path, capsys
):
    # q = r = 2 are the ExperimentConfig defaults; in 3-D they leave the
    # fixed-point and bilinear windows.
    ini = tmp_path / "bare.ini"
    ini.write_text(f"[experiment]\nname = {experiment}\nlambda_grid = 1.0\n")
    assert main([experiment, "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert f"error: {experiment} needs (q, r) = (2.0, 2.0)" in err
    assert inequality in err
    assert "theta undefined" not in err


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        ("picard-steady", "q", "inf"),
        ("lifting-check", "q", "inf"),
        ("lifting-check", "r", "nan"),
    ],
)
def test_non_finite_exponent_rejected_with_the_config(
    experiment, key, value, tmp_path, capsys
):
    ini = tmp_path / "non_finite.ini"
    ini.write_text(
        f"[experiment]\nname = {experiment}\nlambda_grid = 1.0\n{key} = {value}\n"
    )
    assert main([experiment, "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert f"error: {key} must be finite, got {value}" in err


def test_error_inside_the_runner_reported_on_stderr(monkeypatch, capsys):
    def failing(cfg):
        raise RuntimeError(f"{cfg.experiment} failed mid-run")

    monkeypatch.setattr(cli, "run_experiment", failing)
    assert main(["lifting-check"]) == 1
    captured = capsys.readouterr()
    assert "error: lifting-check failed mid-run" in captured.err
    assert captured.out == ""


def _must_not_run(cfg):
    raise AssertionError(f"{cfg.experiment} reached its runner")


@pytest.mark.parametrize(
    "mode_cap, message",
    [
        (11, "mode cap 11 exceeds the grid's dealias cutoff 10"),
        (0, "mode cap must be >= 1, got 0"),
    ],
)
def test_mode_cap_rejected_with_the_config(
    mode_cap, message, tmp_path, capsys, monkeypatch
):
    # The fit runs before the first draw, so a check in the runner would cost
    # the whole fit before reporting the cap.
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    ini = tmp_path / "cap.ini"
    ini.write_text(
        "[experiment]\nname = picard-steady\npoints = 32\nlambda_grid = 1.0\n"
        f"q = 4\ngamma = 1.1\nmode_cap = {mode_cap}\n"
    )
    assert main(["picard-steady", "--config", str(ini)]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "experiment:" not in captured.out


def test_infinite_radius_rejected_before_the_run(tmp_path, capsys, monkeypatch):
    # The radius schedule would halve rho = inf forever, so the run never ends.
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    ini = tmp_path / "inf.ini"
    ini.write_text(
        "[experiment]\nname = picard-steady\npoints = 16\nlambda_grid = 1.0\n"
        "q = 4\ngamma = 1.1\nrho = inf\n"
    )
    assert main(["picard-steady", "--config", str(ini)]) == 1
    captured = capsys.readouterr()
    assert "error: rho must be positive and finite, got inf" in captured.err
    assert captured.out == ""


def test_infinite_tolerance_rejected_before_the_run(tmp_path, capsys, monkeypatch):
    # At tol = inf the certificate checks would print PASS against inf.
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    ini = tmp_path / "tol.ini"
    ini.write_text(
        "[experiment]\nname = picard-steady\npoints = 16\nlambda_grid = 1.0\n"
        "q = 4\ngamma = 1.1\ntol = inf\n"
    )
    assert main(["picard-steady", "--config", str(ini)]) == 1
    captured = capsys.readouterr()
    assert "error: tol must be positive and finite, got inf" in captured.err
    assert captured.out == ""


def test_infinite_period_rejected_before_the_run(tmp_path, capsys, monkeypatch):
    # At period = inf every frequency is 0 and the stack is K + 1 steady copies.
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    ini = tmp_path / "period.ini"
    ini.write_text(
        "[experiment]\nname = picard-tp\npoints = 16\nlambda_grid = 1.0\n"
        "q = 4\ngamma = 1.1\nperiod = inf\n"
    )
    assert main(["picard-tp", "--config", str(ini)]) == 1
    captured = capsys.readouterr()
    assert "error: period must be positive and finite, got inf" in captured.err
    assert captured.out == ""


def test_retired_wake_constant_rejected_before_the_run(tmp_path, capsys, monkeypatch):
    # The wake floor is 4 / half_period for the box sweeps; no key moves it.
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    ini = tmp_path / "wake.ini"
    ini.write_text(
        "[experiment]\nname = lifting-check\nlambda_grid = 1.0\nc_wake = 0\n"
    )
    assert main(["lifting-check", "--config", str(ini)]) == 1
    captured = capsys.readouterr()
    assert "error: unknown config keys: c_wake" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "key, value",
    [
        ("out", "table.csv"),
        ("lambda_ceiling", "100"),
        ("inner_radius", "1.0"),
        ("outer_radius", "2.0"),
    ],
)
def test_retired_config_key_rejected_before_the_run(
    key, value, tmp_path, capsys, monkeypatch
):
    # The CSV path is --out alone, the drift ceiling is the experiment's and
    # the cut-off radii are the grid's default.
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    ini = tmp_path / "retired.ini"
    ini.write_text(
        f"[experiment]\nname = lifting-check\nlambda_grid = 1.0\n{key} = {value}\n"
    )
    assert main(["lifting-check", "--config", str(ini)]) == 1
    captured = capsys.readouterr()
    assert f"error: unknown config keys: {key}" in captured.err
    assert captured.out == ""


def test_negative_seed_rejected_before_the_run(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    assert main(["bilinear", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert "error: seed must be nonnegative, got -1" in captured.err
    assert captured.out == ""


def test_short_bilinear_sweep_rejected_before_any_run_output(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    ini = tmp_path / "short.ini"
    ini.write_text(
        "[experiment]\nname = bilinear\npoints = 16\nhalf_period = 1e7\nq = 4\n"
        "lambda_grid = 10, 30, 100\nforcing_shell = 1.0, 1.8\n"
    )
    assert main(["bilinear", "--config", str(ini)]) == 1
    captured = capsys.readouterr()
    assert "error: bilinear needs at least 5 sweep points, got 3" in captured.err
    assert captured.out == ""


def test_not_a_number_drift_in_the_ini_rejected_before_the_run(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    ini = tmp_path / "nan.ini"
    ini.write_text(
        "[experiment]\nname = picard-steady\npoints = 16\n"
        "lambda_grid = 0.5, nan, 2.0\nq = 4\ngamma = 1.1\n"
    )
    assert main(["picard-steady", "--config", str(ini)]) == 1
    captured = capsys.readouterr()
    assert "error: lambda_grid must be finite, got (0.5, nan, 2.0)" in captured.err
    assert captured.out == ""


def test_csv_that_cannot_be_written_reported_on_stderr(tmp_path, capsys):
    target = tmp_path / "adir"
    target.mkdir()
    assert main(["lifting-check", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert "Traceback" not in captured.err


def test_out_path_that_is_its_own_twin_rejected_before_the_run(tmp_path, capsys):
    target = tmp_path / "table.dat"
    assert main(["lifting-check", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert f"error: output path '{target}' would be overwritten" in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-experiment"])
    assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# built-in defaults
# ---------------------------------------------------------------------------


def test_default_config_covers_every_experiment():
    for experiment in EXPERIMENTS:
        cfg = default_config(experiment)
        assert cfg.experiment == experiment


def test_default_config_rejects_unknown_name():
    with pytest.raises(ValueError, match="no default configuration"):
        default_config("bogus")
