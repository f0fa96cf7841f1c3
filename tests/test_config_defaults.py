"""The INI loader and the built-in configs against fixed references.

``_reference_parse_config`` and ``_REFERENCE_KEYS`` are a copy of the loader
that spelled out its 25 keys and restated every fallback by hand.  The loader
now derives its keys, conversions and fallbacks from the fields of
:class:`ExperimentConfig`; a random subset of the keys with valid values must
give the same config, or the same error, as the copy.  The seven built-in
configs are pinned with every field written out, so a changed
``ExperimentConfig`` default shows here as well.
"""

from __future__ import annotations

import configparser
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseenlab.cli import default_config
from oseenlab.config import log_spaced, parse_config
from oseenlab.fields import GridSpec
from oseenlab.harness import EXPERIMENTS, ExperimentConfig

_REFERENCE_KEYS = {
    "name",
    "dim",
    "points",
    "half_period",
    "q",
    "r",
    "lambda_grid",
    "lambda_min",
    "lambda_max",
    "lambda_points",
    "lambda_ceiling",
    "period",
    "time_modes",
    "seed",
    "samples",
    "rho",
    "gamma",
    "tol",
    "c_wake",
    "inner_radius",
    "outer_radius",
    "mode_cap",
    "forcing_shell",
    "drift_mode_cap",
    "out",
}


def _reference_lambda_grid(section) -> tuple[float, ...]:
    raw = section.get("lambda_grid", fallback=None)
    if raw:
        return tuple(float(token) for token in raw.split(",") if token.strip())
    if "lambda_min" not in section or "lambda_max" not in section:
        raise ValueError(
            "set either lambda_grid or lambda_min/lambda_max/lambda_points"
        )
    return log_spaced(
        section.getfloat("lambda_min"),
        section.getfloat("lambda_max"),
        section.getint("lambda_points", fallback=7),
    )


def _reference_parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    if "experiment" not in parser:
        raise ValueError(f"config file needs an [experiment] section: {path}")
    section = parser["experiment"]
    unknown = set(section) - _REFERENCE_KEYS
    if unknown:
        raise ValueError(
            f"unknown config keys: {', '.join(sorted(unknown))}"
        )
    if "name" not in section:
        raise ValueError("the [experiment] section needs a 'name' key")
    grid = GridSpec(
        dim=section.getint("dim", fallback=3),
        half_period=section.getfloat("half_period", fallback=math.pi),
        points_per_axis=section.getint("points", fallback=32),
    )
    shell_raw = section.get("forcing_shell", fallback=None)
    shell = None
    if shell_raw:
        parts = [float(token) for token in shell_raw.split(",") if token.strip()]
        if len(parts) != 2:
            raise ValueError(
                f"forcing_shell needs two comma-separated radii, got {shell_raw!r}"
            )
        shell = (parts[0], parts[1])

    def optfloat(key):
        return section.getfloat(key) if key in section else None

    def optint(key):
        return section.getint(key) if key in section else None

    return ExperimentConfig(
        experiment=section["name"].strip(),
        grid=grid,
        lambda_grid=_reference_lambda_grid(section),
        q=section.getfloat("q", fallback=2.0),
        r=section.getfloat("r", fallback=2.0),
        period=section.getfloat("period", fallback=2.0 * math.pi),
        time_modes=section.getint("time_modes", fallback=1),
        seed=section.getint("seed", fallback=0),
        sample_count=section.getint("samples", fallback=100),
        rho=section.getfloat("rho", fallback=0.05),
        gamma=optfloat("gamma"),
        tol=section.getfloat("tol", fallback=1e-10),
        lambda_ceiling=section.getfloat("lambda_ceiling", fallback=16.0),
        c_wake=optfloat("c_wake"),
        inner_radius=optfloat("inner_radius"),
        outer_radius=optfloat("outer_radius"),
        mode_cap=optint("mode_cap"),
        forcing_shell=shell,
        drift_mode_cap=optint("drift_mode_cap"),
        output_path=section.get("out", fallback=None),
    )


# ---------------------------------------------------------------------------
# the loader against the reference copy


def _number(lo, hi):
    return st.floats(lo, hi).map(repr)


def _integer(lo, hi):
    return st.integers(lo, hi).map(str)


def _list(values):
    return ", ".join(repr(v) for v in values)


# Valid text for every key but ``name``.  Drifts stay above the largest wake
# floor the other values allow (c_wake 4 over half_period 2).
_VALUES = {
    "dim": st.sampled_from(("2", "3")),
    "points": st.sampled_from(("8", "16", "32")),
    "half_period": _number(2.0, 10.0),
    "q": _number(1.5, 4.0),
    "r": _number(1.5, 4.0),
    "lambda_grid": st.lists(
        st.floats(2.0, 8.0), min_size=1, max_size=4, unique=True
    ).map(lambda values: _list(sorted(values))),
    "lambda_min": _number(2.0, 3.0),
    "lambda_max": _number(4.0, 8.0),
    "lambda_points": _integer(2, 9),
    "lambda_ceiling": _number(8.0, 32.0),
    "period": _number(0.5, 10.0),
    "time_modes": _integer(1, 4),
    "seed": _integer(0, 1000),
    "samples": _integer(1, 200),
    "rho": _number(0.01, 0.1),
    "gamma": _number(1.05, 2.0),
    "tol": _number(1e-12, 1e-6),
    "c_wake": _number(0.0, 4.0),
    "inner_radius": _number(0.5, 1.0),
    "outer_radius": _number(1.5, 2.5),
    "mode_cap": _integer(1, 4),
    "forcing_shell": st.one_of(
        st.just(""),
        st.tuples(st.floats(0.5, 1.0), st.floats(1.0, 2.0)).map(_list),
    ),
    "drift_mode_cap": _integer(1, 3),
    "out": st.sampled_from(("table.csv", "runs/out.csv", "")),
}


# Every section sets a drift sweep; the radii are drawn together or not at all.
_SWEEPS = [
    ("lambda_grid",),
    ("lambda_min", "lambda_max"),
    ("lambda_min", "lambda_max", "lambda_points"),
    ("lambda_grid", "lambda_min", "lambda_max", "lambda_points"),
]
_RADII = ("inner_radius", "outer_radius")
_GROUPS = [_RADII] + [
    (key,) for key in sorted(_VALUES) if key not in _RADII + _SWEEPS[-1]
]


def test_the_draws_cover_every_reference_key():
    assert len(_REFERENCE_KEYS) == 25
    drawn = {key for group in _GROUPS + _SWEEPS for key in group}
    assert drawn | {"name"} == set(_VALUES) | {"name"} == _REFERENCE_KEYS


@st.composite
def ini_sections(draw):
    groups = draw(st.lists(st.sampled_from(_GROUPS), unique=True))
    groups.append(draw(st.sampled_from(_SWEEPS)))
    keys = [key for group in groups for key in group]
    lines = [f"name = {draw(st.sampled_from(EXPERIMENTS))}"]
    lines += [f"{key} = {draw(_VALUES[key])}" for key in keys]
    return "[experiment]\n" + "\n".join(lines) + "\n"


def _outcome(parse, path):
    try:
        return parse(path)
    except ValueError as error:
        return type(error), str(error)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(ini_sections())
def test_parse_config_matches_the_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ini") / "run.ini"
    path.write_text(text)
    assert _outcome(parse_config, path) == _outcome(_reference_parse_config, path)


@pytest.mark.parametrize(
    "key", ["experiment", "grid", "sample_count", "output_path", "points_per_axis"]
)
def test_field_names_that_are_not_ini_keys_are_rejected(tmp_path, key):
    path = tmp_path / "run.ini"
    path.write_text(f"[experiment]\nname = mms\nlambda_grid = 1.0\n{key} = 1\n")
    with pytest.raises(ValueError, match=f"unknown config keys: {key}"):
        parse_config(path)


# ---------------------------------------------------------------------------
# the built-in configs, every field written out

_BOX = GridSpec(3, 3.141592653589793, 32)
_BOX_SWEEP = (
    1.2732395447351628,
    1.8688600712697292,
    2.743111443897837,
    4.026336968358963,
    5.90985445335695,
    8.674480038390358,
    12.732395447351628,
)
_COMMON = dict(
    q=2.0,
    r=2.0,
    period=6.283185307179586,
    time_modes=1,
    seed=0,
    sample_count=100,
    rho=0.05,
    gamma=None,
    tol=1e-10,
    lambda_ceiling=16.0,
    c_wake=None,
    inner_radius=None,
    outer_radius=None,
    mode_cap=None,
    forcing_shell=None,
    drift_mode_cap=None,
    output_path=None,
)
_PINNED = {
    "mms": dict(grid=_BOX, lambda_grid=(0.5, 2.0), q=4.0, time_modes=2),
    "scaling-steady": dict(
        grid=GridSpec(3, 3.141592653589793, 64),
        lambda_grid=_BOX_SWEEP,
        q=4.0,
        forcing_shell=(14.0, 18.0),
        drift_mode_cap=1,
    ),
    "scaling-tp": dict(
        grid=_BOX,
        lambda_grid=_BOX_SWEEP,
        period=1.0,
        forcing_shell=(7.0, 9.0),
        drift_mode_cap=1,
    ),
    "bilinear": dict(
        grid=GridSpec(3, 10000000.0, 16),
        lambda_grid=(
            10.0,
            14.677992676220699,
            21.544346900318843,
            31.622776601683803,
            46.41588833612781,
            68.12920690579618,
            100.0,
        ),
        q=4.0,
        lambda_ceiling=100.0,
        forcing_shell=(1.0, 1.8),
    ),
    "picard-steady": dict(grid=_BOX, lambda_grid=(1.0,), q=4.0, gamma=1.1),
    "picard-tp": dict(
        grid=GridSpec(3, 3.141592653589793, 24),
        lambda_grid=(1.0,),
        q=4.0,
        time_modes=2,
        gamma=1.1,
    ),
    "lifting-check": dict(
        grid=_BOX,
        lambda_grid=(
            0.001,
            0.0021544346900318843,
            0.004641588833612781,
            0.010000000000000004,
            0.02154434690031885,
            0.046415888336127815,
            0.1,
        ),
    ),
}


def test_the_pins_write_out_every_field():
    names = {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert set(_COMMON) | {"experiment", "grid", "lambda_grid"} == names
    assert set(_PINNED) == set(EXPERIMENTS)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_built_in_config_is_pinned(experiment):
    expected = ExperimentConfig(experiment, **{**_COMMON, **_PINNED[experiment]})
    assert default_config(experiment) == expected
