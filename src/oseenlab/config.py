"""INI-file experiment configuration.

One ``[experiment]`` section describes a run.  It replaces the built-in
configuration of a CLI subcommand (declared in the experiment table at the
end of :mod:`oseenlab.harness`) as a whole: every key it leaves unset takes
the :class:`~oseenlab.harness.ExperimentConfig` default, and building the
config applies that table's checks.  Keys are the field names (``q``,
``r``, ``period``, ``time_modes``, ``seed``, ``rho``, ``gamma``, ``tol``,
``mode_cap``, ``forcing_shell``, ``drift_mode_cap``), ``name`` and
``samples`` for ``experiment`` and ``sample_count``, and the grid keys
``dim``, ``points`` and ``half_period``; the CSV path is the CLI's ``--out``.
The drift sweep comes either from an explicit comma-separated ``lambda_grid``
(which wins when both are present) or from log-spaced ``lambda_min`` /
``lambda_max`` / ``lambda_points``; without them the default single drift
stands, which only the fixed-point runs accept.  ``mode_cap`` fixes the
draws' mode cube under refinement; with ``forcing_shell`` set the forcing's
cap is ceil(shell high), and ``mode_cap`` shapes only the other draws.
"""

from __future__ import annotations

import configparser
import dataclasses
import math

from .fields import GridSpec
from .harness import ExperimentConfig, log_spaced

_SECTION = "experiment"

# INI keys of the config fields whose names differ from the field's.
_KEY_OF_FIELD = {"experiment": "name", "sample_count": "samples"}
_SWEEP_KEYS = {"lambda_grid", "lambda_min", "lambda_max", "lambda_points"}


def _radii(raw: str) -> tuple[float, float] | None:
    """Two comma-separated radii; an empty value means none."""
    if not raw:
        return None
    lo, hi = (float(token) for token in raw.split(",") if token.strip())
    return lo, hi


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(token) for token in raw.split(",") if token.strip())


# Reader of each field annotation (as text) and what a bad value lacks.
_READERS = {
    "str": (str, "text"), "int": (int, "an integer"), "float": (float, "a number"),
    "tuple[float, ...]": (_floats, "comma-separated numbers"),
    "tuple[float, float]": (_radii, "two comma-separated radii"),
}
# INI key -> config field, for every field but the grid and the sweep.
_FIELD_KEYS = {
    _KEY_OF_FIELD.get(field.name, field.name): field
    for field in dataclasses.fields(ExperimentConfig)
    if field.name not in ("grid", "lambda_grid")
}
_KNOWN_KEYS = set(_FIELD_KEYS) | {"dim", "points", "half_period"} | _SWEEP_KEYS


def _read(section, key: str, kind: str, fallback=None):
    """The value of ``key`` read as type ``kind``; ``fallback`` when unset."""
    if key not in section:
        return fallback
    raw = section[key]
    reader, wanted = _READERS[kind]
    try:
        return reader(raw)
    except ValueError:
        raise ValueError(f"{key} needs {wanted}, got {raw!r}") from None


def _parse_lambda_grid(section) -> tuple[float, ...] | None:
    """The section's drift sweep, or None when it sets no sweep key."""
    if not _SWEEP_KEYS & set(section):
        return None
    if section.get("lambda_grid", fallback=None):
        return _read(section, "lambda_grid", "tuple[float, ...]")
    if "lambda_min" not in section or "lambda_max" not in section:
        raise ValueError(
            "set either lambda_grid or lambda_min/lambda_max/lambda_points"
        )
    return log_spaced(
        _read(section, "lambda_min", "float"),
        _read(section, "lambda_max", "float"),
        _read(section, "lambda_points", "int", 7),
    )


def parse_config(path) -> ExperimentConfig:
    """Load an :class:`~oseenlab.harness.ExperimentConfig` from an INI file.

    Unset keys take the ``ExperimentConfig`` defaults; the grid defaults to
    3-D, 32 points per axis and half period pi.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    if _SECTION not in parser:
        raise ValueError(f"config file needs an [{_SECTION}] section: {path}")
    section = parser[_SECTION]
    unknown = set(section) - _KNOWN_KEYS
    if unknown:
        raise ValueError(
            f"unknown config keys: {', '.join(sorted(unknown))}"
        )
    values = {}
    for key, field in _FIELD_KEYS.items():
        if key in section:
            values[field.name] = _read(section, key, field.type.removesuffix(" | None"))
        elif field.default is dataclasses.MISSING:
            raise ValueError(f"the [{_SECTION}] section needs a {key!r} key")
    grid = GridSpec(
        dim=_read(section, "dim", "int", 3),
        half_period=_read(section, "half_period", "float", math.pi),
        points_per_axis=_read(section, "points", "int", 32),
    )
    if (sweep := _parse_lambda_grid(section)) is not None:
        values["lambda_grid"] = sweep
    return ExperimentConfig(grid=grid, **values)
