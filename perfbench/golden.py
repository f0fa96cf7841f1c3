"""Golden reference of each workload's output, and the comparator that gates it.

The reference holds, for every input seed in ``SEEDS``, the rows, slopes,
constants, flags and check verdicts that the experiment produced when the
reference was written (see ``make_golden.py``).  A repetition is correct when
every check verdict, column name, check name and flag is the same and every
number ``a`` lies within ``|a - g| <= RTOL * scale`` of its reference ``g``,
where ``scale`` is:

* ``|g|`` for table entries, constants, check values and check bounds;
* ``max(|g|, 1)`` for fitted slopes, which are dimensionless and whose
  drift-independent columns are zero up to roundoff;
* the row's ``solution_norm`` for the columns in ``ROUNDOFF_COLUMNS``, which
  are residuals of a converged fixed point and so roundoff by construction.

The values of the checks in ``ROUNDOFF_CHECKS`` are the same roundoff
residuals; their verdicts and bounds are compared, their values are not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-8
SEEDS = range(16)
ROUNDOFF_COLUMNS = ("certificate", "residual_momentum", "residual_div")
ROUNDOFF_CHECKS = ("certificate_", "initial_iterate_independence")

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def input_seed(seed: int) -> int:
    """The experiment seed a benchmark ``--seed`` selects: one with a reference."""
    return seed % len(SEEDS)


def serialize(result) -> dict:
    """A ``ScalingResult`` as plain JSON data."""
    return {
        "columns": list(result.columns),
        "rows": [list(map(float, row)) for row in result.rows],
        "slopes": {k: float(v) for k, v in result.slopes.items()},
        "constants": {k: float(v) for k, v in result.constants.items()},
        "checks": [
            {
                "name": c.name,
                "value": float(c.value),
                "bound": float(c.bound),
                "kind": c.kind,
                "passed": bool(c.passed),
            }
            for c in result.checks
        ],
        "flags": list(result.flags),
    }


def path_for(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    """Reference results of one workload, keyed by input seed."""
    with open(path_for(workload)) as handle:
        data = json.load(handle)
    return {int(seed): result for seed, result in data["seeds"].items()}


def _close(actual: float, golden: float, scale: float) -> bool:
    if math.isnan(golden):
        return math.isnan(actual)
    return abs(actual - golden) <= RTOL * scale


def compare(actual: dict, golden: dict) -> list[str]:
    """Every way ``actual`` departs from ``golden``; empty when it matches."""
    problems: list[str] = []

    def same(label, a, g):
        if a != g:
            problems.append(f"{label}: {a!r} != reference {g!r}")
            return False
        return True

    def near(label, a, g, scale):
        if not _close(a, g, scale):
            problems.append(f"{label}: {a!r} vs reference {g!r} (rtol {RTOL:g})")

    columns = golden["columns"]
    if same("columns", actual["columns"], columns) and same(
        "row count", len(actual["rows"]), len(golden["rows"])
    ):
        norm_col = columns.index("solution_norm") if "solution_norm" in columns else None
        for i, (row, ref) in enumerate(zip(actual["rows"], golden["rows"])):
            for name, a, g in zip(columns, row, ref):
                if name in ROUNDOFF_COLUMNS and norm_col is not None:
                    scale = abs(ref[norm_col])
                else:
                    scale = abs(g)
                near(f"row {i} {name}", a, g, scale)
    for group, floor in (("slopes", 1.0), ("constants", 0.0)):
        if same(f"{group} names", sorted(actual[group]), sorted(golden[group])):
            for name, g in golden[group].items():
                near(f"{group[:-1]} {name}", actual[group][name], g, max(abs(g), floor))
    checks = golden["checks"]
    if same(
        "check names",
        [c["name"] for c in actual["checks"]],
        [c["name"] for c in checks],
    ):
        for a, g in zip(actual["checks"], checks):
            label = f"check {g['name']}"
            same(f"{label} verdict", a["passed"], g["passed"])
            same(f"{label} kind", a["kind"], g["kind"])
            near(f"{label} bound", a["bound"], g["bound"], abs(g["bound"]))
            if not g["name"].startswith(ROUNDOFF_CHECKS):
                near(f"{label} value", a["value"], g["value"], abs(g["value"]))
    same("flags", actual["flags"], golden["flags"])
    return problems
