"""Steady drift flow on a periodic box, from forcing to wake.

This walk-through solves the steady drift (Oseen) system and shows the
structural facts the solver guarantees:

  * the velocity is divergence-free to round-off,
  * gradient parts of the forcing go entirely into the pressure,
  * a localized force produces a mirror-symmetric speed field with no
    drift and a downstream-heavy one once the drift turns on -- the wake.

The wake asymmetry is largest when the wake scale ~1/drift matches the
box: with a much stronger drift the disturbance is swept through the
periodic boundary and the box cannot hold a one-sided wake any more.
That window is exactly why the sweep experiments gate their drifts from
below.

Finally the velocity is written to the flat binary field container and
read back bit-for-bit.

Run:  python3 demos/steady_drift_flow.py
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from oseenlab import (
    CutoffSpec,
    GridSpec,
    OseenParams,
    VectorField,
    divergence,
    gradient,
    leray_project,
    load_field,
    lq_norm,
    random_divergence_free,
    random_scalar_field,
    save_field,
    solve_steady,
    wake_asymmetry,
)
from oseenlab.lifting import build_cutoff

grid = GridSpec(dim=3, half_period=math.pi, points_per_axis=32)
print(
    f"grid: {grid.points_per_axis}^3 points, "
    f"box length {2 * math.pi * grid.half_period:.3f}"
)

# --- a localized force and its wake -----------------------------------------
# The cutoff profile (1 on an inner ball, 0 outside an outer ball) makes a
# smooth centered blob; pointing it along the drift axis and projecting out
# the gradient part gives a solenoidal "stirring" force.
bump = build_cutoff(CutoffSpec(0.15 * math.pi, 0.45 * math.pi), grid)
components = np.zeros((grid.dim,) + grid.shape)
components[0] = bump.values
blob = leray_project(VectorField(grid, components))
print(f"\nlocalized solenoidal force, |f|_2 = {lq_norm(blob, 2.0):.4f}")
print(f"{'drift':>8} {'|u|_2':>10} {'|div u|_2':>12} {'wake asymmetry':>15}")
for lam in (0.0, 0.25, 1.0, 4.0, 16.0):
    pair = solve_steady(blob, OseenParams(lam=lam))
    div_norm = lq_norm(divergence(pair.velocity), 2.0)
    asym = wake_asymmetry(pair.velocity)
    print(
        f"{lam:8.2f} {lq_norm(pair.velocity, 2.0):10.5f} "
        f"{div_norm:12.3e} {asym:15.6f}"
    )
print(
    "-> symmetric at zero drift, downstream-heavy in the resolved window\n"
    "   (peak near drift ~ 1), swept through the periodic boundary beyond it."
)

# --- gradient forcing goes into the pressure --------------------------------
potential = random_scalar_field(grid, seed_key=[2026, 2])
grad_only = solve_steady(gradient(potential), OseenParams(lam=2.0))
print()
print(
    "velocity from a pure-gradient forcing: "
    f"|u|_2 = {lq_norm(grad_only.velocity, 2.0):.3e}"
)
print(
    "pressure from the same forcing:        "
    f"|p|_2 = {lq_norm(grad_only.pressure, 2.0):.4f}"
)
print("-> gradients are absorbed by the pressure, as the projector demands.")

# --- binary round trip -------------------------------------------------------
forcing = random_divergence_free(grid, seed_key=[2026, 1]) + gradient(potential)
pair = solve_steady(forcing, OseenParams(lam=2.0))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "velocity.field"
    save_field(path, pair.velocity)
    again = load_field(path)
    identical = np.array_equal(again.components, pair.velocity.components)
    print()
    print(
        f"binary round trip: {path.stat().st_size} bytes, "
        f"bit-identical = {identical}"
    )
