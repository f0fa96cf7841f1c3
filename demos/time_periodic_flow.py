"""Time-periodic drift flow: frequency blocks, splitting, and flat estimates.

The time-periodic solver treats each temporal frequency as an independent
spatial problem.  This script shows the consequences:

  * a time-constant forcing reproduces the steady solution in mode 0 and
    produces no oscillation,
  * a general periodic forcing splits cleanly into its time average and
    its purely oscillatory complement, and the two parts solve their own
    problems,
  * the maximal-regularity norm of the oscillatory part, divided by the
    norm of the oscillatory forcing, stays flat as the drift sweeps a
    decade -- the drift does not amplify the oscillatory response.

Run:  python3 demos/time_periodic_flow.py
"""

import math

import numpy as np

from oseenlab import (
    GridSpec,
    OseenParams,
    TimePeriodicField,
    lq_norm,
    maxreg_norm,
    project_oscillatory,
    project_steady,
    random_timeperiodic_forcing,
    solve_steady,
    solve_timeperiodic,
)

grid = GridSpec(dim=3, half_period=math.pi, points_per_axis=24)
period = 1.0
print(f"grid: {grid.points_per_axis}^3, period {period}")

# --- a time-constant forcing stays steady ------------------------------------
steady_forcing = random_timeperiodic_forcing(grid, period, 0, seed_key=[7, 1])
velocity, _pressure = solve_timeperiodic(steady_forcing, OseenParams(lam=1.5))
pair = solve_steady(project_steady(steady_forcing), OseenParams(lam=1.5))
gap = np.abs(
    project_steady(velocity).components - pair.velocity.components
).max()
osc_norm = lq_norm(project_oscillatory(velocity), 2.0)
print()
print("time-constant forcing:")
print(f"  mode-0 velocity matches the steady solver to {gap:.3e}")
print(f"  oscillatory remainder |w|_2 = {osc_norm:.3e}")

# --- splitting a genuinely periodic flow --------------------------------------
forcing = random_timeperiodic_forcing(grid, period, 2, seed_key=[7, 2])
velocity, pressure = solve_timeperiodic(forcing, OseenParams(lam=1.5))
v_mean = project_steady(velocity)
w_osc = project_oscillatory(velocity)
print()
print("two-frequency forcing at drift 1.5:")
print(f"  |time-averaged part|_2   = {lq_norm(v_mean, 2.0):.5f}")
print(f"  |oscillatory part|_2,2   = {lq_norm(w_osc, 2.0):.5f}")
print(f"  highest retained frequency index: {velocity.max_mode}")

# --- the oscillatory response does not feel the drift -------------------------
f_osc = project_oscillatory(forcing)
f_osc_norm = lq_norm(f_osc, 2.0)
print()
print(f"{'drift':>8} {'maxreg(w)':>12} {'ratio to |P_osc f|_2':>22}")
for lam in (0.5, 1.0, 2.0, 5.0):
    velocity, pressure = solve_timeperiodic(forcing, OseenParams(lam=lam))
    w = project_oscillatory(velocity)
    ratio = maxreg_norm(w, 2.0) / f_osc_norm
    print(f"{lam:8.2f} {maxreg_norm(w, 2.0):12.5f} {ratio:22.5f}")
print(
    "-> the combined (value + two spatial derivatives + time derivative)\n"
    "   norm of the oscillatory part tracks its forcing uniformly in the\n"
    "   drift; only the time-averaged part carries wake anisotropy."
)
