"""Numerical laboratory for drift-dominated incompressible flow.

The package implements the solution operator of the steady and
time-periodic drift (Oseen) approximation on a periodic box, the norms and
exponent formulas governing its wake-anisotropic a-priori estimates, a
divergence-free boundary lifting for exterior-domain truncations, and the
small-data fixed-point construction for the full nonlinear problem.  The
harness module turns those pieces into deterministic sweep experiments with
fitted slopes, constants, and pass/fail checks.
"""

from .exponents import (
    ExponentProfile,
    admissibility,
    exponents_Mdelta,
    gamma_interval,
    s_exponent,
    theta_exponent,
)
from .fields import (
    GridSpec,
    ScalarField,
    TimePeriodicField,
    VectorField,
    derivative,
    divergence,
    get_fft_workers,
    gradient,
    set_fft_workers,
)
from .harness import (
    EXPERIMENTS,
    CheckRecord,
    ExperimentConfig,
    ScalingResult,
    emit_csv,
    exponent_report,
    fit_smallness_constant,
    leave_one_out_shift,
    loglog_slope,
    random_divergence_free,
    random_oscillatory,
    random_scalar_field,
    random_timeperiodic_forcing,
    run_experiment,
)
from .io import load_field, save_field
from .lifting import CutoffSpec, LiftingField, build_lifting, default_cutoff, lifting_load
from .nonlinear import convective_product, nonlinearity
from .norms import (
    lambda_norm,
    lq_norm,
    maxreg_norm,
    negative_norm_surrogate,
    sobolev_full_norm,
    sobolev_seminorm,
    spacetime_l2_plancherel,
)
from .oseen import (
    OseenParams,
    SolveReport,
    StokesPair,
    apply_oseen,
    leray_project,
    project_oscillatory,
    project_steady,
    residual,
    residual_timeperiodic,
    solve_mode,
    solve_steady,
    solve_timeperiodic,
    wake_asymmetry,
)
from .picard import (
    PicardConfig,
    picard_steady,
    picard_timeperiodic,
    radius_schedule,
    smallness_terms,
)

__version__ = "0.1.0"
