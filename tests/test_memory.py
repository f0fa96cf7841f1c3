"""Working-set bounds: traced peaks that must not grow with the sample count.

Each test runs its workload once untraced, so that the mode-list, grid and
transform-plan caches are warm.  The first tests compare the ``tracemalloc``
peaks of a small and a large sample count; the kernel tests at 24^3 bound
one call's peak in units of one real 24^3 field, and the Picard ladder test
bounds a whole run's peak in units of one of its time stacks.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np

from oseenlab import harness
from oseenlab.exponents import ExponentProfile
from oseenlab.fields import GridSpec, TimePeriodicField
from oseenlab.harness import (
    default_config,
    fit_smallness_constant,
    random_divergence_free,
    run_experiment,
)
from oseenlab.nonlinear import nonlinearity
from oseenlab.norms import lq_norm, negative_norm_surrogate
from oseenlab.oseen import OseenParams, residual, solve_steady
from oseenlab.picard import driver_norm_timeperiodic

from test_harness import _bilinear_config


def _traced_peak(run) -> int:
    """Bytes of the highest traced allocation level while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bilinear_ensemble_peak_does_not_grow_with_the_pair_count():
    def ensemble(count):
        return lambda: run_experiment(_bilinear_config(16, sample_count=count))

    ensemble(4)()
    few, many = _traced_peak(ensemble(4)), _traced_peak(ensemble(16))
    assert many - few <= 0.25 * 2**20


def test_fit_peak_grows_by_less_than_one_full_grid_field(monkeypatch):
    grid = GridSpec(3, np.pi, 32)
    profile = ExponentProfile(3, 4.0, 2.0)

    def fit(samples):
        monkeypatch.setattr(harness, "_FIT_SAMPLES", samples)
        return lambda: fit_smallness_constant(grid, profile, seed=0)

    fit(4)()
    few, many = _traced_peak(fit(4)), _traced_peak(fit(8))
    assert many - few < 3 * 32**3 * 8


# Kernel peaks at 24^3, in units of one real 24^3 field.
_GRID24 = GridSpec(3, np.pi, 24)
_FIELD24 = 8 * 24**3


def _stack24(max_mode: int) -> TimePeriodicField:
    rng = np.random.default_rng(max_mode)
    shape = (max_mode + 1, 3) + _GRID24.shape
    modes = 0.01 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    modes[0] = modes[0].real
    return TimePeriodicField(_GRID24, 2.5, modes)


def _warm_peak(run) -> float:
    """Traced peak of ``run()`` after one untraced call, in 24^3 fields."""
    run()
    return _traced_peak(run) / _FIELD24


def test_lq_norm_peak_does_not_grow_with_the_mode_count():
    one, three = _stack24(1), _stack24(3)
    few = _warm_peak(lambda: lq_norm(one, 4.0))
    many = _warm_peak(lambda: lq_norm(three, 4.0))
    assert many - few <= 1.0


def test_from_time_samples_holds_only_the_kept_modes():
    samples = _stack24(2).sample_times(9)
    peak = _warm_peak(
        lambda: TimePeriodicField.from_time_samples(_GRID24, 2.5, samples, 2)
    )
    assert peak <= 40.0


def test_time_periodic_nonlinearity_peak_is_bounded():
    u = _stack24(2)
    assert _warm_peak(lambda: nonlinearity(u, None)) <= 80.0


def test_steady_nonlinearity_transforms_its_own_products_in_place():
    # 33.0 fields when every spectrum and product was a new array, 28.2 now.
    v = random_divergence_free(_GRID24, [7, 1])
    assert _warm_peak(lambda: nonlinearity(v, None)) < 30.0


def test_r2_negative_norm_builds_no_riesz_tensor():
    # The (3, 3) complex tensor alone is 18 fields; Parseval needs about 8.
    v = random_divergence_free(_GRID24, [7, 1])
    assert _warm_peak(lambda: negative_norm_surrogate(v, 2.0)) <= 10.0



def test_time_periodic_driver_norm_copies_no_oscillation():
    # 53.0 fields when the oscillation was copied out of the stack; the copy
    # is one complex K = 2 vector stack, 18 fields.
    u = _stack24(2)
    assert _warm_peak(lambda: driver_norm_timeperiodic(u, 0.3, 4.0, 2.0)) <= 36.0


def test_steady_residual_copies_no_whole_stack():
    # Each component is copied to complex only for its own transform.
    f = random_divergence_free(_GRID24, [7, 1])
    params = OseenParams(0.5)
    pair = solve_steady(f, params)
    assert _warm_peak(lambda: residual(pair, f, params)) <= 26.0


def test_time_periodic_picard_ladder_holds_no_stack_past_its_last_read():
    # Three rungs and the second-start loop at 16^3 with K = 2; the old
    # iterate, the certificate's forcing and each rung's pressure go as soon
    # as nothing reads them again.
    grid = GridSpec(3, np.pi, 16)
    cfg = dataclasses.replace(default_config("picard-tp"), grid=grid, time_modes=2)
    stack = 8 * 2 * 3 * 3 * 16**3  # one complex vector stack with K + 1 = 3 modes
    run_experiment(cfg)
    assert _traced_peak(lambda: run_experiment(cfg)) / stack <= 9.5
