"""Working-set bounds: traced peaks that must not grow with the sample count.

Each test runs its workload once untraced, so that the mode-list, grid and
transform-plan caches are warm, and then compares the ``tracemalloc`` peaks
of a small and a large sample count.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from oseenlab import harness
from oseenlab.exponents import ExponentProfile
from oseenlab.fields import GridSpec
from oseenlab.harness import fit_smallness_constant, run_experiment

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
