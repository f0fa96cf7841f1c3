"""Property tests of the time-mode stack over random dim, K, ncomp and period.

A stack stores the modes k = 0..K only, so these check the invariants the
rest of the package relies on: negative modes are exact conjugates after
every operation, time sampling and collocation invert each other, and the
constructor validates mode 0 without touching the caller's array.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseenlab.fields import GridSpec, TimePeriodicField
from oseenlab.oseen import project_oscillatory

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=20, deadline=None)


@st.composite
def stack_specs(draw):
    """(grid, period, K, ncomp, seed) with grids of at most 8^3 points."""
    dim = draw(st.sampled_from((2, 3)))
    points = draw(st.sampled_from((4, 8)))
    grid = GridSpec(dim, draw(st.sampled_from((0.5, 1.0, np.pi))), points)
    period = draw(st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False))
    max_mode = draw(st.integers(0, 3))
    ncomp = draw(st.sampled_from((1, dim)))
    seed = draw(st.integers(0, 2**32 - 1))
    return grid, period, max_mode, ncomp, seed


def _random_modes(grid, max_mode, ncomp, rng) -> np.ndarray:
    """A (K+1, ncomp) + grid.shape stack with a real mode 0."""
    shape = (max_mode + 1, ncomp) + grid.shape
    modes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    modes[0] = modes[0].real
    return modes


def _assert_conjugate_pairs(field: TimePeriodicField) -> None:
    assert field.modes.shape[0] == field.max_mode + 1
    assert np.all(field.mode(0).imag == 0.0)
    for k in range(1, field.max_mode + 1):
        assert np.array_equal(field.mode(-k), np.conj(field.mode(k)))


@PROPERTY_SETTINGS
@given(stack_specs(), st.floats(-4.0, 4.0, allow_nan=False))
def test_negative_modes_stay_conjugate_under_arithmetic(spec, scalar):
    grid, period, max_mode, ncomp, seed = spec
    rng = np.random.default_rng(seed)
    a = TimePeriodicField(grid, period, _random_modes(grid, max_mode, ncomp, rng))
    b = TimePeriodicField(grid, period, _random_modes(grid, max_mode, ncomp, rng))
    results = {
        "a + b": a + b,
        "a - b": a - b,
        "a * c": a * scalar,
        "c * a": scalar * a,
        "-a": -a,
        "oscillatory(a)": project_oscillatory(a),
    }
    for field in results.values():
        _assert_conjugate_pairs(field)
    for k in range(-max_mode, max_mode + 1):
        assert np.array_equal(results["a + b"].mode(k), a.mode(k) + b.mode(k))
        assert np.array_equal(results["a - b"].mode(k), a.mode(k) - b.mode(k))
    assert np.all(results["oscillatory(a)"].mode(0) == 0.0)


@PROPERTY_SETTINGS
@given(stack_specs(), st.integers(0, 5))
def test_time_samples_round_trip(spec, extra_samples):
    grid, period, max_mode, ncomp, seed = spec
    rng = np.random.default_rng(seed)
    field = TimePeriodicField(grid, period, _random_modes(grid, max_mode, ncomp, rng))
    num_samples = 2 * max_mode + 1 + extra_samples
    samples = field.sample_times(num_samples)
    assert samples.shape == (num_samples, ncomp) + grid.shape
    back = TimePeriodicField.from_time_samples(grid, period, samples, max_mode)
    _assert_conjugate_pairs(back)
    scale = np.max(np.abs(field.modes))
    assert np.max(np.abs(back.modes - field.modes)) <= 1e-13 * scale


@PROPERTY_SETTINGS
@given(stack_specs(), st.sampled_from((1e-6, 1e-2, 1.0)))
def test_constructor_rejects_nonreal_mode_zero_untouched(spec, imaginary):
    grid, period, max_mode, ncomp, seed = spec
    rng = np.random.default_rng(seed)
    modes = _random_modes(grid, max_mode, ncomp, rng)
    modes[0, 0, (0,) * grid.dim] += 1j * imaginary * np.max(np.abs(modes))
    before = modes.copy()
    with pytest.raises(ValueError, match="mode 0 is not real"):
        TimePeriodicField(grid, period, modes)
    assert np.array_equal(modes, before)
    assert modes.flags.writeable


@PROPERTY_SETTINGS
@given(stack_specs())
def test_constructor_snaps_roundoff_in_mode_zero_on_its_own_copy(spec):
    grid, period, max_mode, ncomp, seed = spec
    rng = np.random.default_rng(seed)
    modes = _random_modes(grid, max_mode, ncomp, rng)
    modes[0] = modes[0] + 1e-15j * modes[0].real
    before = modes.copy()
    field = TimePeriodicField(grid, period, modes)
    assert np.array_equal(modes, before)
    assert np.array_equal(field.mode(0), before[0].real)
    _assert_conjugate_pairs(field)
