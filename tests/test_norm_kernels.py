"""The coefficient-based norm kernels against a per-sample reference.

The reference below is the direct evaluation: complex FFTs, one derivative
multiplier built per multi-index, and for space-time norms a full spatial
norm of every time sample from ``TimePeriodicField.sample_times``.  The
kernels in ``oseenlab.norms`` reorder that arithmetic (real FFTs, cached
symbols, time samples synthesized after the spatial transforms), so the two
agree to roundoff, not bit for bit.  Leaving out an exactly zero time
average is checked bit for bit against a copy of the kernel that keeps it.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest

from oseenlab import norms
from oseenlab.exponents import s_exponent
from oseenlab.fields import (
    GridSpec,
    SpatialField,
    TimePeriodicField,
    _irfftn,
    _rfftn,
)
from oseenlab.harness import maxreg_norm_mode_sum
from oseenlab.norms import (
    _default_time_samples,
    _exact_grid,
    _maxreg_norm,
    lambda_norm,
    maxreg_norm,
    sobolev_full_norm,
    sobolev_seminorm,
)

REL = 1e-12
GRIDS = {2: GridSpec(2, 1.3, 16), 3: GridSpec(3, 0.8, 8)}
FORWARD = ("fftn", "rfftn", "fft", "rfft")


# ---------------------------------------------------------------------------
# per-sample reference


def _ref_lq(grid: GridSpec, components: np.ndarray, q: float) -> float:
    magnitude_sq = np.sum(components * components, axis=0)
    mean_pow = float(np.mean(magnitude_sq ** (q / 2.0)))
    return (mean_pow * grid.volume) ** (1.0 / q)


def _ref_blocks(grid: GridSpec, components: np.ndarray, order: int) -> list:
    axes = tuple(range(-grid.dim, 0))
    coeff = np.fft.fftn(components, axes=axes, norm="forward")
    blocks = []
    for alpha in combinations_with_replacement(range(grid.dim), order):
        multiplier = np.ones(grid.shape, dtype=np.complex128)
        for axis in alpha:
            multiplier = multiplier * (1j * grid.wavenumber(axis))
        blocks.append(np.fft.ifftn(coeff * multiplier, axes=axes, norm="forward").real)
    return blocks


def _ref_seminorm(grid, components, k, q) -> float:
    if k == 0:
        return _ref_lq(grid, components, q)
    return sum(_ref_lq(grid, block, q) for block in _ref_blocks(grid, components, k))


def _ref_full_norm(grid, components, k, q) -> float:
    total = _ref_lq(grid, components, q) ** q
    for order in range(1, k + 1):
        for block in _ref_blocks(grid, components, order):
            total += _ref_lq(grid, block, q) ** q
    return total ** (1.0 / q)


def _ref_lambda_norm(grid, components, lam, q, r) -> float:
    n = grid.dim
    weighted = lam ** (1.0 / (n + 1)) * _ref_lq(grid, components, s_exponent(n, r))
    return (
        _ref_seminorm(grid, components, 2, q)
        + _ref_seminorm(grid, components, 1, r)
        + weighted
    )


def _ref_time_derivative(field: TimePeriodicField) -> TimePeriodicField:
    """d/dt through i*omega_k multipliers on the mode stack."""
    nonneg = [1j * field.omega(k) * field.mode(k) for k in range(field.max_mode + 1)]
    return TimePeriodicField.from_modes(field.grid, field.period, nonneg)


def _ref_maxreg(field: TimePeriodicField, q: float, nt: int) -> float:
    grid = field.grid
    samples = field.sample_times(nt)
    bochner = np.mean([_ref_full_norm(grid, s, 2, q) ** q for s in samples])
    dt_samples = _ref_time_derivative(field).sample_times(nt)
    dt = np.mean([_ref_lq(grid, s, q) ** q for s in dt_samples])
    return bochner ** (1.0 / q) + dt ** (1.0 / q)


# ---------------------------------------------------------------------------
# inputs: white noise, so every mode up to Nyquist is populated


def _spatial(grid: GridSpec, ncomp: int, seed: int):
    values = np.random.default_rng(seed).standard_normal((ncomp,) + grid.shape)
    if ncomp == 1:
        return SpatialField(grid, values[:1]), values
    return SpatialField(grid, values), values


def _time_periodic(grid: GridSpec, ncomp: int, max_mode: int, seed: int):
    rng = np.random.default_rng(seed)
    shape = (ncomp,) + grid.shape
    modes = [rng.standard_normal(shape).astype(np.complex128)]
    for _ in range(max_mode):
        modes.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return TimePeriodicField.from_modes(grid, 1.7, modes)


def _ncomp(grid: GridSpec, kind: str) -> int:
    return 1 if kind == "scalar" else grid.dim


# ---------------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("kind", ["scalar", "vector"])
@pytest.mark.parametrize("dim", [2, 3])
def test_spatial_kernels_match_reference(dim, kind):
    grid = GRIDS[dim]
    field, values = _spatial(grid, _ncomp(grid, kind), seed=10 * dim + len(kind))
    for q in (2.0, 3.0, 4.0):
        for k in (0, 1, 2):
            assert sobolev_seminorm(field, k, q) == pytest.approx(
                _ref_seminorm(grid, values, k, q), rel=REL
            )
            assert sobolev_full_norm(field, k, q) == pytest.approx(
                _ref_full_norm(grid, values, k, q), rel=REL
            )
        for lam, r in ((0.0, 2.0), (0.6, 2.0), (2.5, 1.5)):
            assert lambda_norm(field, lam, q, r) == pytest.approx(
                _ref_lambda_norm(grid, values, lam, q, r), rel=REL
            )


@pytest.mark.parametrize("kind", ["scalar", "vector"])
@pytest.mark.parametrize("points", [6, 8, 16])
@pytest.mark.parametrize("dim", [2, 3])
def test_q2_seminorm_by_parseval_matches_the_inverse_transforms(dim, points, kind):
    # White noise fills every Nyquist plane, the last axis's 0 and N/2 ones
    # included, where the half layout counts a plane once instead of twice.
    grid = GridSpec(dim, 0.9, points)
    _, values = _spatial(grid, _ncomp(grid, kind), seed=100 * dim + points)
    coeff = _rfftn(values, dim)
    for k in (1, 2):
        by_blocks = sum(
            norms._lq_of_array(grid, block, 2.0)
            for block in norms._derivative_blocks(grid, coeff, k)
        )
        assert norms._seminorm_from_coefficients(
            grid, coeff, k, 2.0
        ) == pytest.approx(by_blocks, rel=1e-13)


@pytest.mark.parametrize("kind", ["scalar", "vector"])
@pytest.mark.parametrize("points", [8, 14, 32])
@pytest.mark.parametrize("dim", [2, 3])
def test_r2_negative_norm_by_parseval_matches_the_transform_path(dim, points, kind):
    # White noise fills the Nyquist planes, which the Riesz multiplier zeroes.
    grid = GridSpec(dim, 0.9, points)
    field, _ = _spatial(grid, _ncomp(grid, kind), seed=10 * dim + points)
    by_transforms = norms._negative_norm_by_transforms(field, 2.0)
    assert norms.negative_norm_surrogate(field, 2.0) == pytest.approx(
        by_transforms, rel=1e-13
    )
    for r in (1.5, 3.0, 4.0):
        expected = norms._negative_norm_by_transforms(field, r)
        assert norms.negative_norm_surrogate(field, r) == expected


def test_mode_sum_cross_check_does_not_use_the_parseval_seminorm(monkeypatch):
    # maxreg_norm_mode_sum checks the q = 2 norms through the derivative
    # blocks of sobolev_full_norm, independently of the Parseval branch.
    field = _time_periodic(GRIDS[3], 3, max_mode=1, seed=12)
    expected = maxreg_norm_mode_sum(field)

    def refuse(*args):
        raise AssertionError("the cross-check took the Parseval seminorm")

    monkeypatch.setattr(norms, "_seminorm_from_coefficients", refuse)
    assert maxreg_norm_mode_sum(field) == expected


def test_exact_grid_is_the_coarsest_exact_grid():
    # |D^alpha u|^e of a field of band B has degree e * B: the rectangle rule
    # on N > e * B points is exact, and the 2/3 rule must keep the band.
    fine = GridSpec(3, np.pi, 64)
    for band in range(1, 6):
        for e in (2.0, 4.0, 6.0):
            expected = min(
                n for n in range(2, 64, 2) if n > e * band and n // 3 >= band
            )
            coarse = _exact_grid(fine, band, (2.0, e))
            assert coarse.points_per_axis == expected
            assert (coarse.dim, coarse.half_period) == (3, np.pi)
    # the default picard-steady and picard-tp grids at q = 4, r = 2, s = 4
    assert _exact_grid(GridSpec(3, np.pi, 32), 4, (4.0, 2.0, 4.0)).points_per_axis == 18
    assert _exact_grid(GridSpec(3, np.pi, 24), 3, (4.0, 2.0, 4.0)).points_per_axis == 14
    # not coarser than the grid, or an exponent that is not an even integer
    grid = GridSpec(3, np.pi, 32)
    assert _exact_grid(grid, 4, (8.0,)) is grid
    assert _exact_grid(grid, 4, (3.0, 2.0, 4.0)) is grid
    s = s_exponent(3, 1.5)
    assert s == pytest.approx(2.4)
    assert _exact_grid(grid, 4, (4.0, 1.5, s)) is grid
    assert _exact_grid(grid, 4, (4.0, 2.0, np.inf)) is grid


@pytest.mark.parametrize("kind", ["scalar", "vector"])
@pytest.mark.parametrize("max_mode", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_maxreg_matches_per_sample_reference(dim, max_mode, kind):
    grid = GRIDS[dim]
    field = _time_periodic(grid, _ncomp(grid, kind), max_mode, seed=dim + 7 * max_mode)
    default = 4 * max_mode + 8
    for q in (2.0, 3.0, 4.0):
        assert maxreg_norm(field, q) == pytest.approx(
            _ref_maxreg(field, q, default), rel=REL
        )
        for nt in (2 * max_mode + 1, default + 5):
            assert _maxreg_norm(field, q, nt) == pytest.approx(
                _ref_maxreg(field, q, nt), rel=REL
            )


def test_time_derivative_reference_multiplies_by_frequency():
    grid, period = GRIDS[2], 5.0
    phi = np.random.default_rng(65).standard_normal(grid.shape)
    modes = np.zeros((2, 1) + grid.shape, dtype=np.complex128)
    modes[1] = 0.5 * phi
    dt = _ref_time_derivative(TimePeriodicField(grid, period, modes))
    omega = 2.0 * np.pi / period
    assert np.max(np.abs(dt.mode(1) - 1j * omega * 0.5 * phi)) <= 1e-13
    assert np.max(np.abs(dt.mode(0))) == 0.0


# ---------------------------------------------------------------------------
# time samples: exact counts and the zero time average


def _previous_maxreg(field: TimePeriodicField, q: float, nt: int) -> float:
    """The coefficient kernel with every real time field B_b kept, B_0 too."""
    grid, size = field.grid, 2 * field.max_mode + 1
    basis = np.empty((size,) + field.modes.shape[1:])
    weights = np.zeros((nt, size))
    dt_weights = np.zeros((nt, size))
    basis[0] = field.mode(0).real
    weights[:, 0] = 1.0
    phase = 2.0 * np.pi * np.arange(nt) / nt
    for k in range(1, field.max_mode + 1):
        mode = field.mode(k)
        basis[2 * k - 1] = 2.0 * mode.real
        basis[2 * k] = -2.0 * mode.imag
        cos, sin = np.cos(k * phase), np.sin(k * phase)
        omega = field.omega(k)
        weights[:, 2 * k - 1] = cos
        weights[:, 2 * k] = sin
        dt_weights[:, 2 * k - 1] = -omega * sin
        dt_weights[:, 2 * k] = omega * cos

    powers = _summing_sample_powers(weights, basis, q)
    coeff = _rfftn(basis, grid.dim)
    for order in (1, 2):
        for symbol in grid.derivative_symbols[order]:
            block = _irfftn(coeff * symbol, grid.shape)
            powers += _summing_sample_powers(weights, block, q)
    bochner = (float(np.mean(powers)) * grid.volume) ** (1.0 / q)
    dt_power = float(np.mean(_summing_sample_powers(dt_weights, basis, q)))
    return bochner + (dt_power * grid.volume) ** (1.0 / q)


def _summing_sample_powers(weights, fields, q):
    """The sample-power kernel that sums over the component axis at any width."""
    samples = np.einsum("jb,b...->j...", weights, fields)
    magnitude_sq = np.sum(np.square(samples, out=samples), axis=1)
    if q != 2.0:
        np.power(magnitude_sq, q / 2.0, out=magnitude_sq)
    return np.mean(magnitude_sq.reshape(len(weights), -1), axis=1)


@pytest.mark.parametrize("kind", ["scalar", "vector"])
@pytest.mark.parametrize("dim", [2, 3])
def test_sample_powers_skip_the_one_component_sum_bit_for_bit(dim, kind):
    grid = GRIDS[dim]
    rng = np.random.default_rng(5 * dim)
    fields = rng.standard_normal((5, _ncomp(grid, kind)) + grid.shape)
    weights = rng.standard_normal((9, 5))
    for q in (2.0, 2.5, 3.0, 4.0):
        assert np.array_equal(
            norms._sample_powers(weights, fields.swapaxes(0, 1), q),
            _summing_sample_powers(weights, fields, q),
        )


def _whole_stack_sample_powers(weights, fields, q):
    """The sample-power kernel that forms every component's instants at once."""
    samples = np.einsum("jb,b...->j...", weights, fields)
    np.square(samples, out=samples)
    magnitude_sq = samples[:, 0] if samples.shape[1] == 1 else np.sum(samples, axis=1)
    if q != 2.0:
        np.power(magnitude_sq, q / 2.0, out=magnitude_sq)
    return np.mean(magnitude_sq.reshape(len(weights), -1), axis=1)


def _whole_stack_lq_norm(field: TimePeriodicField, q: float) -> float:
    """The space-time L^q norm from one array of all 4K + 8 samples."""
    num_samples = 4 * field.max_mode + 8
    samples = field.sample_times(num_samples)
    powers = [
        norms._lq_of_array(field.grid, samples[j], q) ** q for j in range(num_samples)
    ]
    return float(np.mean(powers)) ** (1.0 / q)


@pytest.mark.parametrize("kind", ["scalar", "vector"])
@pytest.mark.parametrize("dim", [2, 3])
def test_streamed_time_kernels_match_the_whole_stack_bit_for_bit(dim, kind):
    # lq_norm takes its instants one at a time and _sample_powers one
    # component at a time; the whole-stack kernels must give the same bits.
    grid = GRIDS[dim]
    for max_mode in (0, 1, 3):
        ncomp = _ncomp(grid, kind)
        field = _time_periodic(grid, ncomp, max_mode, seed=7 * dim + max_mode)
        nt = 4 * max_mode + 8
        basis, weights, dt_weights = norms._real_time_basis(field, nt)
        for q in (1.5, 2.0, 3.0, 4.0):
            assert norms.lq_norm(field, q) == _whole_stack_lq_norm(field, q)
            for w in (weights, dt_weights):
                assert np.array_equal(
                    norms._sample_powers(w, basis.swapaxes(0, 1), q),
                    _whole_stack_sample_powers(w, basis, q),
                )
            assert _maxreg_norm(field, q, nt) == _previous_maxreg(field, q, nt)


@pytest.mark.parametrize("kind", ["scalar", "vector"])
@pytest.mark.parametrize("max_mode", [1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_zero_time_average_is_left_out_bit_for_bit(dim, max_mode, kind):
    grid = GRIDS[dim]
    field = _time_periodic(grid, _ncomp(grid, kind), max_mode, seed=3 * dim + max_mode)
    modes = field.modes.copy()
    modes[0] = 0.0
    oscillation = TimePeriodicField(grid, field.period, modes)
    for q in (2.0, 2.5, 3.0, 4.0):
        for nt in (2 * max_mode + 1, 4 * max_mode + 8):
            assert _maxreg_norm(oscillation, q, nt) == (
                _previous_maxreg(oscillation, q, nt)
            )


@pytest.mark.parametrize("dim", [2, 3])
def test_default_time_samples_are_exact_for_even_q(dim):
    # |u|^q and |du/dt|^q have degree qK in t for an even integer q, so
    # qK + 1 rectangle-rule instants integrate them exactly, as eight times
    # as many do; other q take the 4K + 8 count.
    grid = GRIDS[dim]
    for max_mode in range(4):
        field = _time_periodic(grid, dim, max_mode, seed=40 + 5 * dim + max_mode)
        full = 4 * max_mode + 8
        for q in (2.0, 4.0, 6.0, 8.0, 12.0):
            exact = int(q) * max_mode + 1
            assert _default_time_samples(max_mode, q) == exact
            assert maxreg_norm(field, q) == pytest.approx(
                _maxreg_norm(field, q, 8 * exact), rel=1e-13
            )
        for q in (3.0, 2.5):
            assert _default_time_samples(max_mode, q) == full
            assert maxreg_norm(field, q) == _maxreg_norm(field, q, full)
    assert _default_time_samples(2, 4.0) == 9
    assert _default_time_samples(2, 8.0) == 17
    assert _default_time_samples(2, np.inf) == 16


def _dense_lq_norm(field: TimePeriodicField, q: float, count: int) -> float:
    powers = [norms._lq_of_array(field.grid, s, q) ** q for s in field._instants(count)]
    return float(np.mean(powers)) ** (1.0 / q)


@pytest.mark.parametrize("dim", [2, 3])
def test_stack_lq_norm_is_exact_for_even_q(dim):
    # lq_norm takes max(qK + 1, 4K + 8) instants at an even integer q: the
    # 4K + 8 it always took at q <= 4, and the exact count above.
    grid = GRIDS[dim]
    for max_mode in range(4):
        field = _time_periodic(grid, dim, max_mode, seed=70 + 5 * dim + max_mode)
        for q in (2.0, 4.0, 6.0, 8.0, 12.0):
            count = max(int(q) * max_mode + 1, 4 * max_mode + 8)
            assert norms.lq_norm(field, q) == _dense_lq_norm(field, q, count)
            assert norms.lq_norm(field, q) == pytest.approx(
                _dense_lq_norm(field, q, 8 * count), rel=1e-13
            )


def test_zero_time_average_is_not_transformed(monkeypatch):
    grid = GRIDS[3]
    modes = _time_periodic(grid, 3, max_mode=2, seed=8).modes.copy()
    modes[0] = 0.0
    shapes = []
    original = norms._rfftn

    def recording(values, dim):
        shapes.append(values.shape)
        return original(values, dim)

    monkeypatch.setattr(norms, "_rfftn", recording)
    maxreg_norm(TimePeriodicField(grid, 1.7, modes), 4.0)
    assert shapes == [(4, 3) + grid.shape]


# ---------------------------------------------------------------------------
# transform counts


def _calls(transform_log) -> Counter:
    """Transform calls by name, from the shared ``transform_log`` fixture."""
    return Counter(name for name, _ in transform_log)


def test_lambda_norm_makes_one_forward_transform(transform_log):
    field, _ = _spatial(GRIDS[3], 3, seed=5)
    lambda_norm(field, 0.7, 4.0, 2.0)
    assert sum(_calls(transform_log)[name] for name in FORWARD) == 1


def test_lambda_norm_at_r_2_needs_only_the_second_order_inverse_transforms(
    transform_log,
):
    # The |v|_{1,2} seminorm comes from the coefficients by Parseval.
    field, _ = _spatial(GRIDS[3], 3, seed=5)
    lambda_norm(field, 0.7, 4.0, 2.0)
    assert _calls(transform_log)["irfftn"] == 6
    transform_log.clear()
    lambda_norm(field, 0.7, 4.0, 1.5)
    assert _calls(transform_log)["irfftn"] == 9


def test_maxreg_transform_count_is_independent_of_time_samples(transform_log):
    field = _time_periodic(GRIDS[3], 3, max_mode=2, seed=6)
    counts = {}
    for nt in (12, 48):
        transform_log.clear()
        _maxreg_norm(field, 4.0, nt)
        counts[nt] = sum(_calls(transform_log).values())
    assert counts[12] == counts[48] > 0


def test_r2_negative_norm_makes_one_forward_real_transform(transform_log):
    field, _ = _spatial(GRIDS[3], 3, seed=7)
    norms.negative_norm_surrogate(field, 2.0)
    assert dict(_calls(transform_log)) == {"rfftn": 1}
