"""The package's transform binding against ``scipy.fft``, and its import cost.

``oseenlab.fields`` calls scipy's pocketfft extension itself, with the
arguments that ``scipy.fft``'s n-d functions pass it.  Every result here must
equal ``scipy.fft``'s at ``norm="forward"`` bit for bit (``==``, no
tolerance).  ``scipy.fft`` is imported in this test module only.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from oseenlab import fields
from oseenlab.fields import GridSpec, _fftn, _ifftn, _irfftn, _rfftn

SRC = Path(__file__).resolve().parent.parent / "src"

# (array shape, transformed trailing axes)
CASES = [
    ((3, 16, 16, 16), 3),
    ((24, 24, 24), 3),
    ((2, 3, 32, 32, 32), 3),
    ((128, 128), 2),
    ((5, 1, 24, 24, 24), 3),
]


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def workers(request):
    before = fields.get_fft_workers()
    fields.set_fft_workers(request.param)
    yield request.param
    fields.set_fft_workers(before)


def _reference(name, array, dim, workers, **options):
    axes = tuple(range(-dim, 0))
    return getattr(scipy.fft, name)(
        array, axes=axes, norm="forward", workers=workers, **options
    )


def _real(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def _complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_same(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("shape, dim", CASES)
def test_forward_transforms_equal_scipy_fft(shape, dim, workers):
    values = _real(shape, 1)
    _assert_same(_fftn(values, dim), _reference("fftn", values, dim, workers))
    _assert_same(_rfftn(values, dim), _reference("rfftn", values, dim, workers))
    spectrum = _complex(shape, 2)
    _assert_same(_fftn(spectrum, dim), _reference("fftn", spectrum, dim, workers))


@pytest.mark.parametrize("shape, dim", CASES)
def test_inverse_transforms_equal_scipy_fft(shape, dim, workers):
    coeff = _complex(shape, 3)
    expected = _reference("ifftn", coeff, dim, workers)
    result = _ifftn(coeff, dim)
    _assert_same(result, expected)
    assert not np.shares_memory(result, coeff)
    overwritten = coeff.copy()
    result = _ifftn(overwritten, dim, overwrite_x=True)
    reference = _reference("ifftn", coeff.copy(), dim, workers, overwrite_x=True)
    _assert_same(result, reference)
    # As in scipy.fft, overwrite_x on a complex input transforms it in place.
    assert np.shares_memory(result, overwritten)
    half = _rfftn(_real(shape, 4), dim) * (1.0 + 0.5j)
    grid_shape = shape[-dim:]
    _assert_same(
        _irfftn(half, grid_shape),
        _reference("irfftn", half, dim, workers, s=grid_shape),
    )


def test_swapped_axes_views_equal_scipy_fft(workers):
    # _maxreg_norm hands the transforms (ncomp, nt) views of (nt, ncomp) stacks.
    basis = _real((4, 3, 16, 16, 16), 5)
    view = basis.swapaxes(0, 1)
    _assert_same(_rfftn(view, 3), _reference("rfftn", view, 3, workers))
    _assert_same(_fftn(view, 3), _reference("fftn", view, 3, workers))
    coeff = _rfftn(basis, 3).swapaxes(0, 1)
    for part in coeff:
        _assert_same(
            _irfftn(part, (16, 16, 16)),
            _reference("irfftn", part, 3, workers, s=(16, 16, 16)),
        )
    spectrum = _complex((4, 3, 16, 16, 16), 6).swapaxes(0, 1)
    _assert_same(_ifftn(spectrum, 3), _reference("ifftn", spectrum, 3, workers))


# Grid shapes on which the transforms of a field's samples must not depend
# on a leading unit axis, the component axis of a scalar field.
UNIT_AXIS_SHAPES = [
    (10,) * 3, (16,) * 3, (18,) * 3, (24,) * 3, (32,) * 3, (64,) * 3, (128,) * 2
]


@pytest.mark.parametrize("shape", UNIT_AXIS_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_a_leading_unit_axis_leaves_every_bit(shape, workers):
    dim = len(shape)
    values, coeff = _real(shape, 7), _complex(shape, 8)
    half = _rfftn(_real(shape, 9), dim)
    for transform, x in (
        (lambda a: _fftn(a, dim), values),
        (lambda a: _rfftn(a, dim), values),
        (lambda a: _ifftn(a, dim), coeff),
        (lambda a: _irfftn(a, shape), half),
    ):
        _assert_same(transform(x[None]), transform(x)[None])


@pytest.mark.parametrize("n", range(2, 129, 2))
def test_mode_numbers_equal_the_fftfreq_integers(n):
    expected = np.rint(scipy.fft.fftfreq(n) * n).astype(np.int64)
    _assert_same(GridSpec(2, 1.0, n).mode_numbers, expected)


def test_loader_falls_back_to_scipy_fft_without_the_extension_file(monkeypatch):
    monkeypatch.setattr(fields.importlib.machinery, "EXTENSION_SUFFIXES", [])
    assert fields._load_pocketfft() is scipy.fft._pocketfft.pypocketfft


def test_import_loads_neither_scipy_fft_nor_scipy_special():
    # A module-level import of either would bring back about 26 MB of
    # resident memory per process; module presence only, no timing.
    script = (
        "import sys, oseenlab, oseenlab.cli\n"
        "print(sorted({'scipy.fft', 'scipy.special'} & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    child = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
