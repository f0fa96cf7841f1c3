"""Shared fixtures and FFT-free field builders for the test suite.

The builders here synthesize band-limited fields directly from cosines so
that test inputs never depend on the transform code under test.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from oseenlab import fields
from oseenlab.fields import GridSpec, SpatialField


def trig_values(grid: GridSpec, seed: int, max_mode: int = 3, terms: int = 12) -> np.ndarray:
    """Random band-limited scalar samples built from explicit cosines."""
    rng = np.random.default_rng(seed)
    coords = grid.coordinates()
    scale = grid.half_period
    values = np.zeros(grid.shape)
    for _ in range(terms):
        modes = rng.integers(-max_mode, max_mode + 1, size=grid.dim)
        amplitude = rng.normal()
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = np.zeros(grid.shape)
        for axis in range(grid.dim):
            arg = arg + (modes[axis] / scale) * coords[axis]
        values = values + amplitude * np.cos(arg + phase)
    return values


def trig_scalar(grid: GridSpec, seed: int, max_mode: int = 3, terms: int = 12) -> SpatialField:
    return SpatialField(grid, trig_values(grid, seed, max_mode, terms)[None])


def trig_vector(grid: GridSpec, seed: int, max_mode: int = 3, terms: int = 12) -> SpatialField:
    values = np.stack(
        [trig_values(grid, seed + 101 * c, max_mode, terms) for c in range(grid.dim)]
    )
    return SpatialField(grid, values)


def zero_field(grid: GridSpec, ncomp: int) -> SpatialField:
    """The zero field with ``ncomp`` components (1: scalar, dim: vector)."""
    return SpatialField(grid, np.zeros((ncomp,) + grid.shape))


@pytest.fixture
def grid2() -> GridSpec:
    return GridSpec(2, np.pi, 32)


@pytest.fixture
def grid3() -> GridSpec:
    return GridSpec(3, np.pi, 16)


@pytest.fixture
def transform_log(monkeypatch) -> list:
    """(name, input) of every transform call, named as in ``scipy.fft``.

    The package's pocketfft handle is wrapped: ``c2c`` is logged as ``fftn``
    or ``ifftn`` by its forward flag, ``r2c`` as ``rfftn`` and ``c2r`` as
    ``irfftn``.  The ``numpy.fft`` functions (the time DFT) keep their names.
    """
    log: list = []

    def recording(original, name_of):
        def wrapper(x, *args, **kwargs):
            log.append((name_of(args), np.asarray(x)))
            return original(x, *args, **kwargs)

        return wrapper

    extension = fields._pocketfft
    handle = types.SimpleNamespace(
        c2c=recording(extension.c2c, lambda args: "fftn" if args[1] else "ifftn"),
        r2c=recording(extension.r2c, lambda args: "rfftn"),
        c2r=recording(extension.c2r, lambda args: "irfftn"),
    )
    monkeypatch.setattr(fields, "_pocketfft", handle)
    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, recording(original, lambda args, n=name: n))
    return log
