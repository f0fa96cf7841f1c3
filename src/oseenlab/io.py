"""Flat binary container for one spatial field.

The payload is the field's ``components`` array as stored, (ncomp,) +
grid.shape with ncomp 1 or dim, so a field reads back bit for bit.

Binary layout (all little-endian, in file order):

=========  ========  =======================================
offset     type      meaning
=========  ========  =======================================
0          int64     dim (2 or 3)
8          int64     N, points per axis
16         float64   L, the half_period length scale
24         int64     component count (1 scalar, dim vector)
32         float64   payload: ncomp * N**dim samples,
                     row-major (C order), component-major
=========  ========  =======================================

The dealias fraction is a package constant and is not serialized.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .fields import GridSpec, SpatialField

_HEADER = struct.Struct("<qqdq")


def save_field(path, field: SpatialField) -> None:
    """Write a field to ``path`` in the flat binary container format."""
    grid = field.grid
    payload = field.components
    header = _HEADER.pack(
        grid.dim, grid.points_per_axis, grid.half_period, payload.shape[0]
    )
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


def load_field(path) -> SpatialField:
    """Read a field written by :func:`save_field`."""
    with open(path, "rb") as handle:
        raw = handle.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        dim, n, half_period, ncomp = _HEADER.unpack(raw)
        grid = GridSpec(
            dim=int(dim),
            half_period=float(half_period),
            points_per_axis=int(n),
        )
        if ncomp not in (1, grid.dim):
            raise ValueError(f"{path}: invalid component count {ncomp}")
        count = int(ncomp) * grid.points_per_axis ** grid.dim
        # Checked before reading, so a header's oversized N asks for no read.
        if os.fstat(handle.fileno()).st_size - handle.tell() < count * 8:
            raise ValueError(f"{path}: truncated payload")
        payload = np.frombuffer(handle.read(count * 8), dtype="<f8")
    data = payload.reshape((int(ncomp),) + grid.shape).astype(np.float64)
    return SpatialField._adopt(grid, data)
