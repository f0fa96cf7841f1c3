"""Binary field container round trips."""

from __future__ import annotations

import numpy as np
import pytest

from oseenlab.fields import GridSpec, ScalarField, VectorField
from oseenlab.io import load_field, save_field

from conftest import trig_scalar, trig_vector


def test_scalar_round_trip_is_bit_exact(tmp_path, grid2):
    field = trig_scalar(grid2, 1)
    path = tmp_path / "scalar.field"
    save_field(path, field)
    back = load_field(path)
    assert isinstance(back, ScalarField)
    assert back.grid == grid2
    assert np.array_equal(back.values, field.values)


def test_vector_round_trip_is_bit_exact(tmp_path, grid3):
    field = trig_vector(grid3, 2)
    path = tmp_path / "vector.field"
    save_field(path, field)
    back = load_field(path)
    assert isinstance(back, VectorField)
    assert back.grid == grid3
    assert np.array_equal(back.components, field.components)


def test_header_preserves_grid_metadata(tmp_path):
    grid = GridSpec(2, 2.75, 12)
    field = trig_scalar(grid, 3)
    path = tmp_path / "meta.field"
    save_field(path, field)
    back = load_field(path)
    assert back.grid.dim == 2
    assert back.grid.points_per_axis == 12
    assert back.grid.half_period == 2.75


def test_truncated_header_raises(tmp_path):
    path = tmp_path / "short.field"
    path.write_bytes(b"\x02\x00\x00")
    with pytest.raises(ValueError, match="truncated header"):
        load_field(path)


def test_truncated_payload_raises(tmp_path, grid2):
    path = tmp_path / "chopped.field"
    save_field(path, trig_scalar(grid2, 5))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 16])
    with pytest.raises(ValueError, match="truncated payload"):
        load_field(path)


def test_bad_component_count_raises(tmp_path, grid2):
    import struct

    path = tmp_path / "badcomp.field"
    header = struct.pack("<qqdq", 2, grid2.points_per_axis, grid2.half_period, 5)
    path.write_bytes(header + b"\x00" * 64)
    with pytest.raises(ValueError, match="component count"):
        load_field(path)
