"""The spectrum a spatial field owns: ``SpatialField.coefficients`` is taken
once, read-only, by every steady norm, derivative and convective product, and
``SpatialField._from_coefficients`` keeps the spectrum it is given."""

from __future__ import annotations

import numpy as np
import pytest

from oseenlab.fields import (
    SpatialField,
    _irfftn,
    _rfftn,
    derivative,
    divergence,
    gradient,
)
from oseenlab.nonlinear import convective_product
from oseenlab.norms import (
    lambda_norm,
    negative_norm_surrogate,
    sobolev_full_norm,
    sobolev_seminorm,
)

from conftest import trig_scalar, trig_vector

FORWARD = {"fftn", "rfftn", "fft", "rfft"}


def _forward_transforms_of(transform_log, field: SpatialField) -> int:
    """Forward transforms in the log whose input is ``field``'s samples, in
    any shape (a scalar's samples may come without their component axis)."""
    values = field.components
    return sum(
        1
        for name, x in transform_log
        if name in FORWARD
        and x.size == values.size
        and np.array_equal(x.reshape(values.shape), values)
    )


def test_every_steady_read_shares_one_forward_transform(grid3, transform_log):
    field = trig_vector(grid3, 11, max_mode=3, terms=8)
    other = trig_vector(grid3, 12, max_mode=3, terms=8)
    lambda_norm(field, 0.7, 4.0, 2.0)
    for k, q in ((1, 2.0), (1, 3.0), (2, 4.0)):
        sobolev_seminorm(field, k, q)
    sobolev_full_norm(field, 2, 4.0)
    negative_norm_surrogate(field, 2.0)
    derivative(field, 1)
    divergence(field)
    convective_product(field, other)
    convective_product(other, field)
    assert _forward_transforms_of(transform_log, field) == 1
    assert _forward_transforms_of(transform_log, other) == 1


def test_a_scalar_read_by_gradient_and_seminorm_is_transformed_once(
    grid3, transform_log
):
    field = trig_scalar(grid3, 13)
    gradient(field)
    sobolev_seminorm(field, 1, 4.0)
    gradient(field)
    assert _forward_transforms_of(transform_log, field) == 1


def test_coefficients_are_the_read_only_real_transform(grid3):
    field = trig_vector(grid3, 14)
    coeff = field.coefficients
    assert np.array_equal(coeff, _rfftn(field.components, grid3.dim))
    assert coeff.shape == (3, 16, 16, 9)
    assert field.coefficients is coeff
    with pytest.raises(ValueError, match="read-only"):
        coeff[0, 0, 0, 0] = 1.0


def test_the_constructor_keeps_no_caller_array_and_sums_start_bare(grid3):
    values = trig_vector(grid3, 15).components.copy()
    field = SpatialField(grid3, values)
    field.coefficients
    assert values.flags.writeable
    assert not np.shares_memory(field.components, values)
    assert not np.shares_memory(field.coefficients, values)
    for result in (field + field, field - field, 2.0 * field, -field):
        assert "coefficients" not in vars(result)


def test_from_coefficients_keeps_the_very_array_locked(grid3):
    coeff = _rfftn(trig_vector(grid3, 16).components, grid3.dim)
    field = SpatialField._from_coefficients(grid3, coeff)
    assert field.coefficients is coeff
    assert not coeff.flags.writeable
    assert np.array_equal(field.components, _irfftn(coeff, grid3.shape))
    assert not field.components.flags.writeable
