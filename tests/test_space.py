import numpy as np
import pytest

from blockvi.errors import InvalidParameter, ShapeMismatch
from blockvi.space import BlockShape, SpacePoint


def test_vector_shape_roundtrip():
    x = SpacePoint([1.0, 2.0, 3.0])
    assert x.dim == 3
    assert x.shape == BlockShape.vector(3)
    np.testing.assert_array_equal(x.block(0), [1.0, 2.0, 3.0])


def test_image_shape_from_2d():
    img = np.arange(6.0).reshape(2, 3)
    x = SpacePoint(img)
    assert x.shape == BlockShape.image(2, 3)
    np.testing.assert_array_equal(x.block(0), img)


def test_product_space_blocks():
    x = SpacePoint.of_blocks([np.ones(3), np.zeros((2, 2))])
    assert x.shape.lengths == (3, 4)
    assert x.shape.extents == (None, (2, 2))
    assert x.block(1).shape == (2, 2)


def test_nonfinite_rejected():
    with pytest.raises(InvalidParameter):
        SpacePoint([1.0, np.nan])
    with pytest.raises(InvalidParameter):
        SpacePoint([np.inf, 0.0])


def test_empty_shape_rejected():
    with pytest.raises(InvalidParameter):
        BlockShape(())


def test_arithmetic_requires_same_shape():
    x = SpacePoint([1.0, 2.0])
    y = SpacePoint(np.zeros((1, 2)))
    assert x.shape != y.shape
    with pytest.raises(ShapeMismatch):
        _ = x + y


def test_data_is_immutable():
    x = SpacePoint([1.0, 2.0])
    with pytest.raises(ValueError):
        x.data[0] = 5.0


def test_inner_and_norm():
    x = SpacePoint([3.0, 4.0])
    assert x.norm() == 5.0
    assert x.inner(SpacePoint([1.0, 1.0])) == 7.0


def test_extent_length_consistency_enforced():
    with pytest.raises(InvalidParameter):
        BlockShape((4,), ((2, 3),))
