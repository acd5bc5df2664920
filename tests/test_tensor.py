import numpy as np
import pytest

from mixnet import tensor as T
from mixnet.errors import ParameterError, ShapeError


def test_wraps_lists_as_float32():
    t = T.Tensor([[1, 2], [3, 4]])
    assert t.dtype == np.float32
    assert t.shape == (2, 2)
    np.testing.assert_array_equal(t.data, [[1, 2], [3, 4]])


def test_float64_arrays_keep_their_dtype():
    t = T.Tensor(np.ones((3,), dtype=np.float64))
    assert t.dtype == np.float64


def test_integer_input_becomes_float32():
    t = T.Tensor(np.arange(4, dtype=np.int64))
    assert t.dtype == np.float32


def test_scalar_tensors_allowed():
    t = T.Tensor(3.5)
    assert t.shape == ()
    assert float(t.data) == 3.5


def test_validate_shape_rejects_bad_extents():
    with pytest.raises(ShapeError):
        T.validate_shape((2, 0, 3))
    with pytest.raises(ShapeError):
        T.validate_shape((-1,))
    assert T.validate_shape((4, 5)) == (4, 5)


def test_validate_shape_overflow_guard():
    with pytest.raises(ShapeError):
        T.validate_shape((1 << 21, 1 << 21))


def test_zeros():
    z = T.zeros((2, 3))
    assert isinstance(z, np.ndarray)
    assert z.shape == (2, 3)
    assert z.dtype == np.float32
    assert not z.any()


def test_he_init_deterministic_and_scaled():
    a = T.he_init((5000,), fan_in=50, seed=7)
    b = T.he_init((5000,), fan_in=50, seed=7)
    c = T.he_init((5000,), fan_in=50, seed=8)
    assert isinstance(a, np.ndarray) and a.dtype == np.float32
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # std should be near sqrt(2/50) = 0.2
    assert abs(a.std() - 0.2) < 0.01
    assert abs(a.mean()) < 0.01


def test_he_init_rejects_bad_fan_in():
    with pytest.raises(ParameterError):
        T.he_init((3, 3), fan_in=0, seed=1)


def test_derive_seed_is_stable_and_sensitive():
    s1 = T.derive_seed("layer", 3, "weight")
    s2 = T.derive_seed("layer", 3, "weight")
    s3 = T.derive_seed("layer", 4, "weight")
    assert s1 == s2
    assert s1 != s3
    assert 0 <= s1 < 2 ** 64
    # string/int arguments must not collide
    assert T.derive_seed("3") != T.derive_seed(3)


def test_derive_seed_folds_an_integer_by_its_value():
    assert T.derive_seed(4) == 18320664322583595312      # the value it has always had
    assert T.derive_seed(np.int64(4)) == T.derive_seed(np.uint8(4)) == T.derive_seed(4)
    assert type(T.derive_seed(np.int64(4), "params")) is int


def test_check_finite_flag():
    # a Tensor never scans its values: the trainer checks the loss and the
    # optimizer the gradients, so NaNs pass through construction untouched
    t = T.Tensor([np.nan, 1.0])
    assert np.isnan(t.data[0])
