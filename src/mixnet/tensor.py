"""Dense float tensors, shape algebra and deterministic initialization.

Conventions used throughout the package:

* activations are laid out batch-first, channels-last: (N, H, W, C)
* convolution kernels are (kh, kw, in_channels, out_channels)
* values are float32; verification code may build float64 tensors, and
  every operation preserves the dtype it is given
* reductions (sums, means, losses) accumulate in float64 before casting
  back, so the finite-difference checks are not drowned in rounding noise

Every value of the computation graph is a Tensor: ``autodiff.Node``
subclasses it, so a node's constructor applies the validation,
contiguity and dtype rule below to the array an op computed.  Values
are treated as immutable once constructed, except parameter buffers:
the optimizer updates them in place, and ``arch.embed_v3_into_v1``
writes its blocks into a freshly built network's buffers.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ParameterError, ShapeError

DEFAULT_DTYPE = np.float32

# Generous ceiling; anything past this is a bookkeeping bug, not a tensor.
MAX_ELEMENTS = 1 << 40


def validate_shape(dims) -> tuple[int, ...]:
    """Check that every extent is a positive integer and the element count
    cannot overflow; return the shape as a plain tuple."""
    shape = tuple(int(d) for d in dims)
    count = 1
    for d in shape:
        if d < 1:
            raise ShapeError(f"shape {shape} has a non-positive extent")
        count *= d
        if count > MAX_ELEMENTS:
            raise ShapeError(f"shape {shape} exceeds {MAX_ELEMENTS} elements")
    return shape


class Tensor:
    """A dense n-dimensional float array with validated shape.

    Wraps a contiguous row-major numpy buffer.  Scalars are allowed as
    zero-dimensional tensors (shape ``()``).
    """

    __slots__ = ("data",)

    def __init__(self, data):
        keep = isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64)
        arr = np.asarray(data, dtype=data.dtype if keep else DEFAULT_DTYPE)
        if arr.ndim > 0:
            # keep 0-d scalars 0-d; ascontiguousarray would promote them
            arr = np.ascontiguousarray(arr)
            validate_shape(arr.shape)
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


def zeros(shape) -> np.ndarray:
    """All-zero float32 array of the given shape."""
    return np.zeros(validate_shape(shape), dtype=DEFAULT_DTYPE)


def he_init(shape, fan_in: int, seed: int) -> np.ndarray:
    """Zero-mean Gaussian with variance 2/fan_in, the standard scaling for
    deep ReLU stacks, in float32.  Bit-identical for identical seeds."""
    shape = validate_shape(shape)
    if fan_in < 1:
        raise ParameterError(f"fan_in must be >= 1, got {fan_in}")
    rng = np.random.Generator(np.random.PCG64(seed))
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(DEFAULT_DTYPE)


def derive_seed(*parts) -> int:
    """Fold an arbitrary tuple of ints/strings into a stable 64-bit seed.

    Used to give every parameter, subject and augmentation draw its own
    reproducible stream: same parts, same seed, on any platform.
    """
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "little")
