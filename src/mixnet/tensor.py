"""Shape algebra and deterministic initialization.

Conventions used throughout the package:

* activations are laid out batch-first, channels-last: (N, H, W, C)
* convolution kernels are (k, k, in_channels, out_channels), k odd, run
  at one integer dilation d with (k - 1) * d / 2 zeros of padding a side
* values are float32; verification code may build float64 arrays, and
  every operation preserves the dtype it is given
* reductions (sums, means, losses) accumulate in float64 before casting
  back, so the finite-difference checks are not drowned in rounding noise

Every value of the computation graph is an ``autodiff.Node``, and the
array rule a node applies (dtype, contiguity, ``validate_shape``) lives
in ``autodiff`` with it.  This module draws and names the arrays that
become parameters.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .autodiff import DEFAULT_DTYPE, Node, validate_shape
from .records import check_count

# perfbench/tracer.py counts graph values (tensor.constructed) by patching
# Tensor.__init__; the name goes once a timing hook in autodiff replaces it
Tensor = Node


def zeros(shape) -> np.ndarray:
    """All-zero float32 array of the given shape."""
    return np.zeros(validate_shape(shape), dtype=DEFAULT_DTYPE)


def he_init(shape, fan_in: int, seed: int) -> np.ndarray:
    """Zero-mean Gaussian with variance 2/fan_in, the standard scaling for
    deep ReLU stacks, in float32.  Bit-identical for identical seeds."""
    shape = validate_shape(shape)
    check_count(fan_in, "fan_in")
    rng = np.random.Generator(np.random.PCG64(seed))
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(DEFAULT_DTYPE)


def derive_seed(*parts) -> int:
    """Fold a tuple of strings and integers >= 0 into a stable 64-bit seed.

    Used to give every parameter, subject and augmentation draw its own
    reproducible stream: same parts, same seed (an integer by its value).
    """
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p if isinstance(p, str) else check_count(p, "seed", least=0)).encode())
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "little")
