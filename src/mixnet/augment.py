"""Slice augmentation with plane-specific policies.

Transverse slices carry most of the anatomical variation, so they get
the full treatment; the two other planes only get the cheap, safe ops.
Per source slice:

* transverse: the original, 4 rescales (0.9, 0.95, 1.05, 1.1), 7
  rotations about the image center (45 .. 315 degrees in 45 degree
  steps), 1 elastic deformation, 1 random translation and 1 horizontal
  flip - 15 slices out per slice in.
* sagittal / coronal: the original, 1 random translation and 1
  horizontal flip - 3 out per in.

Every augmented slice is generated from an original slice, never from
another augmented one.  Images are resampled bilinearly, label maps
with nearest neighbour; geometric ops fill uncovered pixels with zero
(background), while the elastic warp clamps at the edges so it never
invents background inside the head.  Rotation angles use an exact
cos/sin table, which makes the 90/180/270 degree cases exact pixel
permutations instead of interpolation victims.

Randomized ops (translation, elastic) draw from a stream seeded by
(global seed, slice index, op tag): the expansion is reproducible and
independent of processing order.  So ``expand_slices`` returns views
that build a slice each time it is indexed: training holds only the
source slices, and pays for augmentation in every epoch's steps.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from .errors import DataError, PolicyError
from .tensor import derive_seed

SCALES = (0.9, 0.95, 1.05, 1.1)
ROTATIONS = (45, 90, 135, 180, 225, 270, 315)
ELASTIC_ALPHA = 10.0
ELASTIC_SIGMA = 4.0
TRANSLATE_FRACTION = 0.15

_HALF_SQRT2 = np.sqrt(2.0) / 2.0
# exact unit-circle table: no cos(pi/2) = 6e-17 artifacts
_TRIG = {
    0: (1.0, 0.0), 45: (_HALF_SQRT2, _HALF_SQRT2), 90: (0.0, 1.0),
    135: (-_HALF_SQRT2, _HALF_SQRT2), 180: (-1.0, 0.0),
    225: (-_HALF_SQRT2, -_HALF_SQRT2), 270: (0.0, -1.0),
    315: (_HALF_SQRT2, -_HALF_SQRT2),
}


def policy_ops(policy: str) -> tuple:
    """The op list for a named policy ('full' or 'light')."""
    if policy == "full":
        return (("identity",),
                *(("scale", s) for s in SCALES),
                *(("rotate", a) for a in ROTATIONS),
                ("elastic",), ("translate",), ("flip",))
    if policy == "light":
        return (("identity",), ("translate",), ("flip",))
    raise PolicyError(f"unknown augmentation policy {policy!r}")


def policy_for_plane(plane: str) -> str:
    if plane == "transverse":
        return "full"
    if plane in ("sagittal", "coronal"):
        return "light"
    raise PolicyError(f"unknown plane {plane!r}")


# ---------------------------------------------------------------------------
# individual ops; image (H, W, C) float, label (H, W) int


def _sample_at(image: np.ndarray, label: np.ndarray, coords, mode: str):
    """Resample an image stack (bilinear) and its labels (nearest) at
    the given source coordinates; ``mode="constant"`` fills with zero."""
    out_img = np.empty_like(image)
    for c in range(image.shape[2]):
        out_img[:, :, c] = map_coordinates(image[:, :, c], coords, order=1,
                                           mode=mode, cval=0.0)
    out_lab = map_coordinates(label, coords, order=0, mode=mode, cval=0)
    return out_img, out_lab.astype(label.dtype)


def _center_grid(h: int, w: int):
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    return yy - cy, xx - cx, cy, cx


def rotate_slice(image, label, degrees: int):
    """Rotation about the image center by a multiple of 45 degrees."""
    deg = int(degrees) % 360
    if deg not in _TRIG:
        raise PolicyError(f"rotation angle must be a multiple of 45, got {degrees}")
    cos, sin = _TRIG[deg]
    yy, xx, cy, cx = _center_grid(*label.shape)
    # inverse map: output pixel pulls from the source rotated by -angle
    src_y = cos * yy + sin * xx + cy
    src_x = -sin * yy + cos * xx + cx
    return _sample_at(image, label, (src_y, src_x), mode="constant")


def scale_slice(image, label, factor: float):
    """Rescale about the center; > 1 zooms in, < 1 shrinks (zero border)."""
    if factor <= 0:
        raise PolicyError(f"scale factor must be positive, got {factor}")
    yy, xx, cy, cx = _center_grid(*label.shape)
    src_y = yy / factor + cy
    src_x = xx / factor + cx
    return _sample_at(image, label, (src_y, src_x), mode="constant")


def translate_slice(image, label, dy: int, dx: int):
    """Integer pixel shift with zero fill; exact, no resampling."""
    h, w = label.shape
    out_img = np.zeros_like(image)
    out_lab = np.zeros_like(label)
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    yd = slice(max(-dy, 0), min(h - dy, h))
    xd = slice(max(-dx, 0), min(w - dx, w))
    out_img[ys, xs] = image[yd, xd]
    out_lab[ys, xs] = label[yd, xd]
    return out_img, out_lab


def flip_slice(image, label):
    """Left-right mirror."""
    return image[:, ::-1].copy(), label[:, ::-1].copy()


def elastic_slice(image, label, rng: np.random.Generator,
                  alpha: float = ELASTIC_ALPHA, sigma: float = ELASTIC_SIGMA):
    """Smooth random warp: uniform noise fields blurred with a Gaussian
    and scaled by alpha give the per-pixel displacement."""
    h, w = label.shape
    dy = alpha * gaussian_filter(rng.uniform(-1, 1, size=(h, w)), sigma,
                                 mode="constant", cval=0.0)
    dx = alpha * gaussian_filter(rng.uniform(-1, 1, size=(h, w)), sigma,
                                 mode="constant", cval=0.0)
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    # clamp at the borders: a warp should not pull zeros into the head
    return _sample_at(image, label, (yy + dy, xx + dx), mode="nearest")


def apply_op(image, label, op: tuple, rng: np.random.Generator):
    kind = op[0]
    if kind == "identity":
        return image.copy(), label.copy()
    if kind == "scale":
        return scale_slice(image, label, op[1])
    if kind == "rotate":
        return rotate_slice(image, label, op[1])
    if kind == "flip":
        return flip_slice(image, label)
    if kind == "translate":
        h, w = label.shape
        max_dy = max(int(round(TRANSLATE_FRACTION * h)), 1)
        max_dx = max(int(round(TRANSLATE_FRACTION * w)), 1)
        dy = int(rng.integers(-max_dy, max_dy + 1))
        dx = int(rng.integers(-max_dx, max_dx + 1))
        return translate_slice(image, label, dy, dx)
    if kind == "elastic":
        return elastic_slice(image, label, rng)
    raise PolicyError(f"unknown augmentation op {op!r}")


# ---------------------------------------------------------------------------
# dataset expansion


class _Expansion:
    """The source stack, the policy's ops and the seed shared by the image
    and label views of one expansion, plus one batch computed for one
    view and not yet taken by the other."""

    def __init__(self, images, labels, ops, seed):
        self.images, self.labels = images, labels
        self.ops, self.seed = ops, seed
        self.pending = None          # (index bytes, view part, array)

    def slices(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Augmented slices ``idx`` (non-negative, in range), images and
        labels: slice i * k + o is op o applied to source slice i."""
        k = len(self.ops)
        img = np.empty((idx.size,) + self.images.shape[1:], dtype=self.images.dtype)
        lab = np.empty((idx.size,) + self.labels.shape[1:], dtype=self.labels.dtype)
        for pos, j in enumerate(idx.tolist()):
            i, o = divmod(j, k)
            op = self.ops[o]
            rng = np.random.Generator(np.random.PCG64(derive_seed(self.seed, i, op[0])))
            img[pos], lab[pos] = apply_op(self.images[i], self.labels[i], op, rng)
        return img, lab

    def take(self, part: int, idx: np.ndarray) -> np.ndarray:
        """View ``part``'s slices ``idx``.  A batch is computed for both
        views at once; the other view's half waits here until that view
        asks for the same indices (``Trainer`` reads images[idx], then
        labels[idx]) or any other batch is computed."""
        key = idx.tobytes()
        if self.pending is not None and self.pending[:2] == (key, part):
            out, self.pending = self.pending[2], None
            return out
        both = self.slices(idx)
        self.pending = (key, 1 - part, both[1 - part])
        return both[part]


class AugmentedSlices:
    """Read-only view of one half (images or labels) of an augmented
    stack that builds each slice when it is indexed.

    Indexing takes an int, a slice or an integer array along the slice
    axis and returns a new ndarray; ``np.asarray`` materialises the whole
    stack.  ``nbytes`` counts the source half the view holds, not the
    stack it stands for."""

    def __init__(self, expansion: _Expansion, part: int):
        self._expansion = expansion
        self._part = part
        self._source = (expansion.images, expansion.labels)[part]
        self.shape = (self._source.shape[0] * len(expansion.ops),) + \
            self._source.shape[1:]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def dtype(self):
        return self._source.dtype

    @property
    def nbytes(self) -> int:
        return self._source.nbytes

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index) -> np.ndarray:
        n = self.shape[0]
        if isinstance(index, (int, np.integer)):
            if not -n <= index < n:
                raise IndexError(f"index {index} out of range for {n} slices")
            return self._expansion.take(self._part, np.array([index % n]))[0]
        if isinstance(index, slice):
            idx = np.arange(n)[index]
        else:
            idx = None if isinstance(index, tuple) else np.asarray(index)
            if idx is None or idx.ndim != 1 or not (
                    idx.size == 0 or np.issubdtype(idx.dtype, np.integer)):
                raise IndexError("augmented slices take an int, a slice or a 1-D "
                                 "integer array along the slice axis")
            if idx.size and (idx.min() < -n or idx.max() >= n):
                raise IndexError(f"index out of range for {n} slices")
            idx = idx.astype(np.int64) % n
        return self._expansion.take(self._part, idx)

    def __array__(self, dtype=None, copy=None):
        out = self._expansion.slices(np.arange(self.shape[0]))[self._part]
        return out if dtype is None else out.astype(dtype, copy=False)


def expand_slices(images: np.ndarray, labels: np.ndarray, policy: str,
                  seed: int = 0) -> tuple[AugmentedSlices, AugmentedSlices]:
    """Augment a slice stack (S, H, W, C) + (S, H, W) under a policy.

    Returns image and label views of the expanded stack, which compute
    slices when indexed: slice i of the input produces the block
    [i * k, (i + 1) * k) of the output, k = len(policy_ops(policy)), in
    the canonical op order.  Every slice is a pure function of (seed,
    source slice, op), so the views equal the stack they stand for.
    The views read the given arrays; do not change them afterwards.
    """
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.ndim != 4 or labels.shape != images.shape[:3]:
        raise DataError(f"bad slice stack: images {images.shape}, "
                        f"labels {labels.shape}")
    expansion = _Expansion(images, labels, policy_ops(policy), seed)
    return AugmentedSlices(expansion, 0), AugmentedSlices(expansion, 1)
