"""Segmentation quality metrics and evaluation reports.

Per foreground class: Dice overlap, 95th percentile symmetric surface
distance (HD95, millimetres) and volumetric similarity.

A surface voxel is a mask voxel with at least one of its six face
neighbours outside the mask; the volume boundary counts as outside.
The distance from a surface voxel of one mask to the other mask is the
minimum over the other mask's surface voxels of

    d(i, j) = sqrt(((dst_j - src_i) * spacing)[0]^2
                 + ((dst_j - src_i) * spacing)[1]^2
                 + ((dst_j - src_i) * spacing)[2]^2)

in float64 with that expression order pinned: integer voxel deltas
first, scaled per axis, squares summed in axis order.  A directed 95th
percentile is the nearest-rank value (index ceil(0.95 n) - 1 of the
sorted distances), and HD95 is the max of the two directed percentiles.
Distances are undefined for empty masks and reported as missing rather
than faked with a sentinel.

HD95 equals, bit for bit, what a scan over all surface pairs gives, at
the cost of two distance transforms instead of O(|surface A| *
|surface B|).  Write d2 for the pinned squared distance (sqrt is
monotone, so minima and ranks can be taken on d2) and eps = 1e-9:

1. The exact Euclidean distance transform of Maurer et al. (IEEE TPAMI
   2003), ``scipy.ndimage.distance_transform_edt`` of the destination
   surface's complement with the spacing as sampling, names a nearest
   destination voxel for every source voxel.  The d2 to that voxel is
   never below the pinned minimum (it is one of the candidates) and at
   most a factor 1 + eps above it: the transform's voxel is nearest up
   to double rounding, which is far below eps.
2. Let v be the nearest-rank value of those d2; the wanted value lies
   in [v(1 - eps), v].  An entry below v(1 - eps) stays below it, and an
   entry above v(1 + 2 eps) has its minimum above v, so only the nonzero
   entries inside that band can decide the rank.
3. A band entry e can only be lowered by an offset whose pinned d2 lies
   in [e(1 - eps), e).  A table of integer offset magnitudes near v
   lists those, and each of their 8 sign flips is tested against the
   destination surface.  Negating a delta negates its scaled terms
   exactly, so the pinned d2 depends on the magnitudes alone.

Replacing each band entry by its minimum and ranking again gives the
all-pairs value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np
from scipy import ndimage

from .errors import DataError, ParameterError
from .records import check_labels
from .volume import check_classes, check_spacing

DEFAULT_WEIGHTS = (1.0, 1.0, 1.0)  # dice, distance term, volumetric similarity


def _mask_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two masks as bool arrays of one shape."""
    a = np.asarray(a, bool)
    b = np.asarray(b, bool)
    if a.shape != b.shape:
        raise DataError(f"mask shapes differ: {a.shape} vs {b.shape}")
    return a, b


def dice_binary(a: np.ndarray, b: np.ndarray) -> float:
    """2|A & B| / (|A| + |B|); two empty masks count as a perfect 1.0."""
    a, b = _mask_pair(a, b)
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int(np.logical_and(a, b).sum()) / total


def volumetric_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |#A - #B| / (#A + #B); agreement of sizes, not positions."""
    a, b = _mask_pair(a, b)
    na, nb = int(a.sum()), int(b.sum())
    if na + nb == 0:
        return 1.0
    return 1.0 - abs(na - nb) / (na + nb)


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """(P, 3) int64 coordinates of mask voxels touching the outside."""
    mask = np.asarray(mask, bool)
    if mask.ndim != 3:
        raise DataError(f"expected a 3D mask, got {mask.shape}")
    padded = np.pad(mask, 1, constant_values=False)
    covered = np.ones_like(mask)
    for axis in range(3):
        for step in (-1, 1):
            sl = [slice(1, -1)] * 3
            sl[axis] = slice(2, None) if step == 1 else slice(0, -2)
            covered &= padded[tuple(sl)]
    return np.argwhere(mask & ~covered).astype(np.int64)


_EPS = 1e-9
_SIGNS = np.array([(i, j, k) for i in (1, -1) for j in (1, -1) for k in (1, -1)])


def _pinned_d2(delta: np.ndarray, sp: np.ndarray) -> np.ndarray:
    """Squared distances of (..., 3) integer voxel deltas, pinned order."""
    d = delta * sp
    return d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2


def _offset_shell(v: float, sp: np.ndarray, shape) -> tuple:
    """Integer offset magnitudes (K, 3) whose pinned d2 lies in
    [v(1 - 2 eps), v(1 + 3 eps)], sorted by d2, and those d2."""
    top = [min(n - 1, int(np.sqrt(v) / s) + 1) for n, s in zip(shape, sp)]
    mags = np.indices([t + 1 for t in top]).reshape(3, -1).T
    d2 = _pinned_d2(mags, sp)
    keep = (d2 >= v * (1 - 2 * _EPS)) & (d2 <= v * (1 + 3 * _EPS))
    order = np.argsort(d2[keep], kind="stable")
    return mags[keep][order], d2[keep][order]


def _directed_p95(src: np.ndarray, dst: np.ndarray, sp: np.ndarray) -> float:
    """Nearest-rank 95th percentile of min distances from the src voxel
    coordinates to the voxels of the dst mask (see the module docstring)."""
    nearest = ndimage.distance_transform_edt(~dst, sampling=sp, return_distances=False,
                                             return_indices=True)
    d2 = _pinned_d2(nearest[(slice(None), *src.T)].T - src, sp)
    rank = int(np.ceil(0.95 * d2.size)) - 1
    v = np.partition(d2, rank)[rank]
    band = np.flatnonzero((d2 >= v * (1 - _EPS)) & (d2 <= v * (1 + 2 * _EPS)) & (d2 > 0))
    if band.size:
        mags, mag_d2 = _offset_shell(v, sp, dst.shape)
        for e in np.unique(d2[band]):
            lo, hi = np.searchsorted(mag_d2, [e * (1 - _EPS), e])
            rows = band[d2[band] == e]
            for mag, mag_e in zip(mags[lo:hi], mag_d2[lo:hi]):
                pts = src[rows, None, :] + mag * _SIGNS
                inside = ((pts >= 0) & (pts < dst.shape)).all(axis=-1)
                hit = np.zeros(inside.shape, bool)
                hit[inside] = dst[tuple(pts[inside].T)]
                found = rows[hit.any(axis=1)]
                d2[found] = np.minimum(d2[found], mag_e)
        v = np.partition(d2, rank)[rank]
    return float(np.sqrt(v))


def hd95(a: np.ndarray, b: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> Optional[float]:
    """Symmetric 95th percentile surface distance in spacing units.

    Returns None when either mask has no surface (i.e. is empty).
    """
    a, b = _mask_pair(a, b)
    sp = np.asarray(check_spacing(spacing, ParameterError))
    sa = surface_voxels(a)
    sb = surface_voxels(b)
    if sa.shape[0] == 0 or sb.shape[0] == 0:
        return None
    on_a = np.zeros(a.shape, bool)
    on_b = np.zeros(b.shape, bool)
    on_a[tuple(sa.T)] = True
    on_b[tuple(sb.T)] = True
    return max(_directed_p95(sa, on_b, sp), _directed_p95(sb, on_a, sp))


# ---------------------------------------------------------------------------
# per-class evaluation reports


@dataclass
class ClassResult:
    class_id: int
    dice: float
    hd95_mm: Optional[float]
    vs: float
    pred_voxels: int
    truth_voxels: int


@dataclass
class EvalReport:
    classes: list
    spacing: tuple
    weights: tuple = DEFAULT_WEIGHTS
    overall: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True) + "\n"

    def format_table(self) -> str:
        lines = [f"{'class':>5s} {'dice':>8s} {'hd95mm':>8s} {'vs':>8s} "
                 f"{'pred_vox':>9s} {'true_vox':>9s}"]
        for c in self.classes:
            hd = f"{c.hd95_mm:8.3f}" if c.hd95_mm is not None else f"{'n/a':>8s}"
            lines.append(f"{c.class_id:5d} {c.dice:8.4f} {hd} {c.vs:8.4f} "
                         f"{c.pred_voxels:9d} {c.truth_voxels:9d}")
        lines.append(f"overall score: {self.overall:.4f}")
        return "\n".join(lines)


def score_class(row: ClassResult) -> float:
    """Quality of one class, its terms weighted by ``DEFAULT_WEIGHTS``.

    The distance term is 1 / (1 + hd95): 1.0 at perfect contours, toward
    0 as contours drift apart.  An undefined distance contributes 1.0
    when both masks are empty (nothing to miss) and 0.0 when only one is
    (the structure was entirely missed or entirely invented).
    """
    wd, wh, wv = DEFAULT_WEIGHTS
    if row.hd95_mm is not None:
        hd_term = 1.0 / (1.0 + row.hd95_mm)
    else:
        hd_term = 1.0 if (row.pred_voxels + row.truth_voxels == 0) else 0.0
    return wd * row.dice + wh * hd_term + wv * row.vs


def evaluate_segmentation(pred: np.ndarray, truth: np.ndarray, classes: int,
                          spacing=(1.0, 1.0, 1.0)) -> EvalReport:
    """Per-foreground-class metrics plus the aggregate score (the mean
    over classes of the weighted per-class quality) of two integer label
    volumes with ids in [0, classes)."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise DataError(f"prediction {pred.shape} does not match truth {truth.shape}")
    if pred.ndim != 3:
        raise DataError(f"expected 3D label volumes, got {pred.shape}")
    check_classes(classes, ParameterError)
    check_labels(pred, classes, "prediction labels")
    check_labels(truth, classes, "truth labels")
    rows = []
    for k in range(1, classes):
        a = pred == k
        b = truth == k
        rows.append(ClassResult(
            class_id=k,
            dice=dice_binary(a, b),
            hd95_mm=hd95(a, b, spacing),
            vs=volumetric_similarity(a, b),
            pred_voxels=int(a.sum()),
            truth_voxels=int(b.sum()),
        ))
    overall = float(np.mean([score_class(r) for r in rows]))
    return EvalReport(rows, tuple(float(s) for s in spacing), overall=overall)
