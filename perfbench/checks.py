"""Reference computations the benchmark checks the program against.

Nothing here imports mixnet: each quantity is recomputed from its
definition with plain numpy / scipy so that a fault in the program
cannot also hide in its check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage


class CheckFailed(Exception):
    """A workload's output disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# overlap and surface distance


def dice_ref(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    if na + nb == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(a & b)) / (na + nb)


def vs_ref(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    if na + nb == 0:
        return 1.0
    return 1.0 - abs(na - nb) / (na + nb)


_SIX_NEIGHBOURS = ndimage.generate_binary_structure(3, 1)


def surface_ref(mask: np.ndarray) -> np.ndarray:
    """Mask voxels removed by one 6-connected erosion; outside the volume
    counts as background (``border_value=0``)."""
    mask = np.asarray(mask, bool)
    core = ndimage.binary_erosion(mask, structure=_SIX_NEIGHBOURS, border_value=0)
    return mask & ~core


def _nearest_rank_p95(values: np.ndarray) -> float:
    ordered = np.sort(values)
    rank = math.ceil(0.95 * ordered.size) - 1
    return float(ordered[max(rank, 0)])


def hd95_ref(a: np.ndarray, b: np.ndarray, spacing) -> float | None:
    """Symmetric nearest-rank 95th percentile surface distance.

    Distances come from an exact Euclidean distance transform of each
    surface's complement with the voxel spacing as sampling; None when
    either mask is empty.
    """
    sa, sb = surface_ref(a), surface_ref(b)
    if not sa.any() or not sb.any():
        return None
    sampling = tuple(float(s) for s in spacing)
    to_b = ndimage.distance_transform_edt(~sb, sampling=sampling)
    to_a = ndimage.distance_transform_edt(~sa, sampling=sampling)
    return max(_nearest_rank_p95(to_b[sa]), _nearest_rank_p95(to_a[sb]))


def close(x: float | None, y: float | None, rel: float) -> bool:
    if x is None or y is None:
        return x is None and y is None
    return math.isclose(x, y, rel_tol=rel, abs_tol=0.0)


def check_report(report, pred: np.ndarray, truth: np.ndarray, spacing,
                 classes: int, label: str) -> None:
    """Compare one program EvalReport with the reference metrics."""
    rows = {row.class_id: row for row in report.classes}
    require(sorted(rows) == list(range(1, classes)),
            f"{label}: report classes {sorted(rows)}")
    for k in range(1, classes):
        a, b = pred == k, truth == k
        row = rows[k]
        require(row.pred_voxels == int(np.count_nonzero(a))
                and row.truth_voxels == int(np.count_nonzero(b)),
                f"{label} class {k}: voxel counts differ")
        require(close(row.dice, dice_ref(a, b), 1e-12),
                f"{label} class {k}: dice {row.dice} vs {dice_ref(a, b)}")
        require(close(row.vs, vs_ref(a, b), 1e-12),
                f"{label} class {k}: vs {row.vs} vs {vs_ref(a, b)}")
        ref = hd95_ref(a, b, spacing)
        require(close(row.hd95_mm, ref, 1e-9),
                f"{label} class {k}: hd95 {row.hd95_mm} vs reference {ref}")


# ---------------------------------------------------------------------------
# probability volumes and fusion


def check_probs(probs: np.ndarray, label: str) -> None:
    require(bool(np.all(probs >= 0)), f"{label}: negative probability")
    total = probs.sum(axis=-1, dtype=np.float64)
    err = float(np.abs(total - 1.0).max())
    require(err <= 1e-5, f"{label}: probabilities sum to 1 +- {err:.2e}")


def check_fusion(prob_volumes, weights, labels: np.ndarray, label: str) -> int:
    """Fused labels must be the argmax of the float64 weighted average
    wherever the top two classes differ by more than 1e-6; returns the
    number of voxels compared."""
    w = np.asarray(weights, np.float64)
    avg = sum(wi * np.asarray(v, np.float64) for wi, v in zip(w / w.sum(), prob_volumes))
    top2 = np.sort(avg, axis=-1)[..., -2:]
    decided = (top2[..., 1] - top2[..., 0]) > 1e-6
    expected = avg.argmax(axis=-1)
    bad = int(np.count_nonzero((labels != expected) & decided))
    require(bad == 0, f"{label}: {bad} fused labels differ from the reference argmax")
    return int(np.count_nonzero(decided))
