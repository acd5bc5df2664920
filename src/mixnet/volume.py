"""3D volume IO, plane slicing, prediction fusion and synthetic data.

Storage format: a raw little-endian body file plus a JSON sidecar at
``<path>.json`` describing it.  The sidecar carries the voxel grid
``dims`` (index order), the voxel ``spacing`` in millimetres, the body
``dtype`` ("f32" or "u8"), the byte order (always "little"), the value
``kind`` ("intensity", "labels" or "probs") and, for labels and
probability maps, the class count.

Axis convention: a volume is indexed (x, y, z); slicing plane names map
to the axis that is swept:

    sagittal -> axis 0, coronal -> axis 1, transverse -> axis 2

A plane-wise prediction returns to the volume grid without resampling:
``predict_volume`` writes each batch through a view of the output with the
plane axis first.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DataError, ParameterError
from .records import check_count, check_labels, check_real, check_record, read_record
from .tensor import derive_seed

PLANES = {"sagittal": 0, "coronal": 1, "transverse": 2}

_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}
MAX_CLASSES = 256  # a label volume stores one byte per voxel
KINDS = ("intensity", "labels", "probs")


def plane_axis(plane: str) -> int:
    if plane not in PLANES:
        raise ParameterError(f"unknown plane {plane!r}, expected one of "
                             f"{tuple(PLANES)}")
    return PLANES[plane]


def check_spacing(spacing, error=DataError) -> tuple[float, ...]:
    """``spacing`` as a tuple of floats, if it is three ``check_real`` reals
    above 0 (mm per voxel); else raise ``error``, the caller's class."""
    try:
        sp = tuple(check_real(s, "a spacing", error) for s in spacing)
    except (TypeError, error):
        sp = ()
    if len(sp) != 3 or not all(s > 0 for s in sp):
        raise error(f"spacing must be three finite positive numbers, got {spacing!r}")
    return sp


def check_classes(classes: int, error=DataError, what: str = "classes") -> int:
    """``classes`` as an int, if it is an integer from 2 to ``MAX_CLASSES``
    (a label volume stores one byte per voxel); else raise ``error``, the
    caller's class, naming the count ``what``."""
    return check_count(classes, what, error, least=2, most=MAX_CLASSES)


def check_weights(weights, count: int, error=ParameterError) -> np.ndarray:
    """Fusion weights as float64, if there are ``count`` of them, each a
    ``check_real`` real, and not all zero; else raise ``error``."""
    if np.shape(weights) != (count,):
        raise error(f"need one weight per volume, shape ({count},), got {np.shape(weights)}")
    w = np.array([check_real(v, "each weight", error) for v in weights])
    if w.sum() <= 0:
        raise error(f"weights must not all be zero, got {weights!r}")
    return w


@dataclass
class VolumeMeta:
    dims: tuple[int, ...]
    spacing: tuple[float, ...]
    dtype: str
    kind: str
    modality: str = ""
    classes: int = 0
    byte_order: str = "little"

    def validate(self) -> "VolumeMeta":
        self.spacing = check_spacing(self.spacing)
        if self.dtype not in _DTYPES:
            raise DataError(f"unsupported dtype {self.dtype!r}")
        if self.kind not in KINDS:
            raise DataError(f"unsupported kind {self.kind!r}")
        if self.byte_order != "little":
            raise DataError(f"unsupported byte order {self.byte_order!r}")
        ndim = 4 if self.kind == "probs" else 3
        if len(self.dims) != ndim:
            raise DataError(f"{self.kind} volumes are {ndim}D, got dims {self.dims}")
        self.classes = (check_classes(self.classes, DataError, "a label volume's class count")
                        if self.kind == "labels"
                        else check_count(self.classes, f"{self.kind} classes", DataError, least=0))
        if self.kind == "probs" and self.classes != self.dims[3]:
            raise DataError(f"probs classes {self.classes} != last dim {self.dims[3]}")
        if any(d < 1 for d in self.dims):
            raise DataError(f"dims must be positive, got {self.dims}")
        return self


def _sidecar(path) -> str:
    return str(path) + ".json"


@contextmanager
def atomic_open(path, mode: str = "wb", newline: str | None = None):
    """Write ``path`` through a temp file beside it (``mode`` and
    ``newline`` as for ``open``).  A clean exit renames the temp file over
    ``path`` in one step; an exception removes it, so a failed write
    leaves the previous file as it was, never a torn one."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_volume(path, data: np.ndarray, spacing, kind: str,
                 modality: str = "", classes: int = 0) -> VolumeMeta:
    """Write the body file and its JSON sidecar; returns the metadata.  The
    sidecar is checked first, then a label volume's ids against its
    class count."""
    data = np.asarray(data)
    meta = VolumeMeta(dims=tuple(data.shape), spacing=tuple(spacing),
                      dtype="u8" if kind == "labels" else "f32", kind=kind,
                      modality=modality, classes=classes).validate()
    if kind == "labels":
        check_labels(data, meta.classes, "labels")
    body = np.asarray(data, dtype=_DTYPES[meta.dtype])
    # both temp files are complete before either replaces its target
    with atomic_open(path) as fh, atomic_open(_sidecar(path), "w") as sh:
        fh.write(np.ascontiguousarray(body).data)
        json.dump(asdict(meta), sh, indent=1, sort_keys=True)
        sh.write("\n")
    return meta


def read_meta(path) -> VolumeMeta:
    """Read and check the sidecar of the volume at ``path``, not its body."""
    side = _sidecar(path)
    if not os.path.exists(side):
        raise DataError(f"missing sidecar header {side}")
    try:
        with open(side) as fh:
            raw = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{side}: invalid JSON: {e}") from None
    return read_record(VolumeMeta, raw, side, DataError)


def _read_body(path, meta: VolumeMeta) -> np.ndarray:
    """The body ``meta`` describes; checks its size and a label volume's ids."""
    dtype = _DTYPES[meta.dtype]
    expected = int(np.prod(meta.dims)) * dtype.itemsize
    actual = os.path.getsize(path)
    if actual != expected:
        raise DataError(f"{path}: body is {actual} bytes, header implies {expected}")
    data = np.fromfile(path, dtype=dtype).reshape(meta.dims)
    if meta.kind == "labels":
        check_labels(data, meta.classes, f"{path}: labels")
    return data


def read_volume(path) -> tuple[np.ndarray, VolumeMeta]:
    """Read a body + sidecar pair; validates sizes before reshaping."""
    meta = read_meta(path)
    return _read_body(path, meta), meta


def read_metas(paths, kinds) -> list[VolumeMeta]:
    """The sidecars of volumes read together: ``paths[i]`` must be of kind
    ``kinds[i]``, and each must have the first one's dims and spacing.  The
    error names the file, and for the grid the file it was compared with."""
    metas = [read_meta(p) for p in paths]
    for path, meta, kind in zip(paths, metas, kinds, strict=True):
        if meta.kind != kind:
            raise DataError(f"{path}: kind {meta.kind!r}, expected {kind!r}")
        for field in ("dims", "spacing"):
            if getattr(meta, field) != getattr(metas[0], field):
                raise DataError(f"{path}: {field} {getattr(meta, field)}, but "
                                f"{paths[0]} has {getattr(metas[0], field)}")
    return metas


def read_volumes(paths, kinds) -> list[tuple[np.ndarray, VolumeMeta]]:
    """(data, meta) of each volume at ``paths``, if its sidecar passes
    ``read_metas``: every sidecar is checked before any body is read."""
    return [(_read_body(p, m), m) for p, m in zip(paths, read_metas(paths, kinds))]


def normalize_volume(data: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance float32 copy (std floored at 1e-8)."""
    data = np.asarray(data, dtype=np.float32)
    mean = float(data.mean(dtype=np.float64))
    std = float(data.std(dtype=np.float64))
    return ((data - mean) / max(std, 1e-8)).astype(np.float32)


# ---------------------------------------------------------------------------
# plane slicing


def slice_stack(volume: np.ndarray, plane: str) -> np.ndarray:
    """Stack of 2D slices swept along the plane axis.

    (X, Y, Z) -> (S, H, W) and (X, Y, Z, C) -> (S, H, W, C); the two
    in-plane axes keep their relative order.
    """
    volume = np.asarray(volume)
    if volume.ndim not in (3, 4):
        raise DataError(f"expected a 3D or 4D volume, got {volume.shape}")
    return np.ascontiguousarray(np.moveaxis(volume, plane_axis(plane), 0))


def predict_volume(net, images: np.ndarray, plane: str,
                   batch_size: int = 8) -> np.ndarray:
    """Class probabilities (X, Y, Z, K) from slicing a normalized
    multi-modality volume (X, Y, Z, M) along one plane.  Each batch's
    probabilities are written straight into the volume through a view
    with the plane axis first, so no stack of slices is held besides it."""
    images = np.asarray(images)
    axis = plane_axis(plane)
    if images.ndim != 4 or not images.shape[axis]:
        raise DataError(f"expected an (X, Y, Z, M) volume with {plane} slices, "
                        f"got {images.shape}")
    batch_size = check_count(batch_size, "batch_size")
    slices = np.moveaxis(images, axis, 0)
    probs = None
    for lo in range(0, slices.shape[0], batch_size):
        batch = net.predict_probs(slices[lo:lo + batch_size])
        if probs is None:       # the network sets the dtype and class count
            probs = np.empty(images.shape[:3] + batch.shape[3:], dtype=batch.dtype)
        np.moveaxis(probs, axis, 0)[lo:lo + batch_size] = batch
    return probs


def fuse_predictions(prob_volumes, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted average of probability volumes, then argmax.

    Returns (labels u8, fused probabilities).  Weights are normalized to
    sum to 1; argmax ties resolve to the lowest class id.
    """
    vols = [np.asarray(v) for v in prob_volumes]
    if not vols:
        raise ParameterError("fuse_predictions needs at least one volume")
    shape = vols[0].shape
    if len(shape) != 4:
        raise DataError(f"probability volumes must be 4D, got {shape}")
    for v in vols:
        if v.shape != shape:
            raise DataError(f"mismatched prediction shapes: {v.shape} vs {shape}")
    weights = check_weights(np.ones(len(vols)) if weights is None else weights, len(vols))
    weights = weights / weights.sum()
    fused = np.zeros(shape, dtype=np.float64)
    for w, v in zip(weights, vols):
        fused += w * v
    labels = fused.argmax(axis=-1).astype("u1")
    return labels, fused.astype(np.float32)


# ---------------------------------------------------------------------------
# synthetic subjects
#
# Concentric deformed ellipsoid shells: good enough geometry to make
# plane-wise segmentation learnable, hard enough (smooth deformation,
# bias fields, noise) that a network has something real to do.


def _smooth_field(dims, rng) -> np.ndarray:
    """Mean of three random low-frequency cosine products, roughly in
    [-1, 1], used for shape deformation and intensity bias."""
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, d) for d in dims],
                        indexing="ij", sparse=True)
    out = np.zeros(dims, dtype=np.float64)
    for _ in range(3):
        term = np.ones(dims, dtype=np.float64)
        for g in grids:
            freq = rng.uniform(0.5, 2.5)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            term = term * np.cos(2.0 * np.pi * freq * g + phase)
        out += term
    return out / 3


def check_synthesis(dims, classes: int, modalities: int, spacing, subjects: int = 1,
                    error=ParameterError) -> tuple:
    """``(dims, classes, modalities, spacing, subjects)`` as ints and a
    tuple of floats, if they are a synthetic dataset's settings: three
    extents of at least 8, 2 to ``MAX_CLASSES`` classes, at least one
    modality, three finite positive spacings and at least one subject.  A
    value out of range raises ``error``, the caller's class:
    ``ParameterError`` in the library, ``ConfigError`` (a usage error) on
    the command line."""
    subjects = check_count(subjects, "subjects", error)
    if len(dims) != 3:
        raise error(f"dims must be three extents, got {tuple(dims)}")
    dims = tuple(check_count(d, f"each extent of dims {tuple(dims)}", error, least=8)
                 for d in dims)
    spacing = check_spacing(spacing, error)
    classes = check_classes(classes, error)
    modalities = check_count(modalities, "modalities", error)
    return dims, classes, modalities, spacing, subjects


def synthesize_subject(dims=(64, 64, 64), classes: int = 4, modalities: int = 3,
                       spacing=(1.0, 1.0, 1.0), seed: int = 0,
                       deform: float = 0.12) -> dict:
    """One synthetic multi-modality subject with a known segmentation.

    The label field nests ``classes - 1`` shells inside an ellipsoid
    whose radius a smooth random field of amplitude ``deform`` warps.
    Each modality maps the classes to its own intensity profile, times a
    smooth bias field (amplitude 0.25) plus Gaussian noise (sd 0.05), so
    no single threshold solves it.
    """
    dims, classes, modalities, spacing, _ = check_synthesis(dims, classes, modalities, spacing)

    shape_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "shape")))
    center = [0.5 + shape_rng.uniform(-0.05, 0.05) for _ in range(3)]
    axes = [0.40 + shape_rng.uniform(-0.04, 0.04) for _ in range(3)]
    coords = np.meshgrid(*[(np.arange(d) + 0.5) / d for d in dims],
                         indexing="ij", sparse=True)
    rho2 = np.zeros(dims, dtype=np.float64)
    for g, c, a in zip(coords, center, axes):
        rho2 = rho2 + ((g - c) / a) ** 2
    rho = np.sqrt(rho2)
    rho = rho + deform * _smooth_field(dims, shape_rng)

    # nested shells: background outside rho 1, then equal-width shells,
    # innermost class occupying everything below the last threshold
    shells = max(classes - 2, 1)
    width = 0.5 / shells
    depth = np.clip((1.0 - rho) / width, 0.0, None)
    labels = np.where(rho >= 1.0, 0,
                      1 + np.minimum(depth.astype(np.int64), classes - 2))
    labels = labels.astype("u1")

    # one monotone class->intensity profile per modality, distinct slopes
    # and directions so modalities genuinely disagree
    profiles = []
    for m in range(modalities):
        lo = 0.08 + 0.04 * (m % 3)
        hi = 0.95 - 0.05 * (m % 3)
        ramp = np.linspace(lo, hi, classes)
        if m % 2:
            ramp = ramp[::-1]
        profiles.append(ramp)

    images = np.empty(dims + (modalities,), dtype=np.float32)
    for m in range(modalities):
        mod_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "mod", m)))
        base = profiles[m][labels]
        field = 1.0 + 0.25 * _smooth_field(dims, mod_rng)
        img = base * field + mod_rng.normal(0.0, 0.05, size=dims)
        images[..., m] = img.astype(np.float32)

    return {"images": images, "labels": labels, "spacing": spacing}


def generate_dataset(out_dir, subjects: int = 3, dims=(64, 64, 64),
                     classes: int = 4, modalities: int = 3,
                     spacing=(1.0, 1.0, 1.0), seed: int = 0) -> dict:
    """Write a directory of synthetic subjects plus a manifest.json."""
    dims, classes, modalities, spacing, subjects = check_synthesis(
        dims, classes, modalities, spacing, subjects)
    seed = check_count(seed, "seed", least=0)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i in range(subjects):
        sub = synthesize_subject(dims, classes, modalities, spacing,
                                 seed=derive_seed(seed, "subject", i))
        sid = f"subject{i:02d}"
        mod_files = []
        for m in range(modalities):
            fname = f"{sid}_mod{m}.vol"
            write_volume(os.path.join(out_dir, fname), sub["images"][..., m],
                         spacing, "intensity", modality=f"mod{m}")
            mod_files.append(fname)
        lab = f"{sid}_labels.vol"
        write_volume(os.path.join(out_dir, lab), sub["labels"], spacing,
                     "labels", classes=classes)
        entries.append({"id": sid, "modalities": mod_files, "labels": lab})
    manifest = {"classes": classes, "spacing": list(spacing),
                "dims": list(dims), "seed": seed, "subjects": entries}
    with atomic_open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest


# the fields of manifest.json and of each subject entry, and their kinds
# (see mixnet.records)
MANIFEST_KINDS = {"classes": int, "spacing": tuple[float, ...], "dims": tuple[int, ...],
                  "seed": int, "subjects": list}
SUBJECT_KINDS = {"id": str, "modalities": tuple[str, ...], "labels": str}


def load_manifest(data_dir) -> dict:
    path = os.path.join(data_dir, "manifest.json")
    if not os.path.exists(path):
        raise DataError(f"no manifest.json in {data_dir}")
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"{path}: invalid JSON: {e}") from None
    manifest = check_record(manifest, MANIFEST_KINDS, path, DataError,
                            ("classes", "spacing", "subjects"))
    manifest["subjects"] = [check_record(e, SUBJECT_KINDS, f"{path}: subject {i}",
                                         DataError, tuple(SUBJECT_KINDS))
                            for i, e in enumerate(manifest["subjects"])]
    counts = [len(e["modalities"]) for e in manifest["subjects"]]
    for i, n in enumerate(counts):
        if n == 0 or n != counts[0]:
            raise DataError(f"{path}: subject {i} lists {n} modalities; every subject "
                            f"needs the same number, at least 1 (subject 0: {counts[0]})")
    return manifest


def subject_files(data_dir, entry: dict) -> tuple[list[str], list[str]]:
    """The paths of a manifest entry's volumes, its modalities then its
    labels, and the kind each must be (see ``read_metas``)."""
    names = [*entry["modalities"], entry["labels"]]
    return ([os.path.join(data_dir, n) for n in names],
            ["intensity"] * len(entry["modalities"]) + ["labels"])


def _load(data_dir, entry: dict, labels: bool) -> tuple[dict, list, list]:
    """One manifest entry's normalized modalities and spacing, with the
    paths and sidecars ``read_metas`` checked.  The labels' sidecar is
    among them if ``labels`` is set or it exists; their body is not read."""
    paths, kinds = subject_files(data_dir, entry)
    m = len(entry["modalities"])
    if not labels and not os.path.exists(_sidecar(paths[-1])):  # no ground truth
        paths, kinds = paths[:m], kinds[:m]
    metas = read_metas(paths, kinds)
    images = np.stack([normalize_volume(_read_body(p, meta))
                       for p, meta in zip(paths[:m], metas)], axis=-1)
    return ({"id": entry.get("id", ""), "images": images, "spacing": metas[0].spacing},
            paths, metas)


def load_images(data_dir, entry: dict) -> dict:
    """Load one manifest entry's normalized modalities and spacing.  The
    labels' body is never read and need not exist; their sidecar, where it
    exists, is checked with the modalities' by ``read_metas``."""
    return _load(data_dir, entry, labels=False)[0]


def load_subject(data_dir, entry: dict) -> dict:
    """Load one manifest entry: ``load_images`` plus its labels and their
    class count.  Each sidecar is read once, and every one is checked
    before any body is read."""
    subject, paths, metas = _load(data_dir, entry, labels=True)
    return {**subject, "labels": _read_body(paths[-1], metas[-1]),
            "classes": metas[-1].classes}
