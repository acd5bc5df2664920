import errno
import json
import re

import numpy as np
import pytest

from mixnet.arch import NetConfig, Network
from mixnet.errors import DataError, ParameterError
from mixnet import cli, volume as vol

import oracles


# ---------------------------------------------------------------------------
# file format


def test_intensity_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(5, 6, 7)).astype(np.float32)
    path = tmp_path / "t1.vol"
    meta = vol.write_volume(path, data, (0.9, 1.0, 1.1), "intensity", modality="t1")
    back, meta2 = vol.read_volume(path)
    np.testing.assert_array_equal(back, data)
    assert meta2.dims == (5, 6, 7)
    assert meta2.spacing == (0.9, 1.0, 1.1)
    assert meta2.dtype == "f32"
    assert meta2.kind == "intensity"
    assert meta2.modality == "t1"
    assert (tmp_path / "t1.vol.json").exists()


def test_labels_round_trip_and_range_checks(tmp_path):
    labels = np.random.default_rng(1).integers(0, 4, size=(4, 5, 6))
    path = tmp_path / "seg.vol"
    vol.write_volume(path, labels, (1, 1, 1), "labels", classes=4)
    back, meta = vol.read_volume(path)
    np.testing.assert_array_equal(back, labels)
    assert back.dtype == np.uint8
    assert meta.classes == 4
    with pytest.raises(DataError):
        vol.write_volume(tmp_path / "bad.vol", labels, (1, 1, 1), "labels", classes=3)


def test_labels_past_one_byte_are_rejected_whatever_the_class_count(tmp_path):
    # a label body stores one byte per voxel: 300 would read back as 44
    # a class count past 256 is named first, then the ids it cannot hold
    path = tmp_path / "seg.vol"
    for classes, message in ((301, r"class count must be an integer in \[2, 256\], got 301"),
                             (vol.MAX_CLASSES, r"^labels 300\.\.300 leave \[0, 256\)$")):
        with pytest.raises(DataError, match=message):
            vol.write_volume(path, np.full((2, 2, 2), vol.MAX_CLASSES + 44), (1, 1, 1),
                             "labels", classes=classes)
        assert not path.exists()
    top = np.full((2, 2, 2), vol.MAX_CLASSES - 1)
    vol.write_volume(path, top, (1, 1, 1), "labels", classes=vol.MAX_CLASSES)
    np.testing.assert_array_equal(vol.read_volume(path)[0], top)


def test_label_meta_rejects_a_class_count_past_one_byte(tmp_path):
    meta = vol.VolumeMeta(dims=(2, 2, 2), spacing=(1, 1, 1), dtype="u8", kind="labels",
                          classes=vol.MAX_CLASSES)
    assert meta.validate().classes == vol.MAX_CLASSES
    meta.classes = vol.MAX_CLASSES + 1
    with pytest.raises(DataError, match=r"^a label volume's class count must be an integer "
                                        r"in \[2, 256\], got 257$"):
        meta.validate()
    for kind, dims in (("intensity", (2, 2, 2)), ("probs", (2, 2, 2, 2))):
        other = vol.VolumeMeta(dims=dims, spacing=(1, 1, 1), dtype="f32", kind=kind,
                               classes=1.5)
        with pytest.raises(DataError, match=rf"^{kind} classes must be an integer >= 0, "
                                            r"got 1\.5$"):
            other.validate()
    path = tmp_path / "seg.vol"
    vol.write_volume(path, np.zeros((2, 2, 2), np.uint8), (1, 1, 1), "labels", classes=3)
    side = json.loads((tmp_path / "seg.vol.json").read_text())
    side["classes"] = 300
    (tmp_path / "seg.vol.json").write_text(json.dumps(side))
    with pytest.raises(DataError):
        vol.read_volume(path)


def test_read_rejects_labels_beyond_declared_classes(tmp_path):
    labels = np.full((3, 3, 3), 3, dtype=np.uint8)
    path = tmp_path / "seg.vol"
    vol.write_volume(path, labels, (1, 1, 1), "labels", classes=4)
    side = json.loads((tmp_path / "seg.vol.json").read_text())
    side["classes"] = 2
    (tmp_path / "seg.vol.json").write_text(json.dumps(side))
    with pytest.raises(DataError):
        vol.read_volume(path)


def test_probs_round_trip(tmp_path):
    probs = np.random.default_rng(2).random(size=(4, 4, 4, 3)).astype(np.float32)
    path = tmp_path / "probs.vol"
    vol.write_volume(path, probs, (1, 1, 1), "probs", classes=3)
    back, meta = vol.read_volume(path)
    np.testing.assert_array_equal(back, probs)
    assert meta.kind == "probs"
    with pytest.raises(DataError):
        vol.write_volume(tmp_path / "bad.vol", probs, (1, 1, 1), "probs", classes=4)


@pytest.mark.parametrize("kind,data", [
    ("intensity", np.arange(60, dtype=np.float32).reshape(3, 4, 5) / 7),
    ("intensity", np.arange(60, dtype=np.float64).reshape(5, 4, 3).T / 7),
    ("intensity", np.arange(60, dtype=">f4").reshape(3, 4, 5)),
    ("probs", np.asfortranarray(np.linspace(0, 1, 72, dtype=np.float32)
                                .reshape(2, 3, 4, 3))),
    ("labels", np.arange(60, dtype=np.int64).reshape(3, 4, 5) % 4),
    ("labels", (np.arange(60, dtype=np.uint8).reshape(3, 4, 5) % 4)[:, ::-1]),
], ids=["f32", "f64-transposed", "big-endian", "probs-fortran", "i64-labels",
        "u8-reversed-labels"])
def test_write_volume_body_is_the_cast_array_bytes(tmp_path, kind, data):
    path = tmp_path / "v.vol"
    classes = data.shape[-1] if kind == "probs" else 4
    vol.write_volume(path, data, (1, 1, 1), kind, classes=classes)
    body = data.astype("u1" if kind == "labels" else "<f4")
    assert path.read_bytes() == body.tobytes()


def test_read_errors(tmp_path):
    data = np.zeros((3, 3, 3), np.float32)
    path = tmp_path / "a.vol"
    vol.write_volume(path, data, (1, 1, 1), "intensity")

    (tmp_path / "nohdr.vol").write_bytes(b"\0" * 12)
    with pytest.raises(DataError):
        vol.read_volume(tmp_path / "nohdr.vol")

    # truncated body
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(DataError):
        vol.read_volume(path)

    # unknown header field
    path2 = tmp_path / "b.vol"
    vol.write_volume(path2, data, (1, 1, 1), "intensity")
    side = json.loads((tmp_path / "b.vol.json").read_text())
    side["compression"] = "zip"
    (tmp_path / "b.vol.json").write_text(json.dumps(side))
    with pytest.raises(DataError):
        vol.read_volume(path2)

    # broken JSON
    path3 = tmp_path / "c.vol"
    vol.write_volume(path3, data, (1, 1, 1), "intensity")
    (tmp_path / "c.vol.json").write_text("{not json")
    with pytest.raises(DataError):
        vol.read_volume(path3)


def test_read_volumes_checks_every_sidecar_before_a_body(tmp_path):
    paths = [tmp_path / f"{n}.vol" for n in "abc"]
    vol.write_volume(paths[0], np.zeros((3, 3, 3)), (1, 1, 2), "intensity")
    vol.write_volume(paths[1], np.zeros((3, 3, 3)), (1, 1, 2), "intensity")
    vol.write_volume(paths[2], np.zeros((3, 3, 3), np.uint8), (1, 1, 2), "labels",
                     classes=2)
    kinds = ["intensity", "intensity", "labels"]
    (data, meta), _, (labels, lmeta) = vol.read_volumes(paths, kinds)
    assert data.shape == labels.shape == meta.dims and lmeta.kind == "labels"
    with pytest.raises(DataError, match=re.escape(f"{paths[2]}: kind 'labels', "
                                                  "expected 'intensity'")):
        vol.read_volumes(paths, ["intensity"] * 3)
    paths[0].write_bytes(b"")                       # the first body is empty
    with pytest.raises(DataError, match="body is 0 bytes"):
        vol.read_volumes(paths, kinds)
    side = (tmp_path / "b.vol.json").read_text()
    for field, value in (("dims", (3, 3, 4)), ("spacing", (1.0, 1.0, 1.0))):
        (tmp_path / "b.vol.json").write_text(json.dumps({**json.loads(side),
                                                         field: value}))
        # the sidecar's fault is reported, not the first body's
        with pytest.raises(DataError, match=re.escape(
                f"{paths[1]}: {field} {value}, but {paths[0]} has")):
            vol.read_volumes(paths, kinds)


# sidecar edits the reader rejects: values of the wrong kind, a missing key
MALFORMED_SIDECARS = {
    "dims-str": lambda m: m.update(dims=["x", 4, 4]),
    "dims-float": lambda m: m.update(dims=[4.5, 4, 4]),
    "classes-str": lambda m: m.update(classes="3"),
    "spacing-scalar": lambda m: m.update(spacing=5),
    "spacing-nan": lambda m: m.update(spacing=[float("nan"), 1, 1]),
    "spacing-inf": lambda m: m.update(spacing=[1, 1, float("inf")]),
    "no-kind": lambda m: m.pop("kind"),
    "dtype": lambda m: m.update(dtype="f64"),
    "kind": lambda m: m.update(kind="mask"),
    "byte-order": lambda m: m.update(byte_order="big"),
    "dims-2d": lambda m: m.update(dims=[4, 4]),
    "classes-1": lambda m: m.update(classes=1),
    "not-utf8": lambda m: b"\xff" + json.dumps(m).encode(),
}


@pytest.mark.parametrize("case", MALFORMED_SIDECARS)
def test_malformed_sidecar_is_a_data_error(tmp_path, capsys, case):
    good, bad = tmp_path / "good.vol", tmp_path / "bad.vol"
    for path in (good, bad):
        vol.write_volume(path, np.zeros((4, 4, 4), np.uint8), (1, 1, 1), "labels",
                         classes=3)
    side = json.loads((tmp_path / "bad.vol.json").read_text())
    body = MALFORMED_SIDECARS[case](side)     # the file's bytes, else an edit in place
    (tmp_path / "bad.vol.json").write_bytes(
        body if isinstance(body, bytes) else json.dumps(side).encode())
    with pytest.raises(DataError):
        vol.read_volume(bad)
    capsys.readouterr()
    assert cli.main(["evaluate", "--pred", str(bad), "--truth", str(good)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "bad.vol.json" in err[0], err


def test_meta_validation():
    with pytest.raises(DataError):
        vol.VolumeMeta((3, 3, 3), (1, 1), "f32", "intensity").validate()
    with pytest.raises(DataError):
        vol.VolumeMeta((3, 3, 3), (1, 1, 1), "f16", "intensity").validate()
    with pytest.raises(DataError):
        vol.VolumeMeta((3, 3, 3), (1, 1, 1), "f32", "intensity",
                       byte_order="big").validate()
    with pytest.raises(DataError):
        vol.VolumeMeta((3, 3, 3, 2), (1, 1, 1), "f32", "intensity").validate()


def test_normalize_volume():
    rng = np.random.default_rng(3)
    data = rng.normal(5.0, 3.0, size=(8, 8, 8))
    out = vol.normalize_volume(data)
    assert out.dtype == np.float32
    assert abs(float(out.mean())) < 1e-5
    assert abs(float(out.std()) - 1.0) < 1e-5
    flat = vol.normalize_volume(np.full((4, 4, 4), 9.0))
    assert np.isfinite(flat).all()
    assert not flat.any()


# ---------------------------------------------------------------------------
# plane slicing


def test_plane_axis_mapping():
    assert vol.plane_axis("sagittal") == 0
    assert vol.plane_axis("coronal") == 1
    assert vol.plane_axis("transverse") == 2
    with pytest.raises(ParameterError):
        vol.plane_axis("axial")


def test_slice_stack_picks_the_right_slices():
    arr = np.arange(3 * 4 * 5).reshape(3, 4, 5)
    sag = vol.slice_stack(arr, "sagittal")
    cor = vol.slice_stack(arr, "coronal")
    tra = vol.slice_stack(arr, "transverse")
    np.testing.assert_array_equal(sag[1], arr[1])
    np.testing.assert_array_equal(cor[2], arr[:, 2])
    np.testing.assert_array_equal(tra[4], arr[:, :, 4])
    assert sag.shape == (3, 4, 5)
    assert cor.shape == (4, 3, 5)
    assert tra.shape == (5, 3, 4)


def test_slice_restack_round_trip_3d_and_4d():
    rng = np.random.default_rng(4)
    v3 = rng.normal(size=(5, 6, 7))
    v4 = rng.normal(size=(5, 6, 7, 2))
    for plane in vol.PLANES:
        for v in (v3, v4):
            stack = vol.slice_stack(v, plane)
            np.testing.assert_array_equal(np.moveaxis(stack, 0, vol.plane_axis(plane)), v)
    with pytest.raises(DataError):
        vol.slice_stack(np.zeros((3, 3)), "sagittal")


def test_predict_volume_matches_the_restacked_stack():
    net = Network(NetConfig(variant="v2", classes=3, filters=4), seed=2)
    # every plane's slices are at least the network's least side, 23
    images = np.random.default_rng(5).normal(size=(23, 24, 25, 3)).astype(np.float32)
    for plane, axis in vol.PLANES.items():
        got = vol.predict_volume(net, images, plane, batch_size=4)
        want = oracles.predict_volume_restacked(net, images, axis, batch_size=4)
        assert got.dtype == want.dtype == np.float32
        assert got.flags.c_contiguous and got.shape == (23, 24, 25, 3)
        np.testing.assert_array_equal(got, want)
    with pytest.raises(DataError):
        vol.predict_volume(net, images[..., 0], "sagittal")


def test_predict_volume_rejects_a_volume_with_no_slices_along_the_plane():
    net = Network(NetConfig(variant="v3", classes=3, filters=4), seed=2)
    for plane, axis in vol.PLANES.items():
        shape = [23, 23, 23, 3]
        shape[axis] = 0
        with pytest.raises(DataError, match=re.escape(f"with {plane} slices, got {tuple(shape)}")):
            vol.predict_volume(net, np.zeros(shape, np.float32), plane)


def test_predict_volume_rejects_a_batch_size_below_1():
    net = Network(NetConfig(variant="v3", classes=3, filters=4), seed=2)
    images = np.zeros((23, 23, 23, 3), np.float32)
    for bad in (0, -1):
        with pytest.raises(ParameterError,
                           match=f"^batch_size must be an integer >= 1, got {bad}$"):
            vol.predict_volume(net, images, "sagittal", batch_size=bad)


# ---------------------------------------------------------------------------
# fusion


def test_fuse_equal_weights_is_plain_average():
    rng = np.random.default_rng(5)
    a = rng.random(size=(3, 3, 3, 4))
    b = rng.random(size=(3, 3, 3, 4))
    labels, fused = vol.fuse_predictions([a, b])
    np.testing.assert_allclose(fused, (a + b) / 2, rtol=1e-6)
    np.testing.assert_array_equal(labels, ((a + b) / 2).argmax(axis=-1))
    assert labels.dtype == np.uint8


def test_fuse_weight_scaling_is_irrelevant():
    rng = np.random.default_rng(6)
    vols = [rng.random(size=(2, 2, 2, 3)) for _ in range(3)]
    l1, f1 = vol.fuse_predictions(vols, [1, 2, 1])
    l2, f2 = vol.fuse_predictions(vols, [0.25, 0.5, 0.25])
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_allclose(f1, f2, rtol=1e-6)


def test_fuse_tie_takes_lowest_class():
    flat = np.full((1, 1, 1, 3), 1 / 3)
    labels, _ = vol.fuse_predictions([flat])
    assert labels[0, 0, 0] == 0


def test_fuse_validation():
    base = np.zeros((2, 2, 2, 3))
    with pytest.raises(ParameterError):
        vol.fuse_predictions([])
    with pytest.raises(DataError):
        vol.fuse_predictions([base, np.zeros((2, 2, 2, 4))])
    with pytest.raises(ParameterError):
        vol.fuse_predictions([base, base], [1.0])
    with pytest.raises(ParameterError):
        vol.fuse_predictions([base, base], [0.0, 0.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="finite"):
            vol.fuse_predictions([base, base], [bad, 1.0])
    with pytest.raises(DataError):
        vol.fuse_predictions([np.zeros((2, 2, 2))])


# ---------------------------------------------------------------------------
# synthetic data


def test_synthesize_subject_properties():
    sub = vol.synthesize_subject(dims=(32, 32, 32), classes=4, modalities=3, seed=9)
    assert sub["images"].shape == (32, 32, 32, 3)
    assert sub["images"].dtype == np.float32
    assert sub["labels"].shape == (32, 32, 32)
    assert sub["labels"].dtype == np.uint8
    counts = np.bincount(sub["labels"].ravel(), minlength=4)
    assert (counts > 0).all(), counts
    assert counts[0] == counts.max()  # background dominates
    again = vol.synthesize_subject(dims=(32, 32, 32), classes=4, modalities=3, seed=9)
    np.testing.assert_array_equal(sub["images"], again["images"])
    other = vol.synthesize_subject(dims=(32, 32, 32), classes=4, modalities=3, seed=10)
    assert not np.array_equal(sub["labels"], other["labels"])


def test_synthesize_validation():
    with pytest.raises(ParameterError):
        vol.synthesize_subject(dims=(4, 32, 32))
    with pytest.raises(ParameterError):
        vol.synthesize_subject(classes=1)
    with pytest.raises(ParameterError):
        vol.synthesize_subject(modalities=0)
    with pytest.raises(ParameterError):
        vol.synthesize_subject(spacing=(1.0, 0.0, 1.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="finite positive"):
            vol.synthesize_subject(spacing=(1.0, bad, 1.0))
    with pytest.raises(ParameterError):
        vol.synthesize_subject(classes=vol.MAX_CLASSES + 1)


def test_generate_dataset_checks_its_counts_before_writing(tmp_path):
    with pytest.raises(ParameterError, match="subjects must be an integer >= 1"):
        vol.generate_dataset(tmp_path / "data", subjects=0, dims=(8, 8, 8))
    assert not (tmp_path / "data").exists()


def test_generate_dataset_writes_numpy_settings_as_plain_numbers(tmp_path):
    # numpy integers are counts: the manifest holds them as the ints they are
    manifest = vol.generate_dataset(tmp_path, subjects=np.int64(1), dims=np.array([8, 8, 8]),
                                    classes=np.int64(3), modalities=np.int32(2),
                                    spacing=np.array([1, 1, 2], np.float32), seed=np.int64(4))
    assert (manifest["dims"], manifest["classes"], manifest["spacing"]) == ([8, 8, 8], 3,
                                                                            [1.0, 1.0, 2.0])
    assert type(manifest["seed"]) is int
    assert vol.load_manifest(tmp_path)["dims"] == (8, 8, 8)
    assert len(manifest["subjects"][0]["modalities"]) == 2


def test_modalities_have_distinct_profiles():
    sub = vol.synthesize_subject(dims=(32, 32, 32), classes=4, seed=2)
    img, lab = sub["images"], sub["labels"]
    mean0 = [img[..., 0][lab == k].mean() for k in range(4)]
    mean1 = [img[..., 1][lab == k].mean() for k in range(4)]
    assert np.all(np.diff(mean0) > 0)   # first modality brightens with class
    assert np.all(np.diff(mean1) < 0)   # second darkens


def test_generate_dataset_and_loaders(tmp_path):
    manifest = vol.generate_dataset(tmp_path, subjects=2, dims=(16, 16, 16),
                                    classes=3, modalities=2, seed=4)
    assert len(manifest["subjects"]) == 2
    loaded = vol.load_manifest(tmp_path)
    assert loaded["classes"] == 3

    entry = loaded["subjects"][0]
    images = np.stack([vol.read_volume(tmp_path / f)[0] for f in entry["modalities"]],
                      axis=-1)
    labels = vol.read_volume(tmp_path / entry["labels"])[0]
    assert images.shape == (16, 16, 16, 2)
    assert labels.shape == (16, 16, 16)
    # the volumes hold exactly what the generator synthesized
    from mixnet.tensor import derive_seed
    direct = vol.synthesize_subject((16, 16, 16), 3, 2,
                                    seed=derive_seed(4, "subject", 0))
    np.testing.assert_array_equal(images, direct["images"])
    np.testing.assert_array_equal(labels, direct["labels"])

    norm = vol.load_subject(tmp_path, entry)
    assert norm["classes"] == 3
    np.testing.assert_array_equal(norm["labels"], labels)
    assert abs(float(norm["images"][..., 0].mean())) < 1e-4


def test_load_subject_reads_each_sidecar_once_and_all_before_a_body(tmp_path, monkeypatch):
    vol.generate_dataset(tmp_path, subjects=1, dims=(8, 8, 8), classes=3,
                         modalities=2, seed=4)
    entry = vol.load_manifest(tmp_path)["subjects"][0]
    reads = []
    read_meta, read_body = vol.read_meta, vol._read_body
    monkeypatch.setattr(vol, "read_meta",
                        lambda p: reads.append(("meta", str(p))) or read_meta(p))
    monkeypatch.setattr(vol, "_read_body",
                        lambda p, m: reads.append(("body", str(p))) or read_body(p, m))
    subject = vol.load_subject(tmp_path, entry)
    files = [str(tmp_path / f) for f in [*entry["modalities"], entry["labels"]]]
    assert reads == [("meta", f) for f in files] + [("body", f) for f in files]
    assert subject["classes"] == 3 and subject["labels"].shape == (8, 8, 8)

    reads.clear()
    (tmp_path / (entry["labels"] + ".json")).unlink()
    with pytest.raises(DataError, match="missing sidecar header"):
        vol.load_subject(tmp_path, entry)
    assert all(kind == "meta" for kind, _ in reads)


def test_load_manifest_errors(tmp_path):
    with pytest.raises(DataError):
        vol.load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text("{}")
    with pytest.raises(DataError):
        vol.load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_bytes(b"\xff{}")
    with pytest.raises(DataError, match="manifest.json: invalid JSON: .* decode"):
        vol.load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"classes": "4", "spacing": [1, 1, 1], "subjects": []}))
    with pytest.raises(DataError, match="classes='4'"):
        vol.load_manifest(tmp_path)


@pytest.mark.parametrize("entry, problem", [
    ({"id": "s", "modalities": ["a.vol"]}, "missing keys ['labels']"),
    ({"id": "s", "modalities": "a.vol", "labels": "l.vol"}, "modalities='a.vol'"),
    ({"id": "s", "modalities": ["a.vol", 2], "labels": "l.vol"}, "modalities="),
    ({"id": 3, "modalities": ["a.vol"], "labels": "l.vol"}, "id=3"),
    ({"id": "s", "modalities": ["a.vol"], "labels": "l.vol", "x": 1}, "unknown keys"),
    ({"id": "s", "modalities": [], "labels": "l.vol"}, "lists 0 modalities"),
    ({"id": "s", "modalities": ["a.vol", "c.vol"], "labels": "l.vol"},
     "lists 2 modalities"),
    ("s", "must be an object"),
])
def test_load_manifest_checks_each_subject_entry(tmp_path, entry, problem):
    good = {"id": "t", "modalities": ["b.vol"], "labels": "m.vol"}
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"classes": 4, "spacing": [1, 1, 1], "subjects": [good, entry]}))
    with pytest.raises(DataError, match=re.escape("subject 1") + ".*" + re.escape(problem)):
        vol.load_manifest(tmp_path)


# ---------------------------------------------------------------------------
# crash-safe writes


class _TornFile:
    """A file whose first write stores half its bytes and then fails, as a
    full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _write_checkpoint(path, seed):
    from mixnet.arch import NetConfig, Network
    from mixnet.trainer import save_checkpoint
    save_checkpoint(path, Network(NetConfig(variant="v3", classes=3, filters=4), seed=seed))


def _write_volume(path, seed):
    data = np.random.default_rng(seed).normal(size=(4, 5, 6))
    vol.write_volume(path, data, (1, 1, 2), "intensity", modality=f"m{seed}")


def _write_dataset(path, seed):
    vol.generate_dataset(path.parent, subjects=1, dims=(8, 8, 8), classes=3,
                         modalities=1, seed=seed)


def _run_cli(*argv):
    """One command, its errors raised rather than turned into an exit code."""
    args = cli.build_parser().parse_args([str(a) for a in argv])
    args.func(args)


def _write_report(path, seed):
    labels = np.random.default_rng(seed).integers(0, 3, size=(2, 6, 5, 4))
    for name, data in zip(("truth.vol", "pred.vol"), labels):
        vol.write_volume(path.parent / name, data, (1, 1, 2), "labels", classes=3)
    _run_cli("evaluate", "--truth", path.parent / "truth.vol",
             "--pred", path.parent / "pred.vol", "--out", path)


def _write_verify_json(path, seed):
    _run_cli("verify", "--suite", "metrics", "--trials", seed, "--json", path)


# (writer, file it writes, temp file whose write tears, files that must survive)
TORN_WRITES = {
    "evaluate report": (_write_report, "report.json", "report.json.tmp", ["report.json"]),
    "verify summary": (_write_verify_json, "verify.json", "verify.json.tmp", ["verify.json"]),
    "checkpoint": (_write_checkpoint, "ck.bin", "ck.bin.tmp", ["ck.bin"]),
    "volume body": (_write_volume, "a.vol", "a.vol.tmp", ["a.vol", "a.vol.json"]),
    "volume sidecar": (_write_volume, "a.vol", "a.vol.json.tmp", ["a.vol", "a.vol.json"]),
    "manifest": (_write_dataset, "manifest.json", "manifest.json.tmp", ["manifest.json"]),
}


@pytest.mark.parametrize("case", sorted(TORN_WRITES))
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, case):
    write, target, victim, kept = TORN_WRITES[case]
    write(tmp_path / target, seed=1)
    before = {name: (tmp_path / name).read_bytes() for name in kept}

    real_open = open

    def torn_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return _TornFile(fh) if str(file).endswith("/" + victim) else fh

    monkeypatch.setattr(vol, "open", torn_open, raising=False)
    with pytest.raises(OSError):
        write(tmp_path / target, seed=2)
    monkeypatch.undo()

    for name in kept:
        assert (tmp_path / name).read_bytes() == before[name], name
    assert not list(tmp_path.glob("*.tmp"))
    # the same write without the fault replaces the file
    write(tmp_path / target, seed=2)
    assert (tmp_path / target).read_bytes() != before[target]
