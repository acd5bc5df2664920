import tracemalloc

import numpy as np
import pytest

from mixnet import augment as A
from mixnet.errors import DataError, PolicyError

import oracles


def checkerboard(h=16, w=16, channels=2):
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    lab = ((yy // 2 + xx // 2) % 3).astype(np.uint8)
    img = np.stack([lab * 0.3 + 0.1, 1.0 - lab * 0.2][:channels], axis=-1)
    return img.astype(np.float32), lab


# ---------------------------------------------------------------------------
# policies


def test_policy_counts():
    assert len(A.policy_ops("full")) == 15
    assert len(A.policy_ops("light")) == 3
    ops = A.policy_ops("full")
    kinds = [op[0] for op in ops]
    assert kinds.count("scale") == 4
    assert kinds.count("rotate") == 7
    assert kinds.count("identity") == 1
    assert kinds.count("elastic") == 1
    assert kinds.count("translate") == 1
    assert kinds.count("flip") == 1
    assert ops[0] == ("identity",)


def test_policy_parameters():
    ops = A.policy_ops("full")
    assert tuple(op[1] for op in ops if op[0] == "scale") == (0.9, 0.95, 1.05, 1.1)
    assert tuple(op[1] for op in ops if op[0] == "rotate") == \
        (45, 90, 135, 180, 225, 270, 315)


def test_plane_policy_mapping():
    assert A.policy_for_plane("transverse") == "full"
    assert A.policy_for_plane("sagittal") == "light"
    assert A.policy_for_plane("coronal") == "light"
    with pytest.raises(PolicyError):
        A.policy_for_plane("oblique")
    with pytest.raises(PolicyError):
        A.policy_ops("heavy")


# ---------------------------------------------------------------------------
# geometric ops


def test_rotate_multiples_of_90_are_exact_permutations():
    img, lab = checkerboard()
    for deg, k in ((90, 1), (180, 2), (270, 3)):
        rimg, rlab = A.rotate_slice(img, lab, deg)
        np.testing.assert_array_equal(rimg[:, :, 0], np.rot90(img[:, :, 0], k))
        np.testing.assert_array_equal(rlab, np.rot90(lab, k))
    rimg, rlab = A.rotate_slice(img, lab, 360)
    np.testing.assert_array_equal(rimg, img)


def test_rotate_45_keeps_center_and_zeroes_corners():
    img = np.ones((16, 16, 1), np.float32)
    lab = np.ones((16, 16), np.uint8)
    rimg, rlab = A.rotate_slice(img, lab, 45)
    assert rimg[8, 8, 0] == pytest.approx(1.0)
    assert rimg[0, 0, 0] == 0.0          # corner rotates out of the frame
    assert rlab[0, 0] == 0
    assert set(np.unique(rlab)) <= {0, 1}


def test_rotate_rejects_odd_angles():
    img, lab = checkerboard()
    with pytest.raises(PolicyError):
        A.rotate_slice(img, lab, 30)


def test_scale_identity_and_label_values():
    img, lab = checkerboard()
    s, sl = A.scale_slice(img, lab, 1.0)
    np.testing.assert_array_equal(s, img)
    np.testing.assert_array_equal(sl, lab)
    for f in (0.9, 1.1):
        s, sl = A.scale_slice(img, lab, f)
        # nearest-neighbour labels never invent new classes
        assert set(np.unique(sl)) <= set(np.unique(lab)) | {0}
        assert s.shape == img.shape
    with pytest.raises(PolicyError):
        A.scale_slice(img, lab, 0.0)


def test_scale_down_centers_shrink():
    # a centered impulse survives shrinking in place
    img = np.zeros((17, 17, 1), np.float32)
    img[8, 8, 0] = 1.0
    lab = (img[:, :, 0] > 0).astype(np.uint8)
    s, sl = A.scale_slice(img, lab, 0.9)
    assert s[8, 8, 0] == pytest.approx(1.0)
    assert sl[8, 8] == 1


def test_translate_is_exact():
    img, lab = checkerboard()
    t, tl = A.translate_slice(img, lab, 2, -3)
    np.testing.assert_array_equal(t[2:, :-3], img[:-2, 3:])
    np.testing.assert_array_equal(tl[2:, :-3], lab[:-2, 3:])
    assert not t[:2].any()
    assert not t[:, -3:].any()


def test_flip_is_an_involution():
    img, lab = checkerboard()
    f, fl = A.flip_slice(img, lab)
    np.testing.assert_array_equal(f, img[:, ::-1])
    ff, ffl = A.flip_slice(f, fl)
    np.testing.assert_array_equal(ff, img)
    np.testing.assert_array_equal(ffl, lab)


def test_elastic_is_seeded_and_preserves_label_set():
    img, lab = checkerboard()
    e1, el1 = A.elastic_slice(img, lab, np.random.default_rng(3))
    e2, el2 = A.elastic_slice(img, lab, np.random.default_rng(3))
    e3, _ = A.elastic_slice(img, lab, np.random.default_rng(4))
    np.testing.assert_array_equal(e1, e2)
    assert not np.array_equal(e1, e3)
    assert not np.array_equal(e1, img)       # it actually warps
    assert set(np.unique(el1)) <= set(np.unique(lab))
    assert e1.shape == img.shape


def test_elastic_zero_alpha_is_identity():
    img, lab = checkerboard()
    e, el = A.elastic_slice(img, lab, np.random.default_rng(0), alpha=0.0)
    np.testing.assert_array_equal(e, img)
    np.testing.assert_array_equal(el, lab)


# ---------------------------------------------------------------------------
# expansion


def test_expand_counts_and_block_layout():
    rng = np.random.default_rng(5)
    images = rng.normal(size=(3, 12, 12, 2)).astype(np.float32)
    labels = rng.integers(0, 3, size=(3, 12, 12)).astype(np.uint8)

    full_img, full_lab = A.expand_slices(images, labels, "full", seed=1)
    assert full_img.shape == (45, 12, 12, 2)
    assert full_lab.shape == (45, 12, 12)

    light_img, light_lab = A.expand_slices(images, labels, "light", seed=1)
    assert light_img.shape == (9, 12, 12, 2)

    # every block starts with the untouched original
    for i in range(3):
        np.testing.assert_array_equal(full_img[i * 15], images[i])
        np.testing.assert_array_equal(full_lab[i * 15], labels[i])
        np.testing.assert_array_equal(light_img[i * 3], images[i])


def test_expand_is_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(6)
    images = rng.normal(size=(2, 12, 12, 1)).astype(np.float32)
    labels = rng.integers(0, 2, size=(2, 12, 12)).astype(np.uint8)
    a_img, a_lab = A.expand_slices(images, labels, "full", seed=7)
    b_img, b_lab = A.expand_slices(images, labels, "full", seed=7)
    np.testing.assert_array_equal(a_img, b_img)
    np.testing.assert_array_equal(a_lab, b_lab)

    c_img, _ = A.expand_slices(images, labels, "full", seed=8)
    ops = A.policy_ops("full")
    for j, op in enumerate(ops):
        same = np.array_equal(a_img[j], c_img[j])
        if op[0] in ("identity", "scale", "rotate", "flip"):
            assert same, op       # deterministic ops ignore the seed
        else:
            assert not same, op   # translate / elastic depend on it


def test_expand_validates_shapes():
    with pytest.raises(DataError):
        A.expand_slices(np.zeros((2, 8, 8)), np.zeros((2, 8, 8)), "light")
    with pytest.raises(DataError):
        A.expand_slices(np.zeros((2, 8, 8, 1)), np.zeros((2, 8, 9)), "light")


def test_augmented_slices_keep_dtype():
    images = np.zeros((1, 8, 8, 1), np.float32)
    labels = np.zeros((1, 8, 8), np.uint8)
    img, lab = A.expand_slices(images, labels, "full", seed=0)
    assert img.dtype == np.float32
    assert lab.dtype == np.uint8


# ---------------------------------------------------------------------------
# the expansion as a view


def _source(seed, n=3, size=12, channels=2):
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(n, size, size, channels)).astype(np.float32)
    labels = rng.integers(0, 4, size=(n, size, size)).astype(np.uint8)
    return images, labels


@pytest.mark.parametrize("policy", ["full", "light"])
def test_view_materialises_to_the_naive_stack(policy):
    images, labels = _source(8)
    img, lab = A.expand_slices(images, labels, policy, seed=4)
    want_img, want_lab = oracles.expand_slices_naive(images, labels, policy, seed=4)
    got_img, got_lab = np.asarray(img), np.asarray(lab)
    assert got_img.dtype == want_img.dtype and got_lab.dtype == want_lab.dtype
    np.testing.assert_array_equal(got_img, want_img)
    np.testing.assert_array_equal(got_lab, want_lab)


def test_view_indexing_matches_the_stack():
    images, labels = _source(9)
    img, lab = A.expand_slices(images, labels, "full", seed=2)
    want_img, want_lab = oracles.expand_slices_naive(images, labels, "full", seed=2)
    assert img.shape == want_img.shape and lab.shape == want_lab.shape
    assert len(img) == 45 and img.ndim == 4 and lab.ndim == 3
    assert img.dtype == np.float32 and lab.dtype == np.uint8
    assert img.nbytes == images.nbytes and lab.nbytes == labels.nbytes
    for index in (0, 17, 44, -1, -45, np.int64(30)):
        np.testing.assert_array_equal(img[index], want_img[index])
        np.testing.assert_array_equal(lab[index], want_lab[index])
    for index in (slice(None), slice(3, 20, 4), slice(None, None, -7), slice(50, 60)):
        np.testing.assert_array_equal(img[index], want_img[index])
        np.testing.assert_array_equal(lab[index], want_lab[index])
    # repeated and unordered indices, as an array and as a list, read in
    # the image/label order Trainer uses, twice from one view, and reversed
    for index in (np.array([5, 5, 44, 0, 5]), [12, 3, 12], np.array([-2, 1])):
        for view, want in ((img, want_img), (img, want_img), (lab, want_lab),
                           (lab, want_lab), (img, want_img)):
            np.testing.assert_array_equal(view[index], want[index])
    got = img[np.array([], dtype=np.int64)]
    assert got.shape == (0, 12, 12, 2)


def test_view_rejects_bad_indices():
    images, labels = _source(10, n=2)
    img, lab = A.expand_slices(images, labels, "light", seed=0)
    for index in (6, -7, np.array([0, 6]), np.array([-7]), [1, 100]):
        with pytest.raises(IndexError):
            img[index]
        with pytest.raises(IndexError):
            lab[index]
    for index in (np.zeros((2, 2), np.int64), np.array([0.0, 1.0]), (0, 1)):
        with pytest.raises(IndexError):
            img[index]


def test_view_allocates_the_source_plus_one_batch():
    # full policy over 96x96 slices: the stack would be 15x the source
    images, labels = _source(11, n=8, size=96, channels=3)
    batch = np.array([0, 20, 61, 119])          # one of each kind of op
    batch_bytes = (images.nbytes + labels.nbytes) * batch.size // images.shape[0]
    tracemalloc.start()
    try:
        img, lab = A.expand_slices(images, labels, "full", seed=3)
        x, y = img[batch], lab[batch]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.shape == (4, 96, 96, 3) and y.shape == (4, 96, 96)
    assert peak <= images.nbytes + labels.nbytes + batch_bytes, peak
