import json

import numpy as np
import pytest

from mixnet import metrics as M, verify
from mixnet.errors import DataError, ParameterError

import oracles


# ---------------------------------------------------------------------------
# overlap metrics


def test_dice_hand_values():
    a = np.zeros((4, 4, 4), bool)
    b = np.zeros((4, 4, 4), bool)
    a[:2] = True          # 32 voxels
    b[1:3] = True         # 32 voxels, overlap 16
    assert M.dice_binary(a, b) == pytest.approx(2 * 16 / 64)
    assert M.dice_binary(a, a) == 1.0
    assert M.dice_binary(a, ~a) == 0.0
    assert M.dice_binary(np.zeros((2, 2, 2), bool), np.zeros((2, 2, 2), bool)) == 1.0
    with pytest.raises(DataError):
        M.dice_binary(a, b[:2])


def test_volumetric_similarity_hand_values():
    a = np.zeros((4, 4, 4), bool)
    b = np.zeros((4, 4, 4), bool)
    a[0] = True               # 16
    b[3, :2] = True           # 8, no overlap
    assert M.volumetric_similarity(a, b) == pytest.approx(1 - 8 / 24)
    # position does not matter, only counts
    b2 = np.zeros((4, 4, 4), bool)
    b2[2] = True
    assert M.volumetric_similarity(a, b2) == 1.0
    assert M.volumetric_similarity(a, np.zeros_like(a)) == 0.0
    empty = np.zeros((3, 3, 3), bool)
    assert M.volumetric_similarity(empty, empty) == 1.0


# ---------------------------------------------------------------------------
# surfaces


def test_surface_of_solid_cube_excludes_interior():
    mask = np.zeros((5, 5, 5), bool)
    mask[1:4, 1:4, 1:4] = True
    surf = M.surface_voxels(mask)
    assert surf.shape == (26, 3)          # 3^3 cube minus its center
    assert not (surf == [2, 2, 2]).all(axis=1).any()


def test_surface_at_volume_boundary():
    # a full volume: everything touching the array edge is surface
    mask = np.ones((3, 3, 3), bool)
    surf = M.surface_voxels(mask)
    assert surf.shape == (26, 3)
    single = np.zeros((3, 3, 3), bool)
    single[1, 1, 1] = True
    assert M.surface_voxels(single).shape == (1, 3)


def test_surface_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mask = rng.random(size=(6, 7, 5)) < 0.4
        got = M.surface_voxels(mask)
        want = oracles.surface_voxels_naive(mask)
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# hd95


def test_hd95_identical_masks_is_zero():
    mask = np.zeros((6, 6, 6), bool)
    mask[2:5, 2:5, 2:5] = True
    assert M.hd95(mask, mask) == 0.0


def test_hd95_single_voxels_and_spacing():
    a = np.zeros((8, 8, 8), bool)
    b = np.zeros((8, 8, 8), bool)
    a[1, 4, 4] = True
    b[5, 4, 4] = True
    assert M.hd95(a, b) == pytest.approx(4.0)
    assert M.hd95(a, b, spacing=(2.0, 1.0, 1.0)) == pytest.approx(8.0)
    assert M.hd95(a, b, spacing=(1.0, 3.0, 0.5)) == pytest.approx(4.0)


def test_hd95_nearest_rank_picks_the_outlier_at_10_points():
    # 9 matching voxels plus one stray: rank ceil(.95*10)-1 = 9 hits the stray
    a = np.zeros((4, 16, 4), bool)
    b = np.zeros((4, 16, 4), bool)
    a[1, 0:9, 1] = True
    b[1, 0:9, 1] = True
    a[1, 15, 1] = True
    got = M.hd95(a, b)
    assert got == pytest.approx(7.0)      # stray at y=15, nearest mask at y=8
    # with the stray removed everything is identical again
    a[1, 15, 1] = False
    assert M.hd95(a, b) == 0.0


def test_hd95_empty_masks_are_undefined():
    empty = np.zeros((4, 4, 4), bool)
    full = np.ones((4, 4, 4), bool)
    assert M.hd95(empty, full) is None
    assert M.hd95(full, empty) is None
    assert M.hd95(empty, empty) is None


def test_hd95_rejects_bad_spacing():
    mask = np.ones((3, 3, 3), bool)
    with pytest.raises(ParameterError):
        M.hd95(mask, mask, spacing=(1.0, 0.0, 1.0))
    with pytest.raises(ParameterError):
        M.hd95(mask, mask, spacing=(1.0, 1.0))
    for bad in (np.inf, np.nan):
        with pytest.raises(ParameterError, match="finite positive"):
            M.hd95(mask, mask, spacing=(1.0, bad, 1.0))


def test_hd95_checks_spacing_and_shapes_before_empty_masks():
    empty = np.zeros((4, 4, 4), bool)
    full = np.ones((4, 4, 4), bool)
    with pytest.raises(ParameterError):
        M.hd95(empty, full, spacing=(1.0, 0.0, 1.0))
    with pytest.raises(ParameterError):
        M.hd95(empty, full, spacing=(1.0, 1.0))
    with pytest.raises(DataError):
        M.hd95(np.ones((5, 5, 5), bool), np.ones((9, 9, 9), bool))
    with pytest.raises(DataError):
        M.hd95(empty, np.zeros((4, 4, 5), bool))


@pytest.mark.parametrize("metric", [M.dice_binary, M.volumetric_similarity, M.hd95])
def test_every_mask_metric_rejects_masks_of_two_shapes(metric):
    with pytest.raises(DataError, match=r"^mask shapes differ"):
        metric(np.ones((4, 4, 4), bool), np.ones((4, 4, 5), bool))


def assert_hd95_exact(a, b, spacing):
    want = oracles.hd95_naive(a, b, spacing)
    assert want is not None
    assert M.hd95(a, b, spacing) == want, f"{M.hd95(a, b, spacing)!r} != {want!r}"
    assert M.hd95(b, a, spacing) == want
    return want


def test_hd95_near_tie_offsets_at_isotropic_spacing():
    # (0,3,4) and (0,0,5) voxels are both 3.5 mm away at 0.7 mm, but the
    # pinned expression gives the first 3.4999999999999996 and the second 3.5
    c = np.array([6, 6, 6])
    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)):
        for flip in ((1, 1, 1), (-1, 1, -1), (1, -1, -1)):
            near = tuple(c + np.array([0, 3, 4])[list(perm)] * flip)
            far = tuple(c + np.array([0, 0, 5])[list(perm)] * flip)
            b = np.zeros((13, 13, 13), bool)
            b[near] = b[far] = True
            a = b.copy()
            a[tuple(c)] = True    # its distance to b is the rank value
            assert assert_hd95_exact(a, b, (0.7, 0.7, 0.7)) == 3.4999999999999996
            single = np.zeros_like(b)
            single[tuple(c)] = True
            b[near] = False
            assert assert_hd95_exact(single, b, (0.7, 0.7, 0.7)) == 3.5


def test_hd95_near_ties_the_distance_transform_misses():
    for dims, s, src, offsets in verify.NEAR_TIE_CASES:
        a, b = verify.near_tie_pair(dims, src, offsets)
        assert_hd95_exact(a, b, (s, s, s))


def test_hd95_identical_masks_at_non_integer_spacing():
    rng = np.random.default_rng(2)
    for spacing in ((0.7, 0.7, 0.7), (0.958, 0.958, 3.0), (1.3, 0.6, 2.2)):
        for _ in range(5):
            a = rng.random(size=tuple(rng.integers(3, 12, size=3))) < 0.4
            if a.any():
                assert assert_hd95_exact(a, a.copy(), spacing) == 0.0


def test_hd95_box_against_shifted_copies():
    # a shifted copy puts a large share of the surface at one distance,
    # so many entries tie with the rank value
    box = np.zeros((14, 14, 14), bool)
    box[4:9, 3:8, 4:10] = True
    for shift in ((2, 0, 0), (3, 4, 0), (1, 2, 2)):
        moved = np.roll(box, shift, axis=(0, 1, 2))
        for spacing in ((0.7, 0.7, 0.7), (0.958, 0.958, 3.0), (1.0, 1.0, 1.0),
                        (0.3, 0.3, 0.3)):
            assert_hd95_exact(box, moved, spacing)


def test_hd95_one_far_outlier_voxel():
    # a line of 9 shared voxels plus a stray: at 10 points the nearest
    # rank is the stray; next to a 98-voxel box surface it falls past it
    line = np.zeros((16, 16, 20), bool)
    line[1, 0:9, 1] = True
    box = np.zeros_like(line)
    box[2:7, 2:7, 2:7] = True
    for shared in (line, box):
        stray = shared.copy()
        stray[15, 15, 19] = True
        for spacing in ((0.7, 0.7, 0.7), (0.958, 0.958, 3.0)):
            got = assert_hd95_exact(stray, shared, spacing)
            assert (got > 10.0) if shared is line else (got == 0.0)


def test_hd95_random_masks_at_isotropic_non_integer_spacing():
    rng = np.random.default_rng(7)
    defined = 0
    for trial in range(120):
        dims = tuple(rng.integers(3, 21, size=3))
        a = rng.random(size=dims) < rng.uniform(0.02, 0.5)
        b = rng.random(size=dims) < rng.uniform(0.02, 0.5)
        got = M.hd95(a, b, (0.7, 0.7, 0.7))
        want = oracles.hd95_naive(a, b, (0.7, 0.7, 0.7))
        if want is None:
            assert got is None
        else:
            assert got == want, f"trial {trial}: {got!r} != {want!r}"
            defined += 1
    assert defined >= 100


# ---------------------------------------------------------------------------
# reports


def make_pair(seed=0, classes=4, dims=(8, 8, 8)):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, classes, size=dims)
    pred = truth.copy()
    flip = rng.random(size=dims) < 0.1
    pred[flip] = rng.integers(0, classes, size=int(flip.sum()))
    return pred, truth


def test_evaluate_segmentation_report_shape():
    pred, truth = make_pair()
    report = M.evaluate_segmentation(pred, truth, classes=4, spacing=(1, 1, 1))
    assert [c.class_id for c in report.classes] == [1, 2, 3]
    for row in report.classes:
        assert 0.0 <= row.dice <= 1.0
        assert 0.0 <= row.vs <= 1.0
        assert row.hd95_mm is not None
    assert report.overall > 0


def test_perfect_prediction_scores_sum_of_weights():
    _, truth = make_pair(seed=3)
    report = M.evaluate_segmentation(truth, truth, classes=4)
    for row in report.classes:
        assert row.dice == 1.0
        assert row.hd95_mm == 0.0
        assert row.vs == 1.0
    assert report.overall == pytest.approx(3.0)


def test_score_class_undefined_distance_conventions():
    both_empty = M.ClassResult(1, 1.0, None, 1.0, 0, 0)
    one_empty = M.ClassResult(1, 0.0, None, 0.0, 5, 0)
    assert M.score_class(both_empty) == pytest.approx(3.0)
    assert M.score_class(one_empty) == pytest.approx(0.0)
    present = M.ClassResult(1, 1.0, 1.0, 1.0, 9, 9)
    assert M.score_class(present) == pytest.approx(1 + 0.5 + 1)


def test_report_json_round_trip_and_table():
    pred, truth = make_pair(seed=5)
    report = M.evaluate_segmentation(pred, truth, classes=4, spacing=(1, 0.9, 1.2))
    doc = json.loads(report.to_json())
    assert doc == {"classes": [vars(c) for c in report.classes],
                   "spacing": [1.0, 0.9, 1.2], "weights": list(report.weights),
                   "overall": report.overall}
    table = report.format_table()
    assert "overall score" in table
    assert len(table.splitlines()) == 5


def test_report_handles_absent_class():
    truth = np.zeros((6, 6, 6), np.int64)
    truth[2:4, 2:4, 2:4] = 1
    pred = truth.copy()
    report = M.evaluate_segmentation(pred, truth, classes=3)
    absent = report.classes[1]
    assert absent.class_id == 2
    assert absent.dice == 1.0
    assert absent.hd95_mm is None
    assert absent.vs == 1.0
    assert "n/a" in report.format_table()
    assert report.overall == pytest.approx(3.0)


def test_evaluate_validates_input():
    pred, truth = make_pair()
    with pytest.raises(DataError):
        M.evaluate_segmentation(pred[:4], truth, classes=4)
    with pytest.raises(DataError):
        M.evaluate_segmentation(pred, truth, classes=3)  # labels reach 3
    with pytest.raises(ParameterError):
        M.evaluate_segmentation(pred % 2, truth % 2, classes=1)


def test_evaluate_rejects_negative_and_non_integer_labels():
    pred, truth = make_pair()
    negative = pred.copy()
    negative[0, 0, 0] = -1       # would count as background
    halves = truth.astype(np.float64)
    halves[0, 0, 0] = 0.5        # would match no class
    for p, t, name in ((negative, truth, "prediction"), (pred, halves, "truth"),
                       (truth, negative, "truth"), (halves, truth, "prediction")):
        with pytest.raises(DataError, match=f"^{name} labels "):
            M.evaluate_segmentation(p, t, classes=4)
    # a float volume is refused even when its values are whole
    with pytest.raises(DataError, match="^prediction labels must be integers"):
        M.evaluate_segmentation(pred.astype(np.float32), truth, classes=4)


def test_evaluate_takes_the_class_counts_a_label_volume_can_hold():
    pred, truth = make_pair()
    for classes in (1, 257):
        with pytest.raises(ParameterError, match=rf"^classes must be an integer in \[2, 256\], "
                                                 rf"got {classes}$"):
            M.evaluate_segmentation(pred, truth, classes)
