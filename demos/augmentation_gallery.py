"""Walk through the augmentation policies one op at a time.

The full policy (used for transverse slices) turns every slice into 15:
the original, four rescales, seven rotations, one elastic warp, one
random translation and a left-right flip. The light policy (sagittal
and coronal) keeps only identity, translation and flip. Labels always
ride along with nearest-neighbor sampling, so no new class ids appear.
"""

import numpy as np

from mixnet import augment, volume

sub = volume.synthesize_subject(dims=(40, 40, 40), classes=4, seed=7)
image = sub["images"][:, :, 20, :]   # one transverse slice, all modalities
label = sub["labels"][:, :, 20]
print(f"slice {image.shape}, labels present: "
      f"{sorted(int(v) for v in np.unique(label))}")

rng = np.random.default_rng(0)
print(f"\n{'op':>18s}  {'labels kept':>11s}  {'fg voxels':>9s}  image range")
for op in augment.policy_ops("full"):
    img2, lab2 = augment.apply_op(image, label, op, rng)
    kept = set(np.unique(lab2)) <= set(np.unique(label)) | {0}
    tag = op[0] if len(op) == 1 else f"{op[0]} {op[1]}"
    print(f"{tag:>18s}  {str(kept):>11s}  {int((lab2 > 0).sum()):>9d}  "
          f"[{img2.min():+.2f}, {img2.max():+.2f}]")

# rotations by multiples of 90 degrees are exact pixel permutations
r90, _ = augment.rotate_slice(image, label, 90)
assert np.array_equal(r90, np.rot90(image, 1))
print("\n90 degree rotation == np.rot90, no interpolation loss")

# the whole-stack expansion keeps originals as the first item per block
images = np.stack([image, image])
labels = np.stack([label, label])
for policy in ("full", "light"):
    aug_i, aug_l = augment.expand_slices(images, labels, policy, seed=1)
    factor = len(augment.policy_ops(policy))
    assert aug_i.shape[0] == images.shape[0] * factor
    assert np.array_equal(aug_i[0], image)
    print(f"policy {policy!r}: {images.shape[0]} slices -> {aug_i.shape[0]}")
