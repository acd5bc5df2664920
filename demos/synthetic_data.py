"""Make a small synthetic dataset and look at what is in it.

Subjects are concentric deformed shells: class 0 is background, classes
1..K-1 are nested tissue layers. Each modality maps the same anatomy
through a different intensity profile, with its own bias field and
noise, so no single modality separates all classes on its own.
"""

import os
import tempfile

import numpy as np

from mixnet import volume

out = os.path.join(tempfile.mkdtemp(prefix="mixnet_demo_"), "data")
manifest = volume.generate_dataset(out, subjects=2, dims=(48, 48, 48),
                                   classes=4, seed=42)
print(f"dataset at {out}")
print(f"classes={manifest['classes']} spacing={manifest['spacing']}")

for entry in manifest["subjects"]:
    sub = volume.load_subject(out, entry)
    labels = sub["labels"]
    frac = np.bincount(labels.ravel(), minlength=4) / labels.size
    print(f"\n{entry['id']}: images {sub['images'].shape}")
    print("  class voxel fractions:", np.round(frac, 3))
    # mean normalized intensity of each modality inside each class:
    # columns should differ between modalities, that is the point
    for m in range(sub["images"].shape[-1]):
        mod = sub["images"][..., m]
        means = [mod[labels == k].mean() for k in range(4)]
        print(f"  mod{m} class means:", np.round(means, 2))

# volumes round-trip exactly through the raw + sidecar container
entry = manifest["subjects"][0]
path = os.path.join(out, entry["modalities"][0])
data, meta = volume.read_volume(path)
print(f"\n{entry['modalities'][0]}: dims={meta.dims} dtype={meta.dtype} "
      f"kind={meta.kind}")

# slicing a volume along each anatomical plane and stacking it back
# is exact, which is what multi-plane training relies on
img = sub["images"]
for plane in volume.PLANES:
    stack = volume.slice_stack(img, plane)
    assert np.array_equal(np.moveaxis(stack, 0, volume.plane_axis(plane)), img)
    print(f"{plane:11s}: {stack.shape[0]} slices of "
          f"{stack.shape[1]}x{stack.shape[2]}")
