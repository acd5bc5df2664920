"""Train a small network on synthetic slices, checkpoint it, resume it.

Uses the narrowest variant (v3, per-stream width 8) on a handful of
transverse slices so the whole script runs in well under a minute.
The resume at the end continues bit-exactly: parameters, optimizer
velocities and the batch-order RNG all come back from the file.
"""

import os
import tempfile

import numpy as np

from mixnet import volume
from mixnet.arch import NetConfig, Network
from mixnet.trainer import (TrainConfig, Trainer, load_checkpoint,
                            resume_trainer, save_checkpoint)

sub = volume.synthesize_subject(dims=(32, 32, 32), classes=4, seed=3)
images = volume.slice_stack(sub["images"], "transverse")[10:22]
labels = volume.slice_stack(sub["labels"], "transverse")[10:22]
print(f"training set: {images.shape[0]} slices of "
      f"{images.shape[1]}x{images.shape[2]}")

config = TrainConfig(epochs=4, batch_size=4, lr0=2e-4, momentum=0.99,
                     weight_decay=1e-3, use_lr_schedule=False, seed=0)
net = Network(NetConfig(variant="v3", classes=4, filters=8), seed=0)
print(f"network: v3, {net.param_count} parameters")

trainer = Trainer(net, images, labels, config,
                  val=(images[:2], labels[:2]))
for row in trainer.fit():
    print(f"epoch {row['epoch']}: loss {row['loss']:.4f} "
          f"val dice {row.get('val_dice_mean', float('nan')):.3f}")

ckpt = os.path.join(tempfile.mkdtemp(prefix="mixnet_demo_"), "net.ckpt")
save_checkpoint(ckpt, net, trainer)
print(f"\ncheckpoint: {ckpt} ({os.path.getsize(ckpt)} bytes)")

# train two more epochs in this process...
trainer.config.epochs = 6
straight = trainer.fit()

# ...and the same two epochs in a "new process" via the checkpoint
resumed = resume_trainer(ckpt, images, labels)
resumed.config.epochs = 6
resumed.fit()

for name, p in net.store.items():
    np.testing.assert_array_equal(p.data, resumed.net.store[name].data)
print("resumed run matches the uninterrupted one exactly, "
      f"loss {straight[-1]['loss']:.4f} both ways")
