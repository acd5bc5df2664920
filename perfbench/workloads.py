"""The three workloads: inputs, set-up, rounds of operations, checks.

Each workload drives the library's public functions in the order the
matching ``mixnet`` subcommands use them, always through the module
attribute (``volume.read_volume(...)``) so that a traced run can wrap it.

* ``train-v1``   - ``mixnet train``: one operation is one training step.
* ``segment-v2`` - ``mixnet predict`` (three planes) + ``mixnet fuse``:
  one operation turns one subject's loaded modality volumes into its
  fused label volume on disk.
* ``evaluate``   - ``mixnet evaluate``: one operation scores one
  prediction/truth pair.
"""

from __future__ import annotations

import os

import numpy as np

import checks
from checks import require

# Shaped like MRBrainS18 (7 training and 23 test subjects, 3 modalities,
# 4 classes here, thick transverse slices), with the in-plane size cut from
# 240 to 48.  Z = 24 is the least depth whose sagittal and coronal slices
# survive the 2x pool and the 12-bin pyramid pool.
GRID = (48, 48, 24)
SPACING = (0.958, 0.958, 3.0)
CLASSES = 4
MODALITIES = 3
TRAIN_SUBJECTS = 7
HELD_OUT = 23
PLANES = ("sagittal", "coronal", "transverse")
FUSE_WEIGHTS = (1.0, 1.0, 4.0)     # the CLI's sagittal:coronal:transverse default
PREDICT_BATCH = 8                  # the CLI's predict default
# evaluate: the prediction redraws the truth's subject with this shape
# deformation (the dataset uses 0.12), then flips this share of voxels
PRED_DEFORM = 0.3
FLIP_RATE = 0.001
# evaluate scores the pairs of the first 8 held-out subjects, about 10 s a
# round, so that each pair is timed at least twice within a run
EVAL_PAIRS = 8


def prepare_dataset(m, work_dir: str, seed: int) -> tuple[str, dict]:
    data = os.path.join(work_dir, "data")
    manifest = m.volume.generate_dataset(
        data, subjects=TRAIN_SUBJECTS + HELD_OUT, dims=GRID, classes=CLASSES,
        modalities=MODALITIES, spacing=SPACING, seed=seed)
    return data, manifest


class Workload:
    """One workload.  ``prepare`` makes the inputs (untimed); ``setup`` is
    timed and repeated; ``warmup`` runs untimed operations; ``round(r)``
    lists the (input key, operation) pairs of round r; ``check(trace)``
    raises CheckFailed or returns what it checked."""

    name = ""
    op_label = ""
    figure = ("", "")    # the workload's own name and unit for its op_s figure
    warmup_ops = 1
    min_ops = 1

    def __init__(self, m, work_dir: str, seed: int):
        self.m = m
        self.work_dir = work_dir
        self.seed = seed
        self.extras: dict = {}      # per-layer values the workload measures itself

    def figure_value(self, op_s: float) -> float:
        return op_s


class TrainV1(Workload):
    """MixNetv1 at its default width (72-channel trunk, 1800-channel head
    input) trained through Trainer on the untrimmed transverse slices of
    the 7 training subjects under the full 15x augmentation policy.

    The first 10 steps are not timed: at the default rate they swing the
    logits by up to +-170, so the loss gradient carries float32
    subnormals and backward runs 30-50 % slower, by an amount that depends
    on the seed; the swing is largest in those first steps.
    """

    name = "train-v1"
    op_label = "step"
    figure = ("slices_per_s", "1/s")
    warmup_ops = 10
    min_ops = 9          # the loss check compares thirds of the timed steps

    def prepare(self) -> None:
        self.data, manifest = prepare_dataset(self.m, self.work_dir, self.seed)
        self.entries = manifest["subjects"][:TRAIN_SUBJECTS]

    def setup(self) -> None:
        m, seed = self.m, self.seed
        self.trainer = None                 # release the previous repetition first
        images, labels = [], []
        for entry in self.entries:
            sub = m.volume.load_subject(self.data, entry)
            images.append(m.volume.slice_stack(sub["images"], "transverse"))
            labels.append(m.volume.slice_stack(sub["labels"], "transverse"))
        images = np.concatenate(images, axis=0)
        labels = np.concatenate(labels, axis=0)
        images, labels = m.augment.expand_slices(
            images, labels, m.augment.policy_for_plane("transverse"),
            seed=m.tensor.derive_seed(seed, "augment"))
        net = m.arch.Network(m.arch.NetConfig(variant="v1", modalities=MODALITIES,
                                              classes=CLASSES),
                             seed=m.tensor.derive_seed(seed, "params"))
        config = m.trainer.TrainConfig(seed=m.tensor.derive_seed(seed, "batches"),
                                       val_every=0).validate()
        self.trainer = m.trainer.Trainer(net, images, labels, config)
        self.extras["augment.stack_mb"] = (images.nbytes + labels.nbytes) / 1e6
        self.order = self.trainer.rng.permutation(images.shape[0])
        self.pos = 0
        self.losses: list[float] = []

    def step(self) -> None:
        """The body of Trainer.train_one_epoch for one batch."""
        m, tr = self.m, self.trainer
        bs = tr.config.batch_size
        if self.pos + bs > self.order.size:                    # next epoch
            self.order, self.pos = tr.rng.permutation(self.order.size), 0
        idx = self.order[self.pos:self.pos + bs]
        self.pos += bs
        logits = tr.net.forward(tr.images[idx])
        loss = m.ops.softmax_cross_entropy(logits, tr.labels[idx],
                                           tr.config.loss_reduction)
        value = float(loss.data)
        if not np.isfinite(value):
            raise m.errors.TrainingDiverged(f"loss became {value} at step {tr.step_count}")
        tr.optimizer.zero_grad()
        m.autodiff.backward(loss)
        tr.optimizer.step(tr.current_lr())
        tr.step_count += 1
        self.losses.append(value)

    def warmup(self) -> None:
        self.step()
        self.timed_from = len(self.losses)

    def figure_value(self, op_s: float) -> float:
        return self.trainer.config.batch_size / op_s

    def round(self, r: int) -> list:
        return [("step", self.step)]

    def check(self, trace: bool) -> list:
        m, tr = self.m, self.trainer
        timed = self.losses[self.timed_from:]
        third = len(timed) // 3
        first, last = np.median(timed[:third]), np.median(timed[-third:])
        require(last < first, f"loss did not fall over {len(timed)} timed steps: "
                              f"median {first:.4f} in the first third, {last:.4f} in the last")
        for name, p in tr.net.store.items():
            require(bool(np.all(np.isfinite(p.data))), f"parameter {name} is not finite")
        path = os.path.join(self.work_dir, "checkpoint.ckpt")
        m.trainer.save_checkpoint(path, tr.net, tr)
        batch = self.order[:tr.config.batch_size]
        reloaded = m.trainer.load_network(path).forward(tr.images[batch]).data
        require(np.array_equal(reloaded, tr.net.forward(tr.images[batch]).data),
                "reloaded checkpoint gives different logits")
        if trace:
            loss = m.ops.softmax_cross_entropy(tr.net.forward(tr.images[batch]),
                                               tr.labels[batch], tr.config.loss_reduction)
            self.extras["arch.graph_nodes"] = len(m.autodiff.topo_order(loss))
        return [f"loss fell from {first:.4f} to {last:.4f} (medians of the first and "
                f"last third of {len(timed)} timed steps)",
                "every parameter finite",
                "checkpoint reloads to bit-identical logits"]


class SegmentV2(Workload):
    """A seeded MixNetv2 checkpoint segments each held-out subject: three
    plane predictions written as probability volumes, read back and fused
    1:1:4 into a label volume."""

    name = "segment-v2"
    op_label = "subject"
    figure = ("segment_s", "s")

    def prepare(self) -> None:
        m = self.m
        self.data, manifest = prepare_dataset(m, self.work_dir, self.seed)
        self.entries = manifest["subjects"][TRAIN_SUBJECTS:]
        net = m.arch.Network(m.arch.NetConfig(variant="v2", modalities=MODALITIES,
                                              classes=CLASSES),
                             seed=m.tensor.derive_seed(self.seed, "params"))
        self.ckpt = os.path.join(self.work_dir, "v2.ckpt")
        m.trainer.save_checkpoint(self.ckpt, net)
        self.out_dir = os.path.join(self.work_dir, "segment")
        os.makedirs(self.out_dir)
        self.read_back: dict = {}

    def setup(self) -> None:
        m = self.m
        self.net = m.trainer.load_network(self.ckpt)
        self.subjects = [m.volume.load_subject(self.data, e) for e in self.entries]

    def segment(self, sub: dict) -> None:
        m, net = self.m, self.net
        paths = []
        for plane in PLANES:
            probs = m.volume.predict_volume(net, sub["images"], plane,
                                            batch_size=PREDICT_BATCH)
            path = os.path.join(self.out_dir, f"{sub['id']}_{plane}.vol")
            m.volume.write_volume(path, probs, sub["spacing"], "probs",
                                  classes=net.config.classes)
            paths.append(path)
        vols = []
        for path in paths:
            data, meta = m.volume.read_volume(path)
            if meta.kind != "probs":
                raise m.errors.DataError(f"{path}: expected probabilities")
            vols.append(data)
        labels, _ = m.volume.fuse_predictions(vols, FUSE_WEIGHTS)
        m.volume.write_volume(os.path.join(self.out_dir, f"{sub['id']}_fused.vol"),
                              labels, sub["spacing"], "labels", classes=net.config.classes)
        self.read_back[sub["id"]] = vols

    def warmup(self) -> None:
        self.segment(self.subjects[0])

    def round(self, r: int) -> list:
        sub = self.subjects[r % len(self.subjects)]
        return [("subject", lambda: self.segment(sub))]

    def check(self, trace: bool) -> list:
        rng = np.random.default_rng(self.seed)
        decided = slices = 0
        done = [sub for sub in self.subjects if sub["id"] in self.read_back]
        for sub in done:
            vols = self.read_back[sub["id"]]
            for plane, vol in zip(PLANES, vols):
                checks.check_probs(vol, f"{sub['id']} {plane}")
            body = os.path.join(self.out_dir, f"{sub['id']}_fused.vol")
            labels = np.fromfile(body, dtype=np.uint8).reshape(vols[0].shape[:3])
            decided += checks.check_fusion(vols, FUSE_WEIGHTS, labels, sub["id"])
            for axis, (plane, vol) in enumerate(zip(PLANES, vols)):
                for i in rng.choice(vol.shape[axis], size=2, replace=False):
                    alone = self.net.predict_probs(
                        np.moveaxis(np.take(sub["images"], [i], axis=axis), axis, 0))
                    batched = np.take(vol, i, axis=axis)
                    err = float(np.abs(alone[0] - batched).max())
                    require(err <= 1e-5, f"{sub['id']} {plane} slice {i}: alone vs "
                                         f"batched prediction differ by {err:.2e}")
                    slices += 1
        return [f"{3 * len(done)} probability volumes non-negative, sum to 1",
                f"fused labels match the float64 1:1:4 argmax on {decided} voxels",
                f"{slices} slices predicted alone match their batch within 1e-5"]


class Evaluate(Workload):
    """evaluate_segmentation on prediction/truth label pairs of the first
    EVAL_PAIRS held-out subjects on the anisotropic grid."""

    name = "evaluate"
    op_label = "pair"
    figure = ("score_s", "s")
    min_ops = 2 * EVAL_PAIRS

    def prepare(self) -> None:
        m = self.m
        self.data, manifest = prepare_dataset(m, self.work_dir, self.seed)
        self.pairs = []
        held_out = manifest["subjects"][TRAIN_SUBJECTS:TRAIN_SUBJECTS + EVAL_PAIRS]
        for i, entry in enumerate(held_out, start=TRAIN_SUBJECTS):
            # generate_dataset seeds subject i with derive_seed(seed, "subject", i)
            pred = m.volume.synthesize_subject(
                GRID, CLASSES, MODALITIES, SPACING, deform=PRED_DEFORM,
                seed=m.tensor.derive_seed(self.seed, "subject", i))["labels"]
            rng = np.random.default_rng([self.seed, i])
            flips = rng.random(pred.shape) < FLIP_RATE
            pred[flips] = rng.integers(0, CLASSES, size=int(flips.sum()))
            path = os.path.join(self.data, f"{entry['id']}_pred.vol")
            m.volume.write_volume(path, pred, SPACING, "labels", classes=CLASSES)
            self.pairs.append((entry["id"], path, os.path.join(self.data, entry["labels"])))
        self.reports: dict = {}

    def setup(self) -> None:
        m = self.m
        self.loaded = []
        for key, pred_path, truth_path in self.pairs:
            pred, pmeta = m.volume.read_volume(pred_path)
            truth, tmeta = m.volume.read_volume(truth_path)
            if pmeta.kind != "labels" or tmeta.kind != "labels":
                raise m.errors.DataError(f"{key}: pair volumes must be labels")
            if pmeta.dims != tmeta.dims or pmeta.spacing != tmeta.spacing:
                raise m.errors.DataError(f"{key}: pair grids differ")
            self.loaded.append((key, pred, truth, tmeta.classes, tmeta.spacing))

    def score(self, key, pred, truth, classes, spacing) -> None:
        self.reports[key] = self.m.metrics.evaluate_segmentation(pred, truth, classes,
                                                                 spacing)

    def warmup(self) -> None:
        self.score(*self.loaded[0])

    def round(self, r: int) -> list:
        return [(item[0], lambda item=item: self.score(*item)) for item in self.loaded]

    def check(self, trace: bool) -> list:
        dice = []
        for key, pred, truth, classes, spacing in self.loaded:
            checks.check_report(self.reports[key], pred, truth, spacing, classes, key)
            dice += [row.dice for row in self.reports[key].classes]
        hd = [row.hd95_mm for r in self.reports.values() for row in r.classes
              if row.hd95_mm is not None]
        return [f"dice, vs and hd95 of {len(self.loaded)} pairs match the references "
                f"(dice {min(dice):.3f}-{max(dice):.3f}, hd95 {min(hd):.2f}-{max(hd):.2f} mm)"]


WORKLOADS = {w.name: w for w in (TrainV1, SegmentV2, Evaluate)}
