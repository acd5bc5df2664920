"""Training loop: Nesterov momentum SGD, stepped learning rate decay,
divergence detection and restartable binary checkpoints.

The optimizer update for every parameter p with gradient g is

    g' = g + weight_decay * p
    v  = momentum * v - lr * g'
    p  = p + momentum * v - lr * g'

i.e. classic Nesterov momentum in its direct (lookahead-free) form.
The learning rate starts at ``lr0`` and halves every time the completed
fraction of training crosses one of the schedule boundaries, so the
final sixteenth of a long run trains at lr0/256.

Checkpoints capture parameters, optimizer velocities, the shuffling
RNG state, the per-epoch history and the settings that chose the
training slices, which makes an interrupted run,
and its log, bit-identical to an uninterrupted one when resumed at an
epoch boundary.
"""

from __future__ import annotations

import csv
import json
import struct
import zlib
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import ops
from .arch import NetConfig, Network
from .augment import AugmentedSlices
from .autodiff import backward
from .errors import ConfigError, DataError, TrainingDiverged
from .metrics import dice_binary
from .records import check_count, check_labels, check_record, read_record
from .volume import atomic_open, predict_volume

# fractions of total training at which the learning rate halves again
LR_BOUNDARIES = (0.2, 0.4, 0.6, 0.75, 0.8, 0.85, 0.9, 0.95)


def lr_at(lr0: float, epoch: int, total_epochs: int) -> float:
    """Stepped decay: lr0 * 2^-(number of LR_BOUNDARIES already reached).

    A boundary b counts as reached when b <= epoch / total_epochs; the
    comparison is done on the fraction so boundary epochs land exactly.
    """
    check_count(total_epochs, "total_epochs", ConfigError)
    frac = epoch / total_epochs
    halvings = sum(1 for b in LR_BOUNDARIES if b <= frac)
    return lr0 * 2.0 ** -halvings


class Optimizer:
    """Nesterov momentum SGD over a named parameter set.

    Takes a mapping of name -> leaf Node.  Velocity buffers live here,
    keyed by name, in the parameter's dtype.
    """

    def __init__(self, params, lr0: float, momentum: float, weight_decay: float):
        self.params = dict(params)
        self.lr0 = float(lr0)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocities = {name: np.zeros(p.shape, dtype=p.dtype)
                           for name, p in self.params.items()}

    def step(self, lr: Optional[float] = None) -> None:
        """Apply one update from the accumulated gradients."""
        lr = self.lr0 if lr is None else float(lr)
        mu, wd = self.momentum, self.weight_decay
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = 0.0
            elif not np.all(np.isfinite(g)):
                raise TrainingDiverged(f"non-finite gradient in {name!r}")
            buf = p.data
            adjusted = g + wd * buf
            v = self.velocities[name]
            v *= mu
            v -= lr * adjusted
            buf += mu * v - lr * adjusted

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 4
    lr0: float = 2e-4
    momentum: float = 0.99
    weight_decay: float = 1e-3
    loss_reduction: str = "mean"
    use_lr_schedule: bool = True
    seed: int = 0
    val_every: int = 1        # epochs between holdout evaluations; 0 disables
    checkpoint_every: int = 0  # epochs between checkpoints; 0 disables

    def validate(self) -> "TrainConfig":
        for name, least in (("epochs", 1), ("batch_size", 1), ("val_every", 0),
                            ("checkpoint_every", 0)):
            check_count(getattr(self, name), name, ConfigError, least)
        if self.loss_reduction not in ("sum", "mean"):
            raise ConfigError(f"loss_reduction must be 'sum' or 'mean', "
                              f"got {self.loss_reduction!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        for name in ("lr0", "weight_decay"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        return self


class Trainer:
    """Mini-batch SGD over a stack of 2D training slices.

    ``images`` is (S, H, W, M) float32, ``labels`` (S, H, W) integer class
    ids, either as arrays or as the views :func:`augment.expand_slices`
    returns, which are kept as they are and indexed one batch at a time.
    An optional validation pair is checked here like the training pair and
    scored with per-class foreground Dice after each epoch, on the
    probabilities that :func:`volume.predict_volume` gives.
    """

    def __init__(self, net: Network, images: np.ndarray, labels: np.ndarray,
                 config: TrainConfig, val: Optional[tuple] = None,
                 log_path=None, checkpoint_path=None):
        config.validate()
        if not isinstance(images, AugmentedSlices):
            images = np.asarray(images, dtype=np.float32)
        if not isinstance(labels, AugmentedSlices):
            labels = np.asarray(labels)
        if images.ndim != 4 or labels.shape != images.shape[:3]:
            raise DataError(f"bad training set: images {images.shape}, "
                            f"labels {labels.shape}")
        if images.shape[0] < 1:
            raise DataError("training set is empty")
        if val is not None:
            val = vx, vy = np.asarray(val[0]), np.asarray(val[1])
            if (vx.ndim != 4 or not vx.shape[0] or vx.shape[3] != images.shape[3]
                    or vy.shape != vx.shape[:3]):
                raise DataError(f"bad validation set: images {vx.shape}, labels "
                                f"{vy.shape}, training images {images.shape}")
            check_labels(vy, net.config.classes, "validation labels")
        self.net = net
        self.images = images
        self.labels = labels
        self.val = val
        self.config = config
        self.optimizer = Optimizer(net.store, config.lr0, config.momentum,
                                   config.weight_decay)
        self.rng = np.random.Generator(np.random.PCG64(config.seed))
        self.epoch = 0
        self.step_count = 0
        self.history: list[dict] = []
        # the settings that chose the training slices, recorded in checkpoints
        self.slice_settings: dict = {}
        self.log_path = log_path
        self.checkpoint_path = checkpoint_path

    def current_lr(self) -> float:
        if not self.config.use_lr_schedule:
            return self.config.lr0
        return lr_at(self.config.lr0, self.epoch, self.config.epochs)

    def train_one_epoch(self) -> dict:
        cfg = self.config
        order = self.rng.permutation(self.images.shape[0])
        lr = self.current_lr()
        total_loss = 0.0
        seen = 0
        for lo in range(0, order.size, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            logits = self.net.forward(np.asarray(self.images[idx], dtype=np.float32))
            loss = ops.softmax_cross_entropy(logits, self.labels[idx],
                                             cfg.loss_reduction)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"loss became {value} at epoch {self.epoch}, step {self.step_count}")
            self.optimizer.zero_grad()
            backward(loss)
            self.optimizer.step(lr)
            # release this step's graph before the next forward builds one
            del logits, loss
            self.step_count += 1
            total_loss += value * idx.size
            seen += idx.size
        self.epoch += 1
        row = {"epoch": self.epoch, "lr": lr, "loss": total_loss / seen,
               "steps": self.step_count}
        if self.val is not None and cfg.val_every and self.epoch % cfg.val_every == 0:
            # a slice stack is a volume swept along its first axis
            probs = predict_volume(self.net, self.val[0], "sagittal", cfg.batch_size)
            pred = probs.argmax(axis=-1)
            dice = [dice_binary(pred == k, self.val[1] == k)
                    for k in range(1, self.net.config.classes)]
            row["val_dice"] = dice
            row["val_dice_mean"] = float(np.mean(dice))
        self.history.append(row)
        return row

    def fit(self, epochs: Optional[int] = None) -> list:
        """Train until ``epochs`` (default: the configured total)."""
        target = self.config.epochs if epochs is None else epochs
        while self.epoch < target:
            row = self.train_one_epoch()
            if self.log_path is not None:
                self._write_log()
            if (self.checkpoint_path is not None and self.config.checkpoint_every
                    and self.epoch % self.config.checkpoint_every == 0):
                save_checkpoint(self.checkpoint_path, self.net, self)
        return self.history

    def _write_log(self) -> None:
        keys = ["epoch", "lr", "loss", "steps", "val_dice_mean"]
        header = keys + [f"val_dice_{k}" for k in range(1, self.net.config.classes)]
        with atomic_open(self.log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in self.history:
                # an epoch without validation leaves its dice fields empty
                line = [row.get(k, "") for k in keys] + list(row.get("val_dice", []))
                writer.writerow(line + [""] * (len(header) - len(line)))


# ---------------------------------------------------------------------------
# checkpoints
#
# layout: MAGIC, u32 format version, u64 header length, JSON header,
# then the raw little-endian buffers in manifest order.  Each manifest
# entry carries the buffer's zlib CRC-32; entries written before it
# existed have none and load unchecked.

CKPT_MAGIC = b"MIXCKPT\x00"
CKPT_VERSION = 1

# the fields of a checkpoint header, of each buffer entry and of each
# history row, and their kinds (see mixnet.records); a trainer's fields
# come with a train_config
HEADER_KINDS = {"net_config": dict, "store_seed": int, "epoch": int, "step_count": int,
                "buffers": list, "train_config": dict, "rng_state": dict,
                "history": list, "slice_settings": dict}
BUFFER_KINDS = {"kind": str, "name": str, "shape": tuple[int, ...], "dtype": str,
                "crc32": int}
HISTORY_KINDS = {"epoch": int, "lr": float, "loss": float, "steps": int,
                 "val_dice": list, "val_dice_mean": float}


def save_checkpoint(path, net: Network, trainer: Optional[Trainer] = None) -> None:
    manifest = []
    blobs = []

    def push(kind, name, arr):
        arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        blob = arr.tobytes()
        manifest.append({"kind": kind, "name": name, "shape": list(arr.shape),
                         "dtype": arr.dtype.str, "crc32": zlib.crc32(blob)})
        blobs.append(blob)

    for name, node in net.store.items():
        push("param", name, node.data)
    header = {
        "net_config": asdict(net.config),
        "store_seed": net.seed,
        "epoch": 0,
        "step_count": 0,
        "buffers": manifest,
    }
    if trainer is not None:
        for name in net.store:
            push("velocity", name, trainer.optimizer.velocities[name])
        header["epoch"] = trainer.epoch
        header["step_count"] = trainer.step_count
        header["train_config"] = asdict(trainer.config)
        header["rng_state"] = trainer.rng.bit_generator.state
        header["history"] = trainer.history
        header["slice_settings"] = trainer.slice_settings
    blob = json.dumps(header, sort_keys=True).encode()
    with atomic_open(path) as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<IQ", CKPT_VERSION, len(blob)))
        fh.write(blob)
        for b in blobs:
            fh.write(b)


def _buffer_entry(entry, path) -> dict:
    entry = check_record(entry, BUFFER_KINDS, f"{path}: checkpoint buffer", DataError,
                         ("kind", "name", "shape", "dtype"))
    try:
        numeric = np.dtype(entry["dtype"]).kind in "biuf"
    except TypeError:
        numeric = False
    if not numeric or any(d < 0 for d in entry["shape"]):
        raise DataError(f"{path}: checkpoint buffer {entry['name']!r} needs a "
                        "numeric dtype and dims >= 0")
    return entry


def _read_header(fh, path) -> dict:
    """The JSON header of the checkpoint open as ``fh``, after checking
    its magic, its version and every field's kind, with ``net_config`` and
    ``train_config`` read into their dataclasses; leaves ``fh`` at the
    first buffer."""
    if fh.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    fixed = fh.read(12)
    if len(fixed) != 12:
        raise DataError(f"{path}: truncated checkpoint header")
    version, hlen = struct.unpack("<IQ", fixed)
    if version != CKPT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(fh.read(hlen).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt checkpoint header: {e}") from None
    header = check_record(header, HEADER_KINDS, f"{path}: checkpoint header",
                          DataError, ("net_config", "epoch", "step_count", "buffers"))
    header["buffers"] = [_buffer_entry(e, path) for e in header["buffers"]]
    if "history" in header:
        header["history"] = [check_record(row, HISTORY_KINDS, f"{path}: history row {i}",
                                          DataError, ("epoch", "lr", "loss", "steps"))
                             for i, row in enumerate(header["history"])]
    header["net_config"] = NetConfig.from_dict(header["net_config"],
                                               f"{path}: net_config", DataError)
    if "train_config" in header:
        header["train_config"] = read_record(TrainConfig, header["train_config"],
                                             f"{path}: train_config", DataError)
    return header


def load_checkpoint_header(path) -> dict:
    """Read only a checkpoint's header, not its buffers."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_checkpoint(path) -> tuple[dict, dict]:
    """Read a checkpoint file; returns (header, {(kind, name): array})."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        arrays = {}
        for entry in header["buffers"]:
            dtype = np.dtype(entry["dtype"])
            n = int(np.prod(entry["shape"])) if entry["shape"] else 1
            raw = fh.read(n * dtype.itemsize)
            if len(raw) != n * dtype.itemsize:
                raise DataError(f"{path}: truncated checkpoint buffer "
                                f"{entry['name']!r}")
            if "crc32" in entry and zlib.crc32(raw) != entry["crc32"]:
                raise DataError(f"{path}: checksum mismatch in checkpoint "
                                f"{entry['kind']} buffer {entry['name']!r}")
            arrays[(entry["kind"], entry["name"])] = \
                np.frombuffer(raw, dtype=dtype).reshape(entry["shape"]).copy()
    return header, arrays


def _network_from(header: dict, arrays: dict) -> Network:
    return Network(header["net_config"], seed=header.get("store_seed", 0),
                   arrays={name: arr for (kind, name), arr in arrays.items()
                           if kind == "param"})


def load_network(path) -> Network:
    """Rebuild just the network from a checkpoint's arrays; nothing is drawn."""
    return _network_from(*load_checkpoint(path))


def resume_trainer(path, images, labels, val=None, log_path=None,
                   checkpoint_path=None) -> Trainer:
    """Rebuild network + trainer state; continues exactly where the
    checkpoint left off."""
    header, arrays = load_checkpoint(path)
    if "train_config" not in header:
        raise DataError(f"{path}: checkpoint has no trainer state")
    net = _network_from(header, arrays)
    trainer = Trainer(net, images, labels, header["train_config"], val=val,
                      log_path=log_path, checkpoint_path=checkpoint_path)
    for name in net.store:
        vel = arrays.get(("velocity", name))
        if vel is None:
            raise DataError(f"{path}: checkpoint is missing velocity for {name!r}")
        trainer.optimizer.velocities[name][...] = vel
    trainer.epoch = header["epoch"]
    trainer.step_count = header["step_count"]
    try:
        # JSON round-trips the PCG64 state dict with string keys intact
        trainer.rng.bit_generator.state = header.get("rng_state")
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: unusable rng_state: {e!r}") from None
    trainer.history = header.get("history", [])
    trainer.slice_settings = header.get("slice_settings", {})
    return trainer
