"""The three mix network variants for multi-modality slice segmentation.

All variants share the same building blocks:

* init unit: one 5x5 convolution, a 2x2 stride-2 max pool (halves
  memory; the output unit then upscales by 2), then ReLU.  ReLU
  is monotone, so maxpool(relu(x)) = relu(maxpool(x)), values and
  gradients alike: pooling first runs ReLU on a quarter of the elements.
* residual dilated unit: 1x1 conv to half the output width, ReLU, 3x3
  dilated conv at that width, ReLU, 1x1 conv to the output width, plus a shortcut
  (identity when input and output widths match, else a 1x1 projection),
  summed and passed through a final ReLU.  Dilation grows the receptive
  field without pooling away localization.
* output unit: pyramid pooling global prior (average pooling onto
  the ``PYRAMID_BINS`` grids, 2x2, 4x4, 6x6 and 12x12, each bilinearly
  resized back and concatenated with the input: 5x the channels), then a 3x3
  convolution down to the class logits.  Per-pixel channel mixing
  commutes with every per-channel spatial linear map (region pooling,
  bilinear resize, zero-padded tap shifts).  Split the kernel W along
  its input channels into W_x (for x) and W_b (for bin b), and let
  W_b,tap be the (C, K) matrix of W_b at one kernel tap; then

      conv(concat(x, up(pool_b x) ...), W)
          = sum_tap shift_tap(x @ W_x,tap + sum_b up(pool_b(x) @ W_b,tap))

  where x is the identity bin (its pool and resize are the identity).
  So ``ops.pyramid_head`` runs the prior's share of the head (4/5 of
  its input channels with four bins) at bin resolution, and every block
  as one (C, taps * K) matmul whose tap slices share one pad and
  shift-add, with the parameters of the plain 3x3 convolution.  The
  shift-add's gradient is the patch matrix of the output gradient,
  padded as the prior is, by the adjoint stated in ``ops.conv2d``.
  Region pooling and bilinear resize are also separable: along one axis
  each is an (out, in) matrix acting on every channel alike, and its
  adjoint is that matrix's transpose.  So ``ops.avgpool_region`` and
  ``ops.bilinear_resize`` (the output unit's 2x upscale) run as those
  matrices and their transposes, and the head pools the rows of all
  bins with one matrix, and resizes all bins' rows back with one.
  These maps act on each channel alone, so the head's input need not be
  one array either: with x the channel concatenation of parts x_i and
  W_x split by rows into their blocks W_x,i, x @ W_x = sum_i x_i @ W_x,i,
  and pool_b(x) is the concatenation of the pool_b(x_i).  So the head
  reads the level outputs where they are, and no concatenated copy of
  them is made.

All three variants run one trunk: per stream an init unit, then one
residual unit per dilation level of ``DILATIONS``, 2, 1, 4, 1 and 8.
The paper fixes the dilations and the bins; a variant decides two facts:

* streams: v1 has one stream that holds all modalities; v2 and v3 have
  one per modality.  Units run at ``trunk_filters // streams`` channels.
* fusion levels: in v2 each odd level concatenates all streams into one
  summary unit, and at the next level the summary joins each stream's
  input as ``concat([stream, summary])``.  v1 and v3 never fuse.

A unit or input of stream s is named ``<base>.s<s>`` in a variant with a
stream per modality (``init.s1``, ``level2.s0``), else ``<base>``
(``init``, ``level3``, v2's summary ``level1``); a concatenated input is
``<unit>.fuse``.  Every level's outputs are the output unit's input
parts, level-major with streams adjacent, so the prediction sees every
scale and v3's parameter space is a coordinate-aligned subspace of v1's
(see ``embed_v3_into_v1``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import ops
from .autodiff import Node, no_grad
from .errors import BuildError, ConfigError, ShapeError
from .records import check_count, check_record, kind_of, read_record
from .tensor import DEFAULT_DTYPE, derive_seed, he_init, zeros
from .volume import check_classes

VARIANTS = ("v1", "v2", "v3")
DILATIONS = (2, 1, 4, 1, 8)      # one residual unit per level
PYRAMID_BINS = (2, 4, 6, 12)     # the output unit's pooling grids
# least slice height and width: the output unit's finest grid needs
# max(PYRAMID_BINS) pixels a side after the init unit, whose ceil-mode
# pool turns 2m - 1 pixels into m
MIN_SIDE = 2 * max(PYRAMID_BINS) - 1

# fields older checkpoint headers hold, each at the network's one value
RETIRED_FIELDS = {"pool_kind": "max", "dilations": DILATIONS,
                  "pyramid_bins": PYRAMID_BINS, "init_pool": True}


def check_slice(height: int, width: int) -> None:
    """Raise ``ShapeError`` unless a height x width slice is at least
    ``MIN_SIDE`` a side."""
    if min(height, width) < MIN_SIDE:
        raise ShapeError(f"a {height}x{width} slice is too small: this network "
                         f"needs height and width >= {MIN_SIDE}")


@dataclass(frozen=True)
class NetConfig:
    """Structural description of one network: what a run chooses, the
    variant, modalities, classes and width.  The dilations and the
    pyramid bins are the module constants ``DILATIONS`` and
    ``PYRAMID_BINS``.

    ``filters`` is the per-modality width: a variant with a stream per
    modality (v2, v3) runs its units at ``filters`` channels, and v1's one
    stream runs at ``trunk_filters`` so that a v3 network embeds into a v1
    of the same config.
    """
    variant: str = "v2"
    modalities: int = 3
    classes: int = 4
    filters: int = 24

    def validate(self) -> "NetConfig":
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        check_count(self.modalities, "modalities", ConfigError)
        check_classes(self.classes, ConfigError)
        if check_count(self.filters, "filters", ConfigError, least=2) % 2:
            raise ConfigError(f"filters must be a positive even number, got {self.filters}")
        return self

    @property
    def trunk_filters(self) -> int:
        """Channels of all streams together; each of a variant's streams
        runs at ``trunk_filters // streams``."""
        return self.filters * self.modalities

    @classmethod
    def from_dict(cls, d: dict, what: str = "network config",
                  error=ConfigError) -> "NetConfig":
        """Read a config record; see :mod:`mixnet.records`.  A field of
        ``RETIRED_FIELDS`` must be of its one value's kind (so 1 is not a
        bool, though ``1 == True``); it is dropped at that value and
        rejected at any other, and so is a value ``validate`` rejects, as
        ``error``."""
        retired = {k: kind_of(v) for k, v in RETIRED_FIELDS.items()}
        held = check_record({k: d[k] for k in retired if k in d}, retired, what, error)
        for key, value in held.items():
            if value != RETIRED_FIELDS[key]:
                raise error(f"{what}: unsupported {key} {value!r}: the network "
                            f"has {key} {RETIRED_FIELDS[key]!r} only")
        return read_record(cls, {k: v for k, v in d.items() if k not in retired},
                           what, error)


class Network:
    """A built network: config, parameters and forward pass.

    ``store`` maps each parameter name to its leaf node.  Names are
    stable; they are the checkpoint manifest and the coordinate system of
    the v3 -> v1 embedding.  A parameter is a float32 copy of
    ``arrays[name]`` when ``arrays`` is given (a checkpoint's, say; copied
    so optimizer updates stay out of the caller's arrays), else drawn with
    a seed derived from ``seed`` and its name, so construction order
    cannot change initial values.

    ``forward`` is the one description of the network: construction runs
    it once on a dummy slice, which creates every parameter.  A unit's
    widths are its kernels' shapes in ``store``, and its dilation is the
    argument of its ``_conv`` call, through which every trunk conv runs
    (``verify.check_structure`` observes those calls).
    """

    def __init__(self, config: NetConfig, seed: int = 0,
                 arrays: Optional[dict] = None):
        self.config = config.validate()
        self.seed = int(seed)
        self.store: dict[str, Node] = {}
        self._arrays = arrays
        # materialize every parameter with a dummy pass
        with no_grad():
            self.forward(np.zeros((1, MIN_SIDE, MIN_SIDE, config.modalities), np.float32))
        self._arrays = None
        extra = set(arrays or ()) - set(self.store)
        if extra:
            raise BuildError(f"arrays for unknown parameters: {sorted(extra)[:4]}")

    def _param(self, name: str, shape: tuple, draw) -> Node:
        """The parameter ``name``, created on first request."""
        node = self.store.get(name)
        if node is None:
            if self._arrays is None:
                value = draw()
            elif name in self._arrays:
                value = np.array(self._arrays[name], dtype=DEFAULT_DTYPE)
            else:
                raise BuildError(f"no array for parameter {name!r}")
            node = self.store[name] = Node.leaf(value, requires_grad=True, name=name)
        if node.shape != shape:
            raise BuildError(f"parameter {name!r} has shape {node.shape}, "
                             f"requested {shape}")
        return node

    def _weights(self, name: str, kernel_shape: tuple) -> tuple[Node, Node]:
        """Kernel ``name.w`` (He-initialized) and bias ``name.b`` (zeros)."""
        w = self._param(name + ".w", kernel_shape, lambda: he_init(
            kernel_shape, int(np.prod(kernel_shape[:-1])), derive_seed(self.seed, name + ".w")))
        b = self._param(name + ".b", kernel_shape[-1:], lambda: zeros(kernel_shape[-1:]))
        return w, b

    # -- building blocks ----------------------------------------------------

    def _conv(self, name: str, x: Node, k: int, c_out: int, dilation: int = 1) -> Node:
        w, b = self._weights(name, (k, k, x.shape[-1], c_out))
        return ops.conv2d(x, w, b, dilation=dilation, name=name)

    def _init_unit(self, name: str, x: Node, c_out: int) -> Node:
        y = ops.maxpool2x2(self._conv(name + ".conv", x, 5, c_out), name=name + ".pool")
        return ops.relu(y, name=name + ".relu")

    def _res_unit(self, name: str, x: Node, c_out: int, d: int) -> Node:
        mid = c_out // 2
        y = ops.relu(self._conv(name + ".reduce", x, 1, mid), name=name + ".relu1")
        y = ops.relu(self._conv(name + ".dilated", y, 3, mid, dilation=d),
                     name=name + ".relu2")
        y = self._conv(name + ".expand", y, 1, c_out)
        if x.shape[-1] != c_out:
            shortcut = self._conv(name + ".shortcut", x, 1, c_out)
        else:
            shortcut = x
        return ops.relu(ops.add(y, shortcut, name=name + ".add"), name=name + ".out")

    def _output_unit(self, name: str, parts: list, out_hw) -> Node:
        c_in = sum(p.shape[-1] for p in parts)
        classes = self.config.classes
        w, b = self._weights(name + ".final",
                             (3, 3, (1 + len(PYRAMID_BINS)) * c_in, classes))
        logits = ops.pyramid_head(parts, w, b, PYRAMID_BINS, name=name + ".final")
        return ops.bilinear_resize(logits, out_hw[0], out_hw[1], name=name + ".upscale")

    # -- forward ------------------------------------------------------------

    def forward(self, x: np.ndarray) -> Node:
        """Logits (N, H, W, classes) for a batch of slices (N, H, W, M)."""
        cfg = self.config
        x = np.asarray(x)
        if x.ndim != 4 or x.shape[-1] != cfg.modalities:
            raise ShapeError(f"expected input (N,H,W,{cfg.modalities}), got {x.shape}")
        check_slice(x.shape[1], x.shape[2])
        split = cfg.variant != "v1"  # a stream per modality, else one for all
        fuse = cfg.variant == "v2"   # odd levels fuse the streams into a summary
        n = cfg.modalities if split else 1
        width = cfg.trunk_filters // n
        tags = [f".s{s}" if split else "" for s in range(n)]  # name suffix per stream
        streams = [self._init_unit("init" + tag, Node.leaf(xs, name="input" + tag), width)
                   for tag, xs in zip(tags, np.split(x, n, axis=-1))]
        collected = []
        for i, d in enumerate(DILATIONS, 1):
            if fuse and i % 2:  # all streams -> one summary unit
                fused = ops.concat_channels(streams, name=f"level{i}.fuse")
                summary = self._res_unit(f"level{i}", fused, width, d)
                collected.append(summary)
                continue
            names = [f"level{i}{tag}" for tag in tags]
            if fuse:            # the last summary joins each stream
                streams = [ops.concat_channels([stream, summary], name=name + ".fuse")
                           for name, stream in zip(names, streams)]
            streams = [self._res_unit(name, stream, width, d)
                       for name, stream in zip(names, streams)]
            collected.extend(streams)
        return self._output_unit("out", collected, x.shape[1:3])

    # -- introspection -------------------------------------------------------

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.store.values())

    def predict_probs(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities for a batch of slices."""
        with no_grad():
            logits = self.forward(x)
        return ops.softmax(logits.data)


def embed_v3_into_v1(src: Network) -> Network:
    """A v1 network, of ``src``'s config apart from the variant, that
    computes the same function as the v3 network ``src``.

    Stream s of the source occupies channel block s of every trunk
    feature map, so one rule places every parameter: ``<unit>.s<s>.<rest>``
    goes to ``<unit>.<rest>`` at block s of each channel axis (a kernel's
    last two, a bias's only one), each block as wide as the source's axis.
    The init kernel puts each stream's filter on its own modality, every
    residual unit becomes block-diagonal, and the output unit, which has
    no stream, transfers verbatim (both read their levels level-major
    with streams adjacent).  All other v1 weights are zero:
    cross-modality connections exist in the v1 parameter space but are
    switched off.
    """
    cfg = src.config
    if cfg.variant != "v3":
        raise BuildError(f"embedding source must be a v3 network, got {cfg.variant}")
    dst = Network(replace(cfg, variant="v1"))
    v1 = {name: node.data for name, node in dst.store.items()}
    for arr in v1.values():
        arr.fill(0)
    for name, node in src.store.items():
        stream = re.fullmatch(r"(\w+)\.s(\d+)\.(.+)", name)
        if stream is None:
            v1[name][...] = node.data
            continue
        unit, s, rest = stream.groups()
        w, s = node.data, int(s)
        channels = w.shape[-2:] if w.ndim == 4 else w.shape
        v1[f"{unit}.{rest}"][(..., *(slice(s * c, (s + 1) * c) for c in channels))] = w
    return dst
