"""Per-layer tracing, measured from outside the program.

The tracer replaces public attributes of the mixnet modules with timing
wrappers for the length of one traced round and puts the originals back
afterwards, so untraced rounds run the unmodified program.  ``arch``
reaches ``ops`` through the module (``ops.conv2d(...)``), so wrapping the
module attribute sees every call; each ``Node`` an op returns gets its
backward callable wrapped too, which times backward per op and per
network unit (keyed by ``Node.name``).

Spans are kept in memory as ``[name, parent, start, end, phase, index,
unit]`` and written out when the benchmark ends.  ``phase`` is "setup"
or "op" and ``index`` the set-up repetition or operation number.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# the layers' public attributes; (module name, owner attribute or None, attribute, span name)
CALLS = (
    ("volume", None, "load_subject", "volume.load_subject"),
    ("volume", None, "read_volume", "volume.read_volume"),
    ("volume", None, "write_volume", "volume.write_volume"),
    ("volume", None, "predict_volume", "volume.predict_volume"),
    ("volume", None, "fuse_predictions", "volume.fuse_predictions"),
    ("augment", None, "expand_slices", "augment.expand_slices"),
    ("arch", "Network", "__init__", "arch.build"),
    ("arch", "Network", "forward", "arch.forward"),
    ("autodiff", None, "backward", "autodiff.backward"),
    ("trainer", "Optimizer", "step", "trainer.optimizer_step"),
    ("trainer", None, "load_network", "trainer.load_network"),
    ("metrics", None, "surface_voxels", "metrics.surface_voxels"),
    ("metrics", None, "hd95", "metrics.hd95"),
)

OPS = ("conv2d", "relu", "add", "concat_channels", "maxpool2x2",
       "avgpool_region", "bilinear_resize", "softmax_cross_entropy")


def unit_of(node_name: str) -> str:
    """Network unit a node belongs to: ``level2.s0.reduce`` -> ``level2.s0``,
    the pyramid's pools, resizes and concat -> ``out.prior``; names outside
    the unit scheme (including the default op names) stay as they are."""
    if not node_name:
        return "(unnamed)"
    if node_name.startswith(("out.pool", "out.prior")) or node_name == "out.concat":
        return "out.prior"
    head, _, _ = node_name.partition(".")
    if "." in node_name and (head == "init" or head.startswith("level")):
        return node_name.rsplit(".", 1)[0]
    return node_name


def conv_flop(x_shape, w_shape) -> int:
    n, h, w, _ = x_shape
    kh, kw, cin, cout = w_shape
    return 2 * n * h * w * kh * kw * cin * cout


class Tracer:
    def __init__(self, mixnet_modules: dict):
        self.mods = mixnet_modules
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)   # (name, phase, index) -> count
        self.phase = ("setup", 0)
        self._open: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        rec = [name, parent, 0.0, 0.0, self.phase[0], self.phase[1], ""]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _end(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[(name, *self.phase)] += n

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(rec)
            if name == "metrics.surface_voxels":
                tracer.count("metrics.surface_voxels", len(out))
            return out
        return wrapper

    def _timed_op(self, fn, op):
        tracer = self
        fwd_name, bwd_name = f"ops.{op}.fwd", f"ops.{op}.bwd"

        def wrapper(*args, **kwargs):
            rec = tracer._begin(fwd_name)
            try:
                node = fn(*args, **kwargs)
            finally:
                tracer._end(rec)
            unit = rec[6] = unit_of(node.name)
            flop = conv_flop(args[0].shape, args[1].shape) if op == "conv2d" else 0
            if flop:
                tracer.count("ops.conv2d.flop", flop)
            inner = node._backward
            if inner is not None:
                def backward(g):
                    brec = tracer._begin(bwd_name)
                    brec[6] = unit
                    try:
                        return inner(g)
                    finally:
                        tracer._end(brec)
                        if flop:  # two GEMMs: kernel and input gradients
                            tracer.count("ops.conv2d.flop", 2 * flop)
                node._backward = backward
            return node
        return wrapper

    def _counting_init(self, init):
        tracer = self

        def wrapper(obj, *args, **kwargs):
            tracer.count("tensor.constructed", 1)
            init(obj, *args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for mod_name, cls_name, attr, span in CALLS:
            owner = self.mods[mod_name]
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            self._patch(owner, attr, self._timed(getattr(owner, attr), span))
        ops = self.mods["ops"]
        for op in OPS:
            self._patch(ops, op, self._timed_op(getattr(ops, op), op))
        tensor_cls = self.mods["tensor"].Tensor
        self._patch(tensor_cls, "__init__", self._counting_init(tensor_cls.__init__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def _per_index(self, key_of) -> dict:
        """{key: {(phase, index): seconds}} summed over spans."""
        table: dict = defaultdict(lambda: defaultdict(float))
        for rec in self.spans:
            key = key_of(rec)
            if key is not None:
                table[key][(rec[4], rec[5])] += rec[3] - rec[2]
        return table

    @staticmethod
    def _median_over(per_index: dict, indices: dict) -> float:
        """Median per operation if the key occurs in an operation, else
        per set-up repetition, else 0 (the workload never calls it)."""
        for phase in ("op", "setup"):
            if any(p == phase for p, _ in per_index):
                return statistics.median([per_index.get((phase, i), 0.0)
                                          for i in indices[phase]])
        return 0.0

    def layer_seconds(self, indices: dict) -> dict:
        table = self._per_index(lambda rec: rec[0])
        return {name: self._median_over(per, indices) for name, per in table.items()}

    def unit_seconds(self, indices: dict) -> dict:
        table = self._per_index(
            lambda rec: f"unit.{rec[6]}.{rec[0].rsplit('.', 1)[1]}_s" if rec[6] else None)
        return {name: self._median_over(per, indices) for name, per in table.items()}

    def counted(self, name: str, indices: dict) -> float:
        per = {(p, i): n for (key, p, i), n in self.counts.items() if key == name}
        return self._median_over(per, indices)

    def dump(self) -> dict:
        return {"span_fields": ["name", "parent", "start", "end", "phase",
                                "index", "unit"],
                "spans": self.spans,
                "counts": [[k[0], k[1], k[2], v] for k, v in self.counts.items()]}
