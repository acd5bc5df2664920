"""Self-verification suites: gradients, wiring, embedding, metrics,
optimizer arithmetic and augmentation counts.

Each check returns a CheckResult; ``run_all`` collects every suite in ``SUITES``.
A suite's ``seed`` is an integer >= 0 and ``trials`` an integer >= 1
(``ParameterError`` otherwise).
The command line ``verify`` subcommand prints one line per check and
fails the process if any check fails, so a build can be validated on a
machine with nothing but the package installed.

The metric checks compare the library against straight-line reference
implementations written here with plain loops.  They repeat, on
purpose, what :mod:`mixnet.metrics` computes by other means (HD95 from
distance transforms rather than an all-pairs scan); the two paths must
agree exactly.  These references are the package's only plain-loop
copy, and the test suite's oracles reuse them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import metrics, ops
from .arch import MIN_SIDE, NetConfig, Network, embed_v3_into_v1
from .augment import elastic_slice, expand_slices, policy_for_plane, policy_ops, rotate_slice
from .autodiff import Node, grad_check, topo_order
from .errors import VerificationFailure
from .records import check_count
from .trainer import LR_BOUNDARIES, Optimizer, lr_at

GRAD_TOL = 1e-4
EMBED_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _result(name, passed, detail=""):
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# gradients


def _op_builders(rng):
    """(name, build fn, input arrays) for every differentiable op; sides from [4, 6]."""
    n, h, wd = 2, int(rng.integers(4, 7)), int(rng.integers(4, 7))
    x = rng.normal(size=(n, h, wd, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=(3,))
    w5 = rng.normal(size=(5, 5, 2, 2))
    logits = rng.normal(size=(n, h, wd, 3))
    labels = rng.integers(0, 3, size=(n, h, wd))
    pair = rng.normal(size=(n, h, wd, 2))
    w_head = rng.normal(size=(3, 3, 6, 3))
    g_head = Node.leaf(rng.normal(size=(n, h, wd, 3)))
    w1 = rng.normal(size=(1, 1, 2, 3))
    x_cin1 = rng.normal(size=(n, h, wd, 1))
    w5_cin1 = rng.normal(size=(5, 5, 1, 3))
    # 25 taps * 1 <= 2 * 13 outputs: forward stacks the input side
    w5_stacked = rng.normal(size=(5, 5, 1, 13))
    b_stacked = rng.normal(size=(13,))
    g_stacked = Node.leaf(rng.normal(size=(n, h, wd, 13)))
    # the head over three parts of x's size, 1, 2 and 1 channels wide
    head_parts = [rng.normal(size=(n, h, wd, c)) for c in (1, 2, 1)]
    w_parts = rng.normal(size=(3, 3, 12, 3))
    # 9 taps * 3 > 2 * 2 outputs: the kernel gradient goes tap by tap
    x_tap = rng.normal(size=(n, h, wd, 3))
    w_tap = rng.normal(size=(3, 3, 3, 2))
    b_tap = rng.normal(size=(2,))
    g_tap = Node.leaf(rng.normal(size=(n, h, wd, 2)))
    # odd sides, and values 0.1 apart: no window ties within a difference step
    x_ragged = rng.permutation(70).reshape(1, 5, 7, 2) * 0.1
    g_pool = Node.leaf(rng.normal(size=(1, 3, 4, 2)))

    return [
        ("conv2d", lambda lv: ops.reduce_sum(ops.conv2d(lv[0], lv[1], lv[2])),
         [x, w, b]),
        ("conv2d_dilated", lambda lv: ops.reduce_sum(
            ops.conv2d(lv[0], lv[1], lv[2], dilation=2)), [x, w, b]),
        ("conv2d_5x5", lambda lv: ops.reduce_sum(ops.conv2d(lv[0], lv[1])),
         [x, w5]),
        ("conv2d_5x5_cin1", lambda lv: ops.reduce_sum(ops.conv2d(lv[0], lv[1], lv[2])),
         [x_cin1, w5_cin1, b]),
        ("conv2d_5x5_stacked", lambda lv: ops.reduce_sum(ops.mul(
            ops.conv2d(lv[0], lv[1], lv[2], dilation=2), g_stacked)),
         [x_cin1, w5_stacked, b_stacked]),
        ("conv2d_1x1", lambda lv: ops.reduce_sum(ops.conv2d(lv[0], lv[1], lv[2])),
         [x, w1, b]),
        ("conv2d_tap_kernel", lambda lv: ops.reduce_sum(ops.mul(
            ops.conv2d(lv[0], lv[1], lv[2], dilation=2), g_tap)), [x_tap, w_tap, b_tap]),
        ("maxpool2x2", lambda lv: ops.reduce_sum(ops.maxpool2x2(lv[0])), [x]),
        ("maxpool2x2_ragged", lambda lv: ops.reduce_sum(ops.mul(ops.maxpool2x2(lv[0]), g_pool)),
         [x_ragged]),
        ("avgpool_region", lambda lv: ops.reduce_sum(ops.avgpool_region(lv[0], 3)),
         [x]),
        ("bilinear_up", lambda lv: ops.reduce_sum(ops.bilinear_resize(lv[0], 9, 11)),
         [x]),
        ("bilinear_down", lambda lv: ops.reduce_sum(ops.bilinear_resize(lv[0], 3, 2)),
         [x]),
        ("pyramid_head", lambda lv: ops.reduce_sum(ops.mul(
            ops.pyramid_head([lv[0]], lv[1], lv[2], (2, 3)), g_head)), [x, w_head, b]),
        ("pyramid_head_parts", lambda lv: ops.reduce_sum(ops.mul(
            ops.pyramid_head(lv[:3], lv[3], lv[4], (2, 3)), g_head)),
         [*head_parts, w_parts, b]),
        ("relu", lambda lv: ops.reduce_sum(ops.relu(lv[0])), [x]),
        ("add_mul", lambda lv: ops.reduce_sum(ops.mul(ops.add(lv[0], lv[1]), lv[0])),
         [pair, pair + 0.5]),
        ("concat", lambda lv: ops.reduce_sum(ops.relu(ops.concat_channels(lv))),
         [pair, logits]),
        ("xent_sum", lambda lv: ops.softmax_cross_entropy(lv[0], labels, "sum"),
         [logits]),
        ("xent_mean", lambda lv: ops.softmax_cross_entropy(lv[0], labels, "mean"),
         [logits]),
    ]


def check_op_gradients(seed: int = 0) -> list:
    rng = np.random.default_rng(check_count(seed, "seed", least=0))
    results = []
    for name, build, arrays in _op_builders(rng):
        report = grad_check(build, arrays, steps=(1e-3, 1e-5, 3e-7), tolerance=GRAD_TOL)
        results.append(_result(
            f"grad/{name}", report.passed,
            f"max rel err {report.max_rel_error:.2e} over "
            f"{report.coords_checked} coords (tol {GRAD_TOL:.0e})"))
    return results


def check_network_gradients(seed: int = 0) -> list:
    """Finite differences through a real (tiny) network, parameter side, on
    a least-side slice, through the init unit's pool and the upscale.

    Parameters are jittered away from their initial values first.  Freshly
    built nets hold exact-zero biases, and relu zeros propagated through
    1x1 convolutions put pre-activations exactly on the relu kink, where
    a finite difference straddles the corner and disagrees with the
    (one-sided) analytic subgradient no matter how small the step is.
    At a generic point that set has measure zero.  The first step is
    1e-5, at which the float64 truncation error is far below the
    tolerance.
    """
    net = Network(NetConfig(variant="v3", modalities=2, classes=3, filters=4), seed=seed)
    rng = np.random.default_rng(seed)
    names = list(net.store)
    params = [p.data + rng.normal(scale=0.05, size=p.shape) for p in net.store.values()]
    x = rng.normal(size=(1, MIN_SIDE, MIN_SIDE, 2))
    labels = rng.integers(0, 3, size=(1, MIN_SIDE, MIN_SIDE))

    def build(leaves):
        net.store.update(zip(names, leaves))
        return ops.softmax_cross_entropy(net.forward(x), labels, "sum")

    report = grad_check(build, params, steps=(1e-5, 3e-7), tolerance=GRAD_TOL,
                        max_coords_per_input=4, rng=rng)
    return [_result("grad/network_params", report.passed,
                    f"max rel err {report.max_rel_error:.2e} over "
                    f"{report.coords_checked} sampled parameter coords "
                    f"(tol {GRAD_TOL:.0e})")]


# ---------------------------------------------------------------------------
# structure


def _reference_shapes(variant: str) -> dict:
    t, fil, mid, m = 72, 24, 12, 3
    shapes = {}
    if variant == "v1":
        shapes["init.conv.w"] = (5, 5, m, t)
        shapes["init.conv.b"] = (t,)
        for i in range(1, 6):
            shapes[f"level{i}.reduce.w"] = (1, 1, t, 36)
            shapes[f"level{i}.reduce.b"] = (36,)
            shapes[f"level{i}.dilated.w"] = (3, 3, 36, 36)
            shapes[f"level{i}.dilated.b"] = (36,)
            shapes[f"level{i}.expand.w"] = (1, 1, 36, t)
            shapes[f"level{i}.expand.b"] = (t,)
        agg = 5 * t
    elif variant == "v2":
        for s in range(m):
            shapes[f"init.s{s}.conv.w"] = (5, 5, 1, fil)
            shapes[f"init.s{s}.conv.b"] = (fil,)
        for i in (1, 3, 5):
            for part, shp in (("reduce", (1, 1, t, mid)),
                              ("dilated", (3, 3, mid, mid)),
                              ("expand", (1, 1, mid, fil)),
                              ("shortcut", (1, 1, t, fil))):
                shapes[f"level{i}.{part}.w"] = shp
                shapes[f"level{i}.{part}.b"] = (shp[-1],)
        for i in (2, 4):
            for s in range(m):
                for part, shp in (("reduce", (1, 1, 2 * fil, mid)),
                                  ("dilated", (3, 3, mid, mid)),
                                  ("expand", (1, 1, mid, fil)),
                                  ("shortcut", (1, 1, 2 * fil, fil))):
                    shapes[f"level{i}.s{s}.{part}.w"] = shp
                    shapes[f"level{i}.s{s}.{part}.b"] = (shp[-1],)
        agg = 9 * fil
    else:
        for s in range(m):
            shapes[f"init.s{s}.conv.w"] = (5, 5, 1, fil)
            shapes[f"init.s{s}.conv.b"] = (fil,)
            for i in range(1, 6):
                shapes[f"level{i}.s{s}.reduce.w"] = (1, 1, fil, mid)
                shapes[f"level{i}.s{s}.reduce.b"] = (mid,)
                shapes[f"level{i}.s{s}.dilated.w"] = (3, 3, mid, mid)
                shapes[f"level{i}.s{s}.dilated.b"] = (mid,)
                shapes[f"level{i}.s{s}.expand.w"] = (1, 1, mid, fil)
                shapes[f"level{i}.s{s}.expand.b"] = (fil,)
        agg = 15 * fil
    shapes["out.final.w"] = (3, 3, 5 * agg, 4)
    shapes["out.final.b"] = (4,)
    return shapes


def _reference_maps(variant: str) -> tuple[list, dict]:
    """The output unit's input parts, level-major with streams adjacent,
    as (name, channels) pairs, and the channels of each ``.fuse`` concat
    by name, at the reference width."""
    if variant == "v1":
        return [(f"level{i}.out", 72) for i in range(1, 6)], {}
    if variant == "v3":
        return [(f"level{i}.s{s}.out", 24) for i in range(1, 6) for s in range(3)], {}
    parts = [(name, 24) for i in range(1, 6) for name in
             ([f"level{i}.out"] if i % 2 else [f"level{i}.s{s}.out" for s in range(3)])]
    fused = {**{f"level{i}.fuse": 72 for i in (1, 3, 5)},
             **{f"level{i}.s{s}.fuse": 48 for i in (2, 4) for s in range(3)}}
    return parts, fused


class _ConvLog(Network):
    """A network that records, by name, the dilation each trunk conv is
    called with."""

    def __init__(self, config: NetConfig):
        self.dilations = {}
        super().__init__(config, seed=0)

    def _conv(self, name, x, k, c_out, dilation=1):
        self.dilations[name] = dilation
        return super()._conv(name, x, k, c_out, dilation)


def _reference_dilations(shapes: dict) -> dict:
    """The paper's dilation for each trunk conv of a ``_reference_shapes``
    table: level i's 3x3 ``dilated`` conv runs at (2, 1, 4, 1, 8)[i - 1],
    every other conv at 1.  The output unit's kernel runs in
    ``ops.pyramid_head``, not as a trunk conv."""
    want = {}
    for key in shapes:
        if key.endswith(".w") and key != "out.final.w":
            level = re.fullmatch(r"level(\d)(\.s\d)?\.dilated\.w", key)
            want[key[:-2]] = (2, 1, 4, 1, 8)[int(level[1]) - 1] if level else 1
    return want


def _head_result(variant: str, logits: Node) -> CheckResult:
    """The ``.fuse`` concats and the ``out.final`` vertex's input parts (its
    parents but the kernel and bias) against ``_reference_maps``, all at
    half the 26x30 input's resolution."""
    parts, fused = _reference_maps(variant)
    half = (1, 13, 15)
    graph = {v.name: v for v in topo_order(logits) if v.name}
    final = graph.get("out.final")
    got = [(p.name, p.shape) for p in final.parents[:-2]] if final else []
    want = [(name, half + (c,)) for name, c in parts]
    wrong = [f"head part {i} is {g}, want {w}" for i, (g, w)
             in enumerate(zip_longest(got, want)) if g != w]
    got = {name: v.shape for name, v in graph.items() if name.endswith(".fuse")}
    want = {name: half + (c,) for name, c in fused.items()}
    wrong += [f"{name} is {got.get(name)}, want {want.get(name)}"
              for name in sorted(got.keys() | want.keys()) if got.get(name) != want.get(name)]
    return _result(f"structure/{variant}/head", not wrong, "; ".join(wrong[:3]) or
                   f"{len(parts)} level outputs, {sum(c for _, c in parts)} channels, "
                   f"read level-major with streams adjacent, and {len(fused)} fuse "
                   f"concats, all at 13x15")


def check_structure() -> list:
    results = []
    x = np.zeros((1, 26, 30, 3), np.float32)
    for variant in ("v1", "v2", "v3"):
        net = _ConvLog(NetConfig(variant=variant))
        want = _reference_shapes(variant)
        got = {k: v.shape for k, v in net.store.items()}
        ok = got == want
        detail = f"{len(got)} parameter tensors, {net.param_count} weights"
        if not ok:
            missing = set(want) - set(got)
            extra = set(got) - set(want)
            wrong = {k for k in set(got) & set(want) if got[k] != want[k]}
            detail = f"missing={sorted(missing)[:3]} extra={sorted(extra)[:3]} " \
                     f"wrong={sorted(wrong)[:3]}"
        results.append(_result(f"structure/{variant}/parameters", ok, detail))

        net.dilations = {}
        logits = net.forward(x)
        paper = _reference_dilations(want)
        wrong = sorted(name for name in paper.keys() | net.dilations.keys()
                       if net.dilations.get(name) != paper.get(name))
        detail = "; ".join(f"{name} ran at dilation {net.dilations.get(name)}, "
                           f"want {paper.get(name)}" for name in wrong[:3])
        results.append(_result(f"structure/{variant}/levels", not wrong, detail or
                               f"{len(paper)} trunk convs: each level's dilated 3x3 "
                               f"at 2, 1, 4, 1, 8, every other at 1"))
        results.append(_head_result(variant, logits))
        results.append(_result(f"structure/{variant}/logits", logits.shape == (1, 26, 30, 4),
                               f"logits {logits.shape} for input (1, 26, 30, 3)"))
    return results


def check_embedding(seed: int = 0) -> list:
    """A default-width v3 network and its v1 embedding on five 48x48 slices."""
    v3 = Network(NetConfig(variant="v3"), seed=seed)
    v1 = embed_v3_into_v1(v3)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        x = rng.normal(size=(1, 48, 48, 3)).astype(np.float32)
        diff = np.abs(v1.forward(x).data - v3.forward(x).data).max()
        worst = max(worst, float(diff))
    return [_result("embedding/v3_in_v1", worst <= EMBED_TOL,
                    f"max logit diff {worst:.2e} over 5 probes of 48x48 at the "
                    f"default width (tol {EMBED_TOL:.0e})")]


# ---------------------------------------------------------------------------
# metrics (inline plain-loop references)


def dice_ref(a, b):
    inter = 0
    na = nb = 0
    for x, y in zip(a.ravel(), b.ravel()):
        na += bool(x)
        nb += bool(y)
        inter += bool(x) and bool(y)
    if na + nb == 0:
        return 1.0
    return 2.0 * inter / (na + nb)


def vs_ref(a, b):
    na = int(np.count_nonzero(a))
    nb = int(np.count_nonzero(b))
    if na + nb == 0:
        return 1.0
    return 1.0 - abs(na - nb) / (na + nb)


def surface_ref(mask):
    pts = []
    dims = mask.shape
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                if not mask[i, j, k]:
                    continue
                edge = False
                for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    ni, nj, nk = i + di, j + dj, k + dk
                    if not (0 <= ni < dims[0] and 0 <= nj < dims[1]
                            and 0 <= nk < dims[2]) or not mask[ni, nj, nk]:
                        edge = True
                        break
                if edge:
                    pts.append((i, j, k))
    return np.array(pts, dtype=np.int64).reshape(-1, 3)


def hd95_ref(a, b, spacing=(1.0, 1.0, 1.0)):
    sa = surface_ref(a)
    sb = surface_ref(b)
    if sa.shape[0] == 0 or sb.shape[0] == 0:
        return None
    sp = np.asarray(spacing, dtype=np.float64)

    def directed(src, dst):
        out = np.empty(src.shape[0])
        for i in range(src.shape[0]):
            d = (dst - src[i]) * sp
            out[i] = np.sqrt((d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2).min())
        out.sort()
        return out[max(int(np.ceil(0.95 * out.size)) - 1, 0)]

    return max(directed(sa, sb), directed(sb, sa))


# isotropic non-integer spacings: mathematically equal distances from
# different voxel deltas differ in their last bits, the case HD95's
# near-tie search exists for
ISO_SPACINGS = (0.3, 0.7, 0.958, 1.1)

# (dims, isotropic spacing, source voxel, offsets of three voxels at one
# real distance from it) for which scipy 1.17's distance transform names
# a voxel whose pinned distance is a last bit above the nearest's, so
# HD95 comes out right only through the near-tie search
NEAR_TIE_CASES = (
    ((10, 12, 19), 0.3, (6, 10, 2), ((-2, -1, -2), (-1, -2, 2), (0, 0, 3))),
    ((8, 14, 18), 0.7, (6, 0, 0), ((-3, 1, 2), (-3, 2, 1), (-1, 2, 3))),
)


def near_tie_pair(dims, src, offsets):
    """Masks (a, b) whose HD95 is the distance from src to the nearest
    offset voxel: b holds the offset voxels, a those and src."""
    b = np.zeros(dims, bool)
    for off in offsets:
        b[tuple(np.add(src, off))] = True
    a = b.copy()
    a[tuple(src)] = True
    return a, b


def check_metrics(trials: int = 100, seed: int = 0) -> list:
    """Each trial scores one random mask pair, extents 3 to 12, at a
    random anisotropic spacing and again at an isotropic non-integer one;
    the near-tie cases come first."""
    trials = check_count(trials, "trials")
    rng = np.random.default_rng(check_count(seed, "seed", least=0))
    mismatches = []
    for dims, s, src, offsets in NEAR_TIE_CASES:
        a, b = near_tie_pair(dims, src, offsets)
        if metrics.hd95(a, b, (s, s, s)) != hd95_ref(a, b, (s, s, s)):
            mismatches.append(f"hd95-near-tie/{s}")
    defined = 0
    for t in range(trials):
        dims = tuple(rng.integers(3, 13, size=3))
        a = rng.random(size=dims) < rng.uniform(0.05, 0.5)
        b = rng.random(size=dims) < rng.uniform(0.05, 0.5)
        spacing = tuple(rng.uniform(0.5, 3.0, size=3))
        iso = (float(rng.choice(ISO_SPACINGS)),) * 3
        if metrics.dice_binary(a, b) != dice_ref(a, b):
            mismatches.append(f"dice@{t}")
        if metrics.volumetric_similarity(a, b) != vs_ref(a, b):
            mismatches.append(f"vs@{t}")
        for sp in (spacing, iso):
            got = metrics.hd95(a, b, sp)
            want = hd95_ref(a, b, sp)
            if want is None:
                if got is not None:
                    mismatches.append(f"hd95-defined@{t}")
            else:
                defined += 1
                if got != want:
                    mismatches.append(f"hd95@{t}/{sp[0]:.3g}")
    passed = not mismatches and defined >= trials
    return [_result("metrics/oracle_agreement", passed,
                    f"{trials} trials, hd95 at a random and at an isotropic "
                    f"spacing, {defined} of {2 * trials} defined, "
                    f"{len(NEAR_TIE_CASES)} near-tie cases, "
                    f"mismatches: {mismatches[:5] if mismatches else 'none'}")]


# ---------------------------------------------------------------------------
# optimizer arithmetic


def nesterov_ref(p0, grads, lr, momentum, weight_decay) -> list:
    """Plain-python scalar trace of the update rule, one value per step:
    g' = g + wd*p;  v <- mu*v - lr*g';  p <- p + mu*v - lr*g'."""
    p, v, hist = float(p0), 0.0, []
    for g in grads:
        gp = g + weight_decay * p
        v = momentum * v - lr * gp
        p = p + momentum * v - lr * gp
        hist.append(p)
    return hist


def check_optimizer() -> list:
    results = []
    # 20-epoch table: halvings at epochs 4, 8, 12, 15, 16, 17, 18, 19
    table = [1, 1, 1, 1, .5, .5, .5, .5, .25, .25, .25, .25,
             .125, .125, .125, 1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256]
    lr_ok = all(lr_at(1.0, e, 20) == f for e, f in enumerate(table))
    results.append(_result("optim/lr_table", lr_ok,
                           f"20-epoch schedule, boundaries {LR_BOUNDARIES}"))
    halvings = (20, 40, 60, 75, 80, 85, 90, 95)
    wrong = [e for e in range(100)
             if lr_at(2e-4, e, 100) != 2e-4 * 2.0 ** -sum(b <= e for b in halvings)]
    results.append(_result("optim/lr_sweep_100", not wrong,
                           f"100-epoch schedule halves at epochs {halvings}, "
                           f"wrong at epochs {wrong[:5] or 'none'}"))

    p = Node.leaf(np.array(1.5, dtype=np.float64), requires_grad=True)
    opt = Optimizer({"p": p}, lr0=0.05, momentum=0.9, weight_decay=0.01)
    grads = [0.3, -0.7, 0.1, 0.9, -0.2]
    got = []
    for g in grads:
        p.grad = np.array(g, dtype=np.float64)
        opt.step()
        got.append(float(p.data))
    want = nesterov_ref(1.5, grads, lr=0.05, momentum=0.9, weight_decay=0.01)
    worst = max(abs(a - b) for a, b in zip(got, want))
    results.append(_result("optim/nesterov_trace", worst <= 1e-12,
                           f"{len(grads)}-step float64 trace, max abs err {worst:.2e}"))
    return results


# ---------------------------------------------------------------------------
# augmentation


def check_augmentation(seed: int = 0) -> list:
    seed = check_count(seed, "seed", least=0)
    results = []
    full = policy_ops("full")
    light = policy_ops("light")
    results.append(_result("augment/policy_sizes",
                           len(full) == 15 and len(light) == 3,
                           f"full={len(full)} light={len(light)}"))
    planes = {plane: policy_for_plane(plane) for plane in ("sagittal", "coronal", "transverse")}
    results.append(_result("augment/plane_policies", planes == {
        "sagittal": "light", "coronal": "light", "transverse": "full"}, str(planes)))
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(2, 16, 16, 2)).astype(np.float32)
    # ids with gaps: a blend of two (3 and 7 to 5, say) is an id no slice holds
    labels = rng.choice(np.array([0, 3, 7], np.uint8), size=(2, 16, 16))
    img15, lab15 = expand_slices(images, labels, "full", seed=seed)
    img3, lab3 = expand_slices(images, labels, "light", seed=seed)
    shapes = [v.shape for v in (img15, lab15, img3, lab3)]
    results.append(_result("augment/expansion_counts", shapes == [
        (30, 16, 16, 2), (30, 16, 16), (6, 16, 16, 2), (6, 16, 16)],
        f"full 2->{img15.shape[0]}, light 2->{img3.shape[0]}, images and labels"))
    originals_ok = all(np.array_equal(img[i * k], images[i]) and
                       np.array_equal(lab[i * k], labels[i])
                       for img, lab, k in ((img15, lab15, 15), (img3, lab3, 3))
                       for i in range(2))
    results.append(_result("augment/originals_preserved", originals_ok,
                           "each policy's block leaders equal their source slices, "
                           "images and labels"))
    # an op keeps its slice's ids, though its zero fill may add background
    invented = [f"slice {i} op {k}" for i in range(2) for k in range(15)
                if not set(np.unique(lab15[i * 15 + k])) <= {0, *np.unique(labels[i])}]
    results.append(_result("augment/label_ids_kept", not invented,
                           f"ids of the full policy's slices, invented in: "
                           f"{invented[:3] or 'none'}"))
    warped, warped_labels = elastic_slice(images[0], labels[0], rng, alpha=0.0, sigma=4.0)
    results.append(_result("augment/elastic_identity", np.array_equal(warped, images[0]) and
                           np.array_equal(warped_labels, labels[0]),
                           "an elastic warp at alpha 0 returns its slice"))
    r, rl = rotate_slice(images[0], labels[0], 90)
    rot_ok = np.array_equal(r[:, :, 0], np.rot90(images[0][:, :, 0])) and \
        np.array_equal(rl, np.rot90(labels[0]))
    results.append(_result("augment/rotation_exactness", rot_ok,
                           "90 degree rotation is a pixel permutation"))
    return results


# ---------------------------------------------------------------------------


# every suite by name, each called as suite(trials, seed)
SUITES = {
    "gradcheck": lambda trials, seed: (check_op_gradients(seed)
                                       + check_network_gradients(seed)),
    "shapes": lambda trials, seed: check_structure(),
    "embedding": lambda trials, seed: check_embedding(seed),
    "metrics": lambda trials, seed: check_metrics(trials=trials, seed=seed),
    "optimizer": lambda trials, seed: check_optimizer(),
    "augmentation": lambda trials, seed: check_augmentation(seed),
}


def run_all(trials: int = 100, seed: int = 0) -> list:
    check_count(trials, "trials")
    check_count(seed, "seed", least=0)
    return [r for suite in SUITES.values() for r in suite(trials, seed)]


def format_results(results) -> str:
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)


def require_all(results) -> None:
    failed = [r for r in results if not r.passed]
    if failed:
        raise VerificationFailure(
            f"{len(failed)} verification checks failed: "
            + ", ".join(r.name for r in failed[:5]))
