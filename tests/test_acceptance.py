"""Acceptance gates: eight criteria, one test (and one pass line) each.

Run with ``pytest tests/test_acceptance.py -v`` — the test names are the
per-criterion pass/fail lines; add ``-s`` to see the detail lines too.
The two training-based gates dominate the runtime (several minutes).
"""

import json

import numpy as np
import pytest

import oracles
from mixnet import cli, metrics, ops, volume
from mixnet.arch import NetConfig, Network, embed_v3_into_v1
from mixnet.augment import (elastic_slice, expand_slices, policy_for_plane,
                            policy_ops)
from mixnet.autodiff import Node, backward, topo_order
from mixnet.trainer import Optimizer, lr_at
from mixnet.volume import synthesize_subject

TOL = 1e-4


def _pass(criterion, detail):
    print(f"PASS [criterion-{criterion}] {detail}")


# ---------------------------------------------------------------------------
# 1. gradient correctness: every op + a full dilated residual unit


def _fd_worst(build, arrays, step=1e-3):
    """Max rel error between backward() and the independent FD oracle.

    Coordinates that miss at the base step are redone with smaller steps:
    with relu in the graph a random input can sit within ``step`` of the
    kink, where a central difference straddles the corner and reports the
    average of the two slopes. That artifact shrinks with the step; a
    genuinely wrong gradient does not.
    """
    leaves = [Node.leaf(np.asarray(a, np.float64), requires_grad=True)
              for a in arrays]
    backward(build(leaves))
    worst = 0.0
    for j, arr in enumerate(arrays):
        def f(x, j=j):
            vals = [np.asarray(a, np.float64) for a in arrays]
            vals[j] = x
            return float(build([Node.leaf(v) for v in vals]).data)

        num = oracles.num_grad(f, arr, step)
        ana = leaves[j].grad
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-2)
        err = np.abs(ana - num) / denom
        for i in np.flatnonzero(err.reshape(-1) > TOL):
            x = np.array(arr, np.float64)
            flat = x.reshape(-1)
            orig = flat[i]
            for retry in (1e-5, 3e-7):
                flat[i] = orig + retry
                f_plus = f(x)
                flat[i] = orig - retry
                f_minus = f(x)
                flat[i] = orig
                fd = (f_plus - f_minus) / (2 * retry)
                a = ana.reshape(-1)[i]
                retry_err = abs(a - fd) / max(abs(a), abs(fd), 1e-2)
                err.reshape(-1)[i] = min(err.reshape(-1)[i], retry_err)
                if retry_err <= TOL:
                    break
        worst = max(worst, float(err.max()))
    return worst


def _op_cases(rng):
    n, h, w, c = 1, int(rng.integers(4, 7)), int(rng.integers(4, 7)), 2
    x = rng.normal(size=(n, h, w, c))
    k3 = rng.normal(size=(3, 3, c, 3))
    k5 = rng.normal(size=(5, 5, c, 2))
    b3 = rng.normal(size=(3,))
    logits = rng.normal(size=(n, h, w, 3))
    labels = rng.integers(0, 3, size=(n, h, w))
    pair = rng.normal(size=(n, h, w, c))
    k_head = rng.normal(size=(3, 3, 3 * c, 3))
    g_head = Node.leaf(rng.normal(size=(n, h, w, 3)))
    return [
        ("conv2d", lambda lv: ops.reduce_sum(ops.conv2d(lv[0], lv[1], lv[2])),
         [x, k3, b3]),
        ("conv2d_dilated",
         lambda lv: ops.reduce_sum(ops.conv2d(lv[0], lv[1], lv[2], dilation=2)),
         [x, k3, b3]),
        ("conv2d_5x5", lambda lv: ops.reduce_sum(ops.conv2d(lv[0], lv[1])),
         [x, k5]),
        ("maxpool2x2", lambda lv: ops.reduce_sum(ops.maxpool2x2(lv[0])), [x]),
        ("avgpool_region",
         lambda lv: ops.reduce_sum(ops.avgpool_region(lv[0], 2)), [x]),
        ("bilinear_up",
         lambda lv: ops.reduce_sum(ops.bilinear_resize(lv[0], h + 3, w + 5)), [x]),
        ("bilinear_down",
         lambda lv: ops.reduce_sum(ops.bilinear_resize(lv[0], 3, 2)), [x]),
        ("pyramid_head",
         lambda lv: ops.reduce_sum(ops.mul(
             ops.pyramid_head(lv[0], lv[1], lv[2], (2, 4)), g_head)), [x, k_head, b3]),
        ("relu", lambda lv: ops.reduce_sum(ops.relu(lv[0])), [x]),
        ("add", lambda lv: ops.reduce_sum(ops.add(lv[0], lv[1])), [pair, x]),
        ("mul", lambda lv: ops.reduce_sum(ops.mul(lv[0], lv[1])), [pair, x]),
        ("concat",
         lambda lv: ops.reduce_sum(ops.mul(ops.concat_channels(lv),
                                           ops.concat_channels(lv))),
         [pair, x]),
        ("xent_sum",
         lambda lv: ops.softmax_cross_entropy(lv[0], labels, "sum"), [logits]),
        ("xent_mean",
         lambda lv: ops.softmax_cross_entropy(lv[0], labels, "mean"), [logits]),
    ]


def _res_unit_cases(rng, dilation):
    """One dilated residual unit; identity and projection shortcuts."""
    x = rng.normal(size=(1, 6, 6, 4))
    w_red = rng.normal(size=(1, 1, 4, 2))
    b_red = rng.normal(size=(2,))
    w_dil = rng.normal(size=(3, 3, 2, 2))
    b_dil = rng.normal(size=(2,))

    def identity_unit(lv):
        xx, w1, b1, w2, b2, w3, b3 = lv
        y = ops.relu(ops.conv2d(xx, w1, b1))
        y = ops.relu(ops.conv2d(y, w2, b2, dilation=dilation))
        y = ops.conv2d(y, w3, b3)
        return ops.reduce_sum(ops.relu(ops.add(y, xx)))

    def projection_unit(lv):
        xx, w1, b1, w2, b2, w3, b3, ws, bs = lv
        y = ops.relu(ops.conv2d(xx, w1, b1))
        y = ops.relu(ops.conv2d(y, w2, b2, dilation=dilation))
        y = ops.conv2d(y, w3, b3)
        short = ops.conv2d(xx, ws, bs)
        return ops.reduce_sum(ops.relu(ops.add(y, short)))

    same = [x, w_red, b_red, w_dil, b_dil,
            rng.normal(size=(1, 1, 2, 4)), rng.normal(size=(4,))]
    proj = [x, w_red, b_red, w_dil, b_dil,
            rng.normal(size=(1, 1, 2, 3)), rng.normal(size=(3,)),
            rng.normal(size=(1, 1, 4, 3)), rng.normal(size=(3,))]
    return [("res_unit_identity", identity_unit, same),
            ("res_unit_projection", projection_unit, proj)]


def test_criterion_1_gradient_correctness():
    worst_by_op = {}
    for instance in range(5):
        rng = np.random.default_rng(100 + instance)
        for name, build, arrays in _op_cases(rng):
            err = _fd_worst(build, arrays)
            worst_by_op[name] = max(worst_by_op.get(name, 0.0), err)
        dilation = (1, 2, 4, 8, 3)[instance]
        for name, build, arrays in _res_unit_cases(rng, dilation):
            err = _fd_worst(build, arrays)
            worst_by_op[name] = max(worst_by_op.get(name, 0.0), err)
    worst = max(worst_by_op.values())
    offenders = {k: f"{v:.2e}" for k, v in worst_by_op.items() if v > TOL}
    assert worst <= TOL, f"gradient mismatches: {offenders}"
    _pass(1, f"{len(worst_by_op)} ops x 5 instances, max rel err {worst:.2e} "
             f"(tol {TOL:.0e})")


# ---------------------------------------------------------------------------
# 2. reference-architecture conformance


def _named_shapes(net, side=48):
    """Shapes by node name, the logits' shape, and the (name, shape) of
    each input part of the output unit's ``out.final`` vertex (its
    parents but the kernel and bias)."""
    logits = net.forward(np.zeros((1, side, side, 3), np.float32))
    shapes = {}
    for node in topo_order(logits):
        if node.name:
            shapes[node.name] = node.shape
        if node.name == "out.final":
            head = [(p.name, p.shape) for p in node.parents[:-2]]
    return shapes, logits.shape, head


def _assert_head_parts(head, names, width, half):
    """The head reads the level outputs ``names``, in that order, at half
    resolution, ``width`` channels together."""
    assert [name for name, _ in head] == names
    assert all(shape[:3] == (1, half, half) for _, shape in head)
    assert sum(shape[-1] for _, shape in head) == width


def test_criterion_2_structure_conformance():
    half = 24  # 48x48 input, halved by the initial pool
    checks = 0

    net = Network(NetConfig(variant="v1"), seed=0)
    shapes, out, head = _named_shapes(net)
    for i in range(1, 6):
        assert shapes[f"level{i}.out"] == (1, half, half, 72)
        checks += 1
    _assert_head_parts(head, [f"level{i}.out" for i in range(1, 6)], 360, half)
    assert out == (1, 48, 48, 4)

    net = Network(NetConfig(variant="v2"), seed=0)
    shapes, out, head = _named_shapes(net)
    for i in (1, 3, 5):
        assert shapes[f"level{i}.fuse"] == (1, half, half, 72)
        assert shapes[f"level{i}.out"] == (1, half, half, 24)
        checks += 2
    for i in (2, 4):
        for s in range(3):
            assert shapes[f"level{i}.s{s}.fuse"] == (1, half, half, 48)
            assert shapes[f"level{i}.s{s}.out"] == (1, half, half, 24)
            checks += 2
    _assert_head_parts(head, [name for i in range(1, 6) for name in (
        [f"level{i}.out"] if i % 2 else [f"level{i}.s{s}.out" for s in range(3)])],
        216, half)
    assert out == (1, 48, 48, 4)

    net = Network(NetConfig(variant="v3"), seed=0)
    shapes, out, head = _named_shapes(net)
    for i in range(1, 6):
        for s in range(3):
            assert shapes[f"level{i}.s{s}.out"] == (1, half, half, 24)
            checks += 1
    _assert_head_parts(head, [f"level{i}.s{s}.out" for i in range(1, 6) for s in range(3)],
                       360, half)
    assert out == (1, 48, 48, 4)
    checks += 6  # the three heads' input parts and three logit shapes

    # parameter-tensor level conformance for all three variants
    from mixnet.verify import check_structure
    results = check_structure()
    assert all(r.passed for r in results), \
        [r.name for r in results if not r.passed]
    checks += len(results)
    _pass(2, f"{checks} structural checks across v1/v2/v3 "
             f"(72/48/24-wide levels, half-resolution maps)")


# ---------------------------------------------------------------------------
# 3. v3 solution space contained in v1


def test_criterion_3_embedding_containment():
    v3 = Network(NetConfig(variant="v3"), seed=4)
    v1 = embed_v3_into_v1(v3)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(5):
        x = rng.normal(size=(1, 48, 48, 3)).astype(np.float32)
        diff = float(np.abs(v1.forward(x).data - v3.forward(x).data).max())
        worst = max(worst, diff)
    assert worst <= TOL, f"embedded v1 disagrees with v3 by {worst:.2e}"
    _pass(3, f"5 random draws, max logit diff {worst:.2e} (tol {TOL:.0e})")


# ---------------------------------------------------------------------------
# 4. overfit fixture at the pinned optimizer settings


def test_criterion_4_overfit_single_slice():
    sub = synthesize_subject(dims=(96, 96, 96), classes=4, seed=11)
    img = sub["images"][:, :, 48, :]
    lab = sub["labels"][:, :, 48]
    assert set(np.unique(lab)) == {0, 1, 2, 3}
    batch_img = np.stack([img, img])
    batch_lab = np.stack([lab, lab])

    reached = {}
    for variant in ("v1", "v2", "v3"):
        net = Network(NetConfig(variant=variant), seed=0)
        opt = Optimizer(net.store, lr0=2e-4, momentum=0.99, weight_decay=1e-3)
        for step in range(1, 201):
            loss = ops.softmax_cross_entropy(net.forward(batch_img),
                                             batch_lab, "mean")
            opt.zero_grad()
            backward(loss)
            opt.step()
            if step % 25 == 0:
                pred = net.predict_probs(img[None]).argmax(-1)[0]
                dice = float(np.mean([metrics.dice_binary(pred == k, lab == k)
                                      for k in range(1, 4)]))
                if dice >= 0.95:
                    reached[variant] = (step, dice)
                    break
        assert variant in reached, \
            f"{variant} failed to reach 0.95 dice in 200 steps (got {dice:.3f})"
    detail = ", ".join(f"{v} {d:.3f}@{s}" for v, (s, d) in reached.items())
    _pass(4, f"all variants >= 0.95 foreground dice within 200 steps ({detail})")


# ---------------------------------------------------------------------------
# 5. end-to-end desk run: leave-one-out fold, three planes, 1:1:4 fusion


def test_criterion_5_multi_plane_fusion_beats_off_planes(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--subjects", "9",
                     "--dims", "96,96,96", "--classes", "4",
                     "--seed", "20"]) == 0

    preds = {}
    for plane in ("sagittal", "coronal", "transverse"):
        run = tmp_path / f"run_{plane}"
        assert cli.main(["train", "--data", str(data), "--out", str(run),
                         "--variant", "v3", "--filters", "8",
                         "--plane", plane, "--epochs", "2",
                         "--max-slices", "48", "--holdout", "subject00",
                         "--val-every", "0", "--seed", "2"]) == 0
        out = tmp_path / f"pred_{plane}.vol"
        assert cli.main(["predict", "--checkpoint", str(run / "checkpoint.ckpt"),
                         "--data", str(data), "--subject", "subject00",
                         "--plane", plane, "--out", str(out)]) == 0
        preds[plane], _ = volume.read_volume(out)

    fused_path = tmp_path / "fused.vol"
    assert cli.main(["fuse", "--inputs",
                     str(tmp_path / "pred_sagittal.vol"),
                     str(tmp_path / "pred_coronal.vol"),
                     str(tmp_path / "pred_transverse.vol"),
                     "--out", str(fused_path)]) == 0
    fused, _ = volume.read_volume(fused_path)
    truth, _ = volume.read_volume(data / "subject00_labels.vol")

    def fg_dice(pred):
        return float(np.mean([metrics.dice_binary(pred == k, truth == k)
                              for k in range(1, 4)]))

    single = {plane: fg_dice(p.argmax(-1)) for plane, p in preds.items()}
    fused_dice = fg_dice(fused)
    best_off = max(single["sagittal"], single["coronal"])
    assert fused_dice > best_off, \
        f"fused {fused_dice:.4f} <= best off-plane {best_off:.4f} ({single})"
    assert fused_dice > 0.5, f"pipeline quality collapsed: {fused_dice:.4f}"
    _pass(5, f"fused dice {fused_dice:.4f} > best off-plane {best_off:.4f} "
             f"(sag {single['sagittal']:.4f}, cor {single['coronal']:.4f}, "
             f"tra {single['transverse']:.4f})")


# ---------------------------------------------------------------------------
# 6. metric oracle equivalence


def test_criterion_6_metrics_match_oracles_exactly():
    rng = np.random.default_rng(60)
    defined = 0
    for trial in range(100):
        dims = tuple(rng.integers(3, 13, size=3))
        a = rng.random(size=dims) < rng.uniform(0.05, 0.5)
        b = rng.random(size=dims) < rng.uniform(0.05, 0.5)
        spacing = tuple(rng.uniform(0.5, 3.0, size=3))
        assert metrics.dice_binary(a, b) == oracles.dice_naive(a, b)
        assert metrics.volumetric_similarity(a, b) == \
            oracles.volumetric_similarity_naive(a, b)
        got = metrics.hd95(a, b, spacing)
        want = oracles.hd95_naive(a, b, spacing)
        if want is None:
            assert got is None
        else:
            defined += 1
            assert got == want, f"trial {trial}: hd95 {got!r} != {want!r}"
    assert defined >= 50
    _pass(6, f"100 random trials <= 12^3: dice/vs/hd95 all exactly equal "
             f"({defined} trials with defined hd95)")


# ---------------------------------------------------------------------------
# 7. schedule and optimizer arithmetic


def test_criterion_7_schedule_and_nesterov_trace():
    boundaries = (20, 40, 60, 75, 80, 85, 90, 95)
    for epoch in range(100):
        k = sum(1 for b in boundaries if b <= epoch)
        assert lr_at(2e-4, epoch, 100) == 2e-4 * 2.0 ** -k, f"epoch {epoch}"

    # two-step scalar trace, spelled out by hand
    lr, mu, wd = 0.1, 0.9, 0.01
    p, v = 1.0, 0.0
    g1 = 0.5 + wd * p
    v = mu * v - lr * g1
    p = p + mu * v - lr * g1
    g2 = -0.3 + wd * p
    v = mu * v - lr * g2
    p = p + mu * v - lr * g2

    node = Node.leaf(np.array(1.0, np.float64), requires_grad=True)
    opt = Optimizer({"p": node}, lr0=lr, momentum=mu, weight_decay=wd)
    for g in (0.5, -0.3):
        node.grad = np.array(g, np.float64)
        opt.step()
    err = abs(float(node.data) - p)
    assert err <= 1e-12, f"two-step trace off by {err:.2e}"
    _pass(7, f"lr table exact over 100 epochs at 8 boundaries; "
             f"two-step Nesterov trace err {err:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 8. augmentation counts and invariants


def test_criterion_8_augmentation_policies():
    assert policy_for_plane("transverse") == "full"
    assert policy_for_plane("sagittal") == "light"
    assert policy_for_plane("coronal") == "light"
    assert len(policy_ops("full")) == 15
    assert len(policy_ops("light")) == 3

    sub = synthesize_subject(dims=(32, 32, 32), classes=4, seed=8)
    images = volume.slice_stack(sub["images"], "transverse")[14:18]
    labels = volume.slice_stack(sub["labels"], "transverse")[14:18]

    full_i, full_l = expand_slices(images, labels, "full", seed=0)
    light_i, light_l = expand_slices(images, labels, "light", seed=0)
    assert full_i.shape[0] == 4 * 15 and full_l.shape[0] == 4 * 15
    assert light_i.shape[0] == 4 * 3 and light_l.shape[0] == 4 * 3

    # alpha = 0 elastic deformation is the identity
    rng = np.random.default_rng(0)
    image, label = images[0], labels[0]
    out_i, out_l = elastic_slice(image, label, rng, alpha=0.0, sigma=4.0)
    np.testing.assert_allclose(out_i, image, atol=1e-6)
    np.testing.assert_array_equal(out_l, label)

    # no augmented slice invents class ids (zero-fill may add background)
    for src in range(4):
        allowed = set(np.unique(labels[src])) | {0}
        for k in range(15):
            got = set(np.unique(full_l[src * 15 + k]))
            assert got <= allowed, f"slice {src} op {k}: {got} vs {allowed}"
    _pass(8, "15 transverse / 3 off-plane samples per original, "
             "alpha=0 elastic is identity, label sets preserved")
