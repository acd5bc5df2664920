"""Acceptance gates: eight criteria, one test (and one pass line) each.

Run with ``pytest tests/test_acceptance.py -v`` — the test names are the
per-criterion pass/fail lines; add ``-s`` to see the detail lines too.
The two training-based gates dominate the runtime (several minutes).

Gates 2, 3, 6, 7 and 8 run the ``mixnet verify`` suite of their subject
(``shapes``, ``embedding``, ``metrics``, ``optimizer``, ``augmentation``)
at the gate's seed and make no check of their own, so the command line
and the tests check one list.  Gate 1 checks the suite's op gradient table
under this file's own finite differences.  Gates 4 and 5 train.
"""

import numpy as np

import oracles
from mixnet import cli, metrics, ops, verify, volume
from mixnet.arch import NetConfig, Network
from mixnet.autodiff import Node, backward
from mixnet.trainer import Optimizer
from mixnet.volume import synthesize_subject

TOL = 1e-4


def _pass(criterion, detail):
    print(f"PASS [criterion-{criterion}] {detail}")


def _pass_suite(criterion, suite, seed=0):
    """Run ``mixnet verify --suite <suite> --seed <seed>`` (100 trials) and
    require every check to pass."""
    results = verify.SUITES[suite](100, seed)
    failed = [r.line() for r in results if not r.passed]
    assert not failed, failed
    _pass(criterion, "; ".join(f"{r.name}: {r.detail}" for r in results))


# ---------------------------------------------------------------------------
# 1. gradient correctness: every case of verify's op table, under this
# file's own finite differences rather than autodiff.grad_check, and a
# full dilated residual unit


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
        dilation = (1, 2, 4, 8, 3)[instance]
        for name, build, arrays in verify._op_builders(rng) + _res_unit_cases(rng, dilation):
            err = _fd_worst(build, arrays)
            worst_by_op[name] = max(worst_by_op.get(name, 0.0), err)
    worst = max(worst_by_op.values())
    offenders = {k: f"{v:.2e}" for k, v in worst_by_op.items() if v > TOL}
    assert worst <= TOL, f"gradient mismatches: {offenders}"
    _pass(1, f"{len(worst_by_op)} cases x 5 instances, max rel err {worst:.2e} "
             f"(tol {TOL:.0e})")


# ---------------------------------------------------------------------------
# 2. reference-architecture conformance: parameter shapes, dilations, level
# and fuse widths, the head's input parts in order, and the logit shape


def test_criterion_2_structure_conformance():
    _pass_suite(2, "shapes")


# ---------------------------------------------------------------------------
# 3. v3 solution space contained in v1


def test_criterion_3_embedding_containment():
    _pass_suite(3, "embedding", seed=4)


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
    _pass_suite(6, "metrics", seed=60)


# ---------------------------------------------------------------------------
# 7. schedule and optimizer arithmetic


def test_criterion_7_schedule_and_nesterov_trace():
    _pass_suite(7, "optimizer")


# ---------------------------------------------------------------------------
# 8. augmentation counts and invariants


def test_criterion_8_augmentation_policies():
    _pass_suite(8, "augmentation", seed=8)
