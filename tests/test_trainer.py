import csv
import gc
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from mixnet.arch import NetConfig, Network
from mixnet import arch, augment, ops
from mixnet.augment import expand_slices
from mixnet.autodiff import Node, backward
from mixnet.errors import ConfigError, DataError, TrainingDiverged
from mixnet.metrics import dice_binary
from mixnet import trainer as tr
from mixnet.records import read_record

import oracles


def tiny_net(seed=1):
    return Network(NetConfig(variant="v3", classes=3, filters=4), seed=seed)


def tiny_task(seed=0, n=2, size=24):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, size, size, 3)).astype(np.float32)
    # labels correlated with the first modality so the task is learnable
    y = (x[..., 0] > 0).astype(np.int64) + (x[..., 1] > 0.8).astype(np.int64)
    return x, y


# ---------------------------------------------------------------------------
# learning rate schedule


def test_lr_schedule_20_epoch_table():
    # halvings at fractions .2 .4 .6 .75 .8 .85 .9 .95 of 20 epochs:
    # epochs 4, 8, 12, 15, 16, 17, 18, 19
    factors = [1, 1, 1, 1,
               1 / 2, 1 / 2, 1 / 2, 1 / 2,
               1 / 4, 1 / 4, 1 / 4, 1 / 4,
               1 / 8, 1 / 8, 1 / 8,
               1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256]
    for e, f in enumerate(factors):
        assert tr.lr_at(2e-4, e, 20) == pytest.approx(2e-4 * f, rel=1e-15), e


def test_lr_schedule_boundary_is_inclusive():
    # fraction exactly at a boundary already counts as crossed
    assert tr.lr_at(1.0, 1, 5) == 0.5          # 1/5 = 0.2
    assert tr.lr_at(1.0, 3, 4) == 1 / 16       # 0.75 hits .2 .4 .6 .75
    assert tr.lr_at(1.0, 0, 7) == 1.0


def test_lr_schedule_rejects_bad_total():
    with pytest.raises(ConfigError):
        tr.lr_at(1.0, 0, 0)


# ---------------------------------------------------------------------------
# optimizer


def scalar_param(value):
    return Node.leaf(np.array(value, dtype=np.float64), requires_grad=True)


def test_nesterov_step_matches_reference_trace():
    grads = [0.3, -0.7, 0.1, 0.9, -0.2]
    lr, mu, wd = 0.05, 0.9, 0.01
    p = scalar_param(1.5)
    opt = tr.Optimizer({"p": p}, lr0=lr, momentum=mu, weight_decay=wd)
    got = []
    for g in grads:
        p.grad = np.array(g, dtype=np.float64)
        opt.step()
        got.append(float(p.data))
    want = oracles.nesterov_trace(1.5, grads, lr, mu, wd)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_two_step_trace_by_hand():
    # lr=0.1, mu=0.5, wd=0: g'=g, v1=-0.1*2=-0.2, p1=1+0.5*(-0.2)-0.1*2=0.7
    # v2=0.5*(-0.2)-0.1*1=-0.2, p2=0.7+0.5*(-0.2)-0.1*1=0.5
    p = scalar_param(1.0)
    opt = tr.Optimizer({"p": p}, lr0=0.1, momentum=0.5, weight_decay=0.0)
    p.grad = np.array(2.0)
    opt.step()
    assert abs(float(p.data) - 0.7) < 1e-12
    p.grad = np.array(1.0)
    opt.step()
    assert abs(float(p.data) - 0.5) < 1e-12


def test_weight_decay_pulls_toward_zero_without_gradient():
    p = scalar_param(2.0)
    opt = tr.Optimizer({"p": p}, lr0=0.1, momentum=0.0, weight_decay=0.5)
    p.grad = None
    opt.step()
    # g' = 0 + 0.5*2 = 1; with momentum 0 the update is just -lr*g'
    assert abs(float(p.data) - 1.9) < 1e-12


def test_optimizer_aborts_on_non_finite_gradient():
    p = scalar_param(1.0)
    opt = tr.Optimizer({"p": p}, lr0=2e-4, momentum=0.99, weight_decay=1e-3)
    p.grad = np.array(np.inf)
    with pytest.raises(TrainingDiverged):
        opt.step()


def test_optimizer_keeps_float32_buffers_float32():
    net = tiny_net()
    opt = tr.Optimizer(net.store, lr0=1e-3, momentum=0.99, weight_decay=1e-3)
    for name, p in net.store.items():
        p.grad = np.ones(p.shape, dtype=np.float32)
    opt.step()
    assert all(v.dtype == np.float32 for v in opt.velocities.values())
    assert all(p.dtype == np.float32 for _, p in net.store.items())


# ---------------------------------------------------------------------------
# trainer loop


def test_training_reduces_loss_on_learnable_task():
    x, y = tiny_task()
    net = tiny_net()
    t = tr.Trainer(net, x, y, tr.TrainConfig(
        epochs=12, batch_size=2, lr0=5e-4, momentum=0.9, weight_decay=0.0,
        use_lr_schedule=False, val_every=0, seed=7))
    hist = t.fit()
    assert len(hist) == 12
    first, last = hist[0]["loss"], hist[-1]["loss"]
    assert last < 0.75 * first


def test_validation_dice_is_recorded(tmp_path):
    x, y = tiny_task()
    net = tiny_net()
    log = tmp_path / "log.csv"
    t = tr.Trainer(net, x, y, tr.TrainConfig(
        epochs=2, batch_size=2, use_lr_schedule=False, val_every=1, seed=1),
        val=(x, y), log_path=log)
    hist = t.fit()
    assert "val_dice" in hist[-1]
    assert len(hist[-1]["val_dice"]) == net.config.classes - 1
    text = log.read_text().splitlines()
    assert text[0].startswith("epoch,lr,loss")
    assert len(text) == 3


def test_validation_dice_is_the_dice_of_the_argmax_per_class():
    x, y = tiny_task()
    vx, vy = tiny_task(seed=3, n=3)
    net = tiny_net()
    t = tr.Trainer(net, x, y, tr.TrainConfig(
        epochs=2, batch_size=2, use_lr_schedule=False, val_every=1, seed=1),
        val=(vx, vy))
    hist = t.fit()
    pred = net.predict_probs(vx).argmax(axis=-1)
    want = [dice_binary(pred == k, vy == k) for k in range(1, net.config.classes)]
    assert hist[-1]["val_dice"] == want
    assert hist[-1]["val_dice_mean"] == float(np.mean(want))


@pytest.mark.parametrize("case", ["two modalities", "other size", "class 3 of 3",
                                  "no slices", "float labels"])
def test_trainer_checks_the_validation_pair_before_training(case):
    x, y = tiny_task()
    vx, vy = {"two modalities": (x[..., :2], y),
              "other size": (x, y[:, :12]),
              "no slices": (x[:0], y[:0]),
              "float labels": (x, y.astype(np.float32)),
              "class 3 of 3": (x, np.where(y == 2, 3, y))}[case]
    with pytest.raises(DataError, match="^(bad validation set|validation labels)"):
        tr.Trainer(tiny_net(), x, y, tr.TrainConfig(epochs=1, batch_size=2),
                   val=(vx, vy))


def test_log_rows_are_as_wide_as_the_header(tmp_path):
    x, y = tiny_task()
    log = tmp_path / "log.csv"
    t = tr.Trainer(tiny_net(), x, y, tr.TrainConfig(
        epochs=2, batch_size=2, use_lr_schedule=False, val_every=2, seed=1),
        val=(x, y), log_path=log)
    t.fit()
    with open(log, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [7, 7, 7]
    assert rows[1][4:] == ["", "", ""]        # epoch 1 was not validated
    assert all(rows[2][4:])


def test_a_killed_log_write_leaves_the_previous_log(tmp_path, monkeypatch):
    x, y = tiny_task()
    log = tmp_path / "log.csv"
    t = tr.Trainer(tiny_net(), x, y, tr.TrainConfig(epochs=2, batch_size=2, seed=1),
                   log_path=log)
    t.fit(1)
    before = log.read_bytes()

    def killed(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(OSError):
        t.fit(2)
    assert log.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["log.csv"]


def test_trainer_rejects_mismatched_labels():
    x, y = tiny_task()
    with pytest.raises(DataError):
        tr.Trainer(tiny_net(), x, y[:, :12], tr.TrainConfig())


def test_trainer_diverged_on_nan_input():
    x, y = tiny_task()
    x[0, 0, 0, 0] = np.nan
    t = tr.Trainer(tiny_net(), x, y, tr.TrainConfig(epochs=1, batch_size=2, seed=0))
    with pytest.raises(TrainingDiverged):
        t.fit()


def test_train_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(momentum=1.0).validate()
    with pytest.raises(ConfigError):
        tr.TrainConfig(loss_reduction="max").validate()
    with pytest.raises(ConfigError):
        tr.TrainConfig(epochs=0).validate()
    with pytest.raises(ConfigError):
        read_record(tr.TrainConfig, {"epochs": 3, "warmup": 1}, "config", ConfigError)
    assert read_record(tr.TrainConfig, {"epochs": 3}, "config", ConfigError).epochs == 3


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    x, y = tiny_task()
    net = tiny_net()
    t = tr.Trainer(net, x, y, tr.TrainConfig(epochs=3, batch_size=2, seed=2))
    t.fit(2)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, net, t)
    net2 = tr.load_network(path)
    assert net2.config == net.config
    probe = x[:1]
    np.testing.assert_array_equal(net.forward(probe).data, net2.forward(probe).data)


def test_resume_is_bit_exact(tmp_path):
    x, y = tiny_task(seed=3, n=4)
    cfg = tr.TrainConfig(epochs=4, batch_size=2, lr0=3e-4, seed=11, val_every=0)

    straight = tr.Trainer(tiny_net(seed=5), x, y, cfg)
    straight.fit()

    broken = tr.Trainer(tiny_net(seed=5), x, y, cfg)
    broken.fit(2)
    path = tmp_path / "mid.bin"
    tr.save_checkpoint(path, broken.net, broken)

    resumed = tr.resume_trainer(path, x, y)
    assert resumed.epoch == 2
    resumed.fit()
    assert resumed.epoch == 4

    for name, p in straight.net.store.items():
        np.testing.assert_array_equal(p.data, resumed.net.store.get(name).data,
                                      err_msg=name)
    for name, v in straight.optimizer.velocities.items():
        np.testing.assert_array_equal(v, resumed.optimizer.velocities[name])
    assert straight.rng.bit_generator.state == resumed.rng.bit_generator.state


def _replace_header(src, dst, make):
    """Copy a checkpoint with its JSON header replaced by ``make(header)``."""
    raw = src.read_bytes()
    at = len(tr.CKPT_MAGIC)
    version, hlen = struct.unpack("<IQ", raw[at:at + 12])
    header = make(json.loads(raw[at + 12:at + 12 + hlen]))
    blob = json.dumps(header, sort_keys=True).encode()
    dst.write_bytes(raw[:at] + struct.pack("<IQ", version, len(blob)) + blob
                    + raw[at + 12 + hlen:])


def _rewrite_header(src, dst, edit):
    """Copy a checkpoint with its JSON header edited in place by ``edit``."""
    def make(header):
        edit(header)
        return header
    _replace_header(src, dst, make)


def test_checkpoint_buffers_load_by_name_not_by_order(tmp_path):
    x, y = tiny_task(seed=4, n=4)
    t = tr.Trainer(tiny_net(), x, y, tr.TrainConfig(epochs=2, batch_size=2, seed=3))
    t.fit(1)
    path, flipped = tmp_path / "ck.bin", tmp_path / "flipped.bin"
    tr.save_checkpoint(path, t.net, t)
    # the same buffers, bytes and CRCs, listed and stored in reverse order
    raw = path.read_bytes()
    at = len(tr.CKPT_MAGIC)
    version, hlen = struct.unpack("<IQ", raw[at:at + 12])
    header = json.loads(raw[at + 12:at + 12 + hlen])
    blobs, pos = [], at + 12 + hlen
    for entry in header["buffers"]:
        size = int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize
        blobs.append(raw[pos:pos + size])
        pos += size
    assert pos == len(raw)
    header["buffers"].reverse()
    blob = json.dumps(header, sort_keys=True).encode()
    flipped.write_bytes(raw[:at] + struct.pack("<IQ", version, len(blob)) + blob
                        + b"".join(reversed(blobs)))

    np.testing.assert_array_equal(tr.load_network(flipped).forward(x).data,
                                  t.net.forward(x).data)
    resumed = tr.resume_trainer(flipped, x, y)
    for name, p in t.net.store.items():
        np.testing.assert_array_equal(resumed.net.store[name].data, p.data, err_msg=name)
        np.testing.assert_array_equal(resumed.optimizer.velocities[name],
                                      t.optimizer.velocities[name], err_msg=name)


def test_resume_restores_history(tmp_path):
    x, y = tiny_task(seed=3, n=4)
    t = tr.Trainer(tiny_net(), x, y, tr.TrainConfig(epochs=2, batch_size=2),
                   val=(x[:1], y[:1]))
    t.fit()
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, t.net, t)
    assert len(t.history) == 2 and "val_dice" in t.history[0]
    assert tr.resume_trainer(path, x, y).history == t.history
    # checkpoints written before the history was stored resume with none
    old = tmp_path / "old.bin"
    _rewrite_header(path, old, lambda h: h.pop("history"))
    assert tr.resume_trainer(old, x, y).history == []


def test_checkpoint_pool_kind_max_loads_and_avg_is_rejected(tmp_path):
    net = tiny_net()
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, net)
    probe = tiny_task()[0][:1]
    kept, avg = tmp_path / "max.bin", tmp_path / "avg.bin"
    _rewrite_header(path, kept, lambda h: h["net_config"].update(pool_kind="max"))
    _rewrite_header(path, avg, lambda h: h["net_config"].update(pool_kind="avg"))
    np.testing.assert_array_equal(tr.load_network(kept).forward(probe).data,
                                  net.forward(probe).data)
    with pytest.raises(DataError, match="unsupported pool_kind 'avg'"):
        tr.load_network(avg)


def test_load_network_draws_no_parameter(tmp_path, monkeypatch):
    net = tiny_net()
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, net)

    def no_draw(*args, **kwargs):
        raise AssertionError("a parameter was drawn")

    monkeypatch.setattr(arch, "he_init", no_draw)
    probe = tiny_task()[0][:1]
    np.testing.assert_array_equal(tr.load_network(path).forward(probe).data,
                                  net.forward(probe).data)


def test_checkpoint_detects_corruption(tmp_path):
    net = tiny_net()
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, net)
    raw = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(DataError):
        tr.load_checkpoint(bad)

    short = tmp_path / "short.bin"
    short.write_bytes(raw[:-32])
    with pytest.raises(DataError):
        tr.load_checkpoint(short)


def test_network_only_checkpoint_cannot_resume(tmp_path):
    net = tiny_net()
    path = tmp_path / "net.bin"
    tr.save_checkpoint(path, net)
    x, y = tiny_task()
    with pytest.raises(DataError):
        tr.resume_trainer(path, x, y)


def test_training_on_the_augmented_view_matches_the_materialised_stack(
        tmp_path, monkeypatch):
    x, y = tiny_task(seed=4, n=2)
    img, lab = expand_slices(x, y, "light", seed=9)
    cfg = tr.TrainConfig(epochs=2, batch_size=4, seed=6, val_every=0)
    on_view = tr.Trainer(tiny_net(seed=2), img, lab, cfg)
    on_stack = tr.Trainer(tiny_net(seed=2), np.asarray(img), np.asarray(lab), cfg)
    assert on_view.images is img and on_view.labels is lab
    calls = []
    apply_op = augment.apply_op
    monkeypatch.setattr(augment, "apply_op", lambda *a: calls.append(1) or apply_op(*a))
    on_view.fit()
    assert len(calls) == 2 * 6      # each slice built once per epoch
    on_stack.fit()
    assert on_view.step_count == on_stack.step_count == 4
    for name, p in on_view.net.store.items():
        np.testing.assert_array_equal(p.data, on_stack.net.store.get(name).data)
        np.testing.assert_array_equal(on_view.optimizer.velocities[name],
                                      on_stack.optimizer.velocities[name])
    a, b = tmp_path / "view.bin", tmp_path / "stack.bin"
    tr.save_checkpoint(a, on_view.net, on_view)
    tr.save_checkpoint(b, on_stack.net, on_stack)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_checksum_names_the_flipped_buffer(tmp_path):
    net = tiny_net()
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, net)
    header, arrays = tr.load_checkpoint(path)
    entries = header["buffers"]
    assert all(isinstance(e["crc32"], int) for e in entries)
    # flip one bit in the middle of the third buffer
    raw = bytearray(path.read_bytes())
    start = len(raw) - sum(arrays[(e["kind"], e["name"])].nbytes for e in entries)
    start += sum(arrays[(e["kind"], e["name"])].nbytes for e in entries[:2])
    target = entries[2]
    raw[start + arrays[(target["kind"], target["name"])].nbytes // 2] ^= 0x10
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=repr(target["name"])):
        tr.load_checkpoint(bad)
    # checkpoints written before the checksums load unchecked, as before
    old = tmp_path / "old.bin"
    _rewrite_header(path, old, lambda h: [e.pop("crc32") for e in h["buffers"]])
    probe = tiny_task()[0][:1]
    np.testing.assert_array_equal(tr.load_network(old).forward(probe).data,
                                  net.forward(probe).data)


def test_checkpoint_header_reads_without_the_buffers(tmp_path):
    x, y = tiny_task()
    t = tr.Trainer(tiny_net(), x, y, tr.TrainConfig(epochs=1, batch_size=2))
    t.slice_settings = {"plane": "coronal"}
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, t.net, t)
    short = tmp_path / "short.bin"
    short.write_bytes(path.read_bytes()[:-100])
    header = tr.load_checkpoint_header(short)
    assert header == tr.load_checkpoint(path)[0]
    assert header["slice_settings"] == {"plane": "coronal"}
    assert tr.resume_trainer(path, x, y).slice_settings == {"plane": "coronal"}
    with pytest.raises(DataError):
        tr.load_checkpoint(short)
    stub = tmp_path / "stub.bin"
    stub.write_bytes(path.read_bytes()[:12])
    with pytest.raises(DataError):
        tr.load_checkpoint_header(stub)


# ---------------------------------------------------------------------------
# memory


def _traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates on top of what is live before it."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _v1_batch(n):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n, 48, 48, 3)).astype(np.float32)
    return x, rng.integers(0, 4, size=(n, 48, 48))


def test_v1_step_holds_each_activation_once():
    # the bound fails if every node keeps a .grad, or relu, conv2d and
    # maxpool2x2 keep masks and padded copies of their inputs: that step
    # peaks near 67 MB
    net = Network(NetConfig(variant="v1"), seed=0)
    opt = tr.Optimizer(net.store, lr0=0, momentum=0, weight_decay=0)
    x, y = _v1_batch(4)

    def step():
        loss = ops.softmax_cross_entropy(net.forward(x), y, "mean")
        opt.zero_grad()
        backward(loss)

    assert _traced_peak(step) < 48e6


def test_v1_step_frees_what_no_backward_rule_reads():
    # a conv output that only feeds relu, a residual add before its relu
    # and the head's output before upscale are freed in forward; if the
    # graph's edges held them, the step would peak near 38 MB
    net = Network(NetConfig(variant="v1"), seed=0)
    opt = tr.Optimizer(net.store, lr0=0, momentum=0, weight_decay=0)
    x, y = _v1_batch(4)

    def step():
        loss = ops.softmax_cross_entropy(net.forward(x), y, "mean")
        opt.zero_grad()
        backward(loss)

    assert _traced_peak(step) < 30e6


def test_epoch_peak_is_one_step():
    # a step's graph is released before the next step builds its own
    x, y = _v1_batch(16)
    t = tr.Trainer(Network(NetConfig(variant="v1"), seed=0), x, y,
                   tr.TrainConfig(epochs=1, batch_size=4, val_every=0))

    def step():
        loss = ops.softmax_cross_entropy(t.net.forward(x[:4]), y[:4],
                                         t.config.loss_reduction)
        t.optimizer.zero_grad()
        backward(loss)
        t.optimizer.step()

    one_step = _traced_peak(step)
    assert _traced_peak(t.train_one_epoch) <= 1.1 * one_step
    assert t.step_count == 4
