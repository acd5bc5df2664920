import re
from dataclasses import asdict, fields

import numpy as np
import pytest

from mixnet import arch, ops, verify
from mixnet.arch import NetConfig, Network, embed_v3_into_v1
from mixnet.autodiff import backward, no_grad, topo_order
from mixnet.errors import BuildError, ConfigError, DataError, ShapeError
from mixnet.trainer import Optimizer


def small(variant, **kw):
    defaults = dict(variant=variant, classes=4, filters=8)
    defaults.update(kw)
    return Network(NetConfig(**defaults), seed=5)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ConfigError):
        NetConfig(variant="v4").validate()
    with pytest.raises(ConfigError):
        NetConfig(filters=7).validate()          # must be even
    with pytest.raises(ConfigError):
        NetConfig(classes=1).validate()
    NetConfig(classes=256).validate()       # label volumes store one byte a voxel
    with pytest.raises(ConfigError, match=r"^classes must be an integer in \[2, 256\], got 257$"):
        NetConfig(classes=257).validate()
    NetConfig().validate()


def test_config_round_trip_and_unknown_keys():
    cfg = NetConfig(variant="v3", filters=10)
    again = NetConfig.from_dict(asdict(cfg))
    assert again == cfg
    with pytest.raises(ConfigError):
        NetConfig.from_dict({"variant": "v1", "depth": 9})


# one wrongly typed value per NetConfig field, and the retired init_pool
# at 1, which equals True but is no bool
WRONG_TYPES = {"variant": 1, "modalities": "3", "classes": 2.0, "filters": "x",
               "init_pool": 1}


@pytest.mark.parametrize("key", sorted(WRONG_TYPES))
def test_config_from_dict_rejects_wrong_types(key):
    d = {**asdict(NetConfig()), key: WRONG_TYPES[key]}
    with pytest.raises(ConfigError, match=f"wrongly typed {key}="):
        NetConfig.from_dict(d)


# fields older checkpoint headers hold: (the network's one value, another)
RETIRED = {"pool_kind": ("max", "avg"), "dilations": ([2, 1, 4, 1, 8], [2, 0]),
           "pyramid_bins": ([2, 4, 6, 12], [2, 4, 6, 8]), "init_pool": (True, False)}


@pytest.mark.parametrize("key", sorted(RETIRED))
def test_config_from_dict_drops_a_retired_field_at_its_one_value(key):
    assert [f.name for f in fields(NetConfig)] == \
        ["variant", "modalities", "classes", "filters"]
    paper, other = RETIRED[key]
    d = asdict(NetConfig(variant="v3", filters=6))
    assert NetConfig.from_dict({**d, key: paper}) == NetConfig(variant="v3", filters=6)
    with pytest.raises(DataError, match=f"^ck: unsupported {key} "):
        NetConfig.from_dict({**d, key: other}, "ck", DataError)


# ---------------------------------------------------------------------------
# structure conformance at the reference width (filters=24, 3 modalities)


@pytest.mark.parametrize("variant", arch.VARIANTS)
def test_reference_structure_and_dilations(monkeypatch, variant):
    # the spy sits on the op, below the Network._conv that verify's check
    # listens to, so it also sees a conv that bypasses _conv; the parameter
    # shapes are verify's structure/<variant>/parameters check
    ran = {}
    conv2d = ops.conv2d

    def spy(x, w, b=None, dilation=1, name="conv"):
        ran[name] = dilation
        return conv2d(x, w, b, dilation=dilation, name=name)

    monkeypatch.setattr(ops, "conv2d", spy)
    net = Network(NetConfig(variant=variant), seed=0)
    ran.clear()
    net.forward(np.zeros((1, 26, 30, 3), np.float32))
    # every kernel but the output unit's (ops.pyramid_head) is a trunk conv
    assert set(ran) == {k[:-2] for k in net.store if k.endswith(".w")} - {"out.final"}
    for name, dilation in ran.items():
        level = re.fullmatch(r"level(\d)(\.s\d)?\.dilated", name)
        assert dilation == ((2, 1, 4, 1, 8)[int(level[1]) - 1] if level else 1), name


def test_parameter_counts_match_shape_arithmetic():
    for variant in ("v1", "v2", "v3"):
        net = Network(NetConfig(variant=variant), seed=0)
        want = sum(int(np.prod(n.shape)) for _, n in net.store.items())
        assert net.param_count == want


# ---------------------------------------------------------------------------
# behaviour


def test_forward_shapes_and_odd_sizes():
    x = np.random.default_rng(0).normal(size=(2, 25, 27, 3)).astype(np.float32)
    for variant in ("v1", "v2", "v3"):
        net = small(variant)
        out = net.forward(x)
        # ceil-mode pooling plus upscale restores the exact odd input size
        assert out.shape == (2, 25, 27, 4)


def test_forward_rejects_wrong_modalities():
    net = small("v2")
    with pytest.raises(ShapeError):
        net.forward(np.zeros((1, 24, 24, 2), np.float32))


def test_too_small_slice_is_a_slice_size_error():
    assert arch.MIN_SIDE == 23       # 23 pools (ceil mode) to 12, 22 to 11
    for variant in arch.VARIANTS:
        net = small(variant)
        for h, w in ((22, 30), (30, 22), (22, 22)):
            with pytest.raises(ShapeError, match=f"^a {h}x{w} slice .* >= 23$"):
                net.forward(np.zeros((1, h, w, 3), np.float32))
        assert net.forward(np.zeros((1, 23, 23, 3), np.float32)).shape == (1, 23, 23, 4)


def test_seed_determinism():
    x = np.random.default_rng(1).normal(size=(1, 24, 24, 3)).astype(np.float32)
    a = small("v2").forward(x).data
    b = small("v2").forward(x).data
    np.testing.assert_array_equal(a, b)
    c = Network(NetConfig(variant="v2", classes=4, filters=8), seed=6).forward(x).data
    assert not np.array_equal(a, c)


def test_forward_is_repeatable_and_reuses_parameters():
    net = small("v3")
    x = np.random.default_rng(2).normal(size=(1, 24, 24, 3)).astype(np.float32)
    n_params = len(net.store)
    a = net.forward(x).data
    b = net.forward(x).data
    np.testing.assert_array_equal(a, b)
    assert len(net.store) == n_params


def test_every_parameter_receives_gradient():
    x = np.random.default_rng(3).normal(size=(1, 24, 24, 3)).astype(np.float32)
    labels = np.random.default_rng(4).integers(0, 4, size=(1, 24, 24))
    for variant in ("v1", "v2", "v3"):
        net = small(variant)
        loss = ops.softmax_cross_entropy(net.forward(x), labels, "mean")
        backward(loss)
        dead = [name for name, p in net.store.items()
                if p.grad is None or not np.any(p.grad)]
        assert dead == [], f"{variant}: no gradient reached {dead}"
        Optimizer(net.store, lr0=0, momentum=0, weight_decay=0).zero_grad()
        assert all(p.grad is None for _, p in net.store.items())


def test_graph_nodes_carry_unit_names():
    # default op names would hide a node from per-unit profiles
    defaults = {"relu", "add", "conv", "concat", "resize", "regionpool"}
    x = np.random.default_rng(3).normal(size=(1, 24, 24, 3)).astype(np.float32)
    labels = np.random.default_rng(4).integers(0, 4, size=(1, 24, 24))
    for variant in ("v1", "v2", "v3"):
        loss = ops.softmax_cross_entropy(small(variant).forward(x), labels, "mean")
        bare = sorted({n.name for n in topo_order(loss)} & defaults)
        assert bare == [], f"{variant}: nodes named {bare}"


class ReluFirst(Network):
    """A network whose init unit runs relu before the pool."""

    def _init_unit(self, name, x, c_out):
        y = ops.relu(self._conv(name + ".conv", x, 5, c_out), name=name + ".relu")
        return ops.maxpool2x2(y, name=name + ".pool")


@pytest.mark.parametrize("variant", arch.VARIANTS)
def test_init_unit_pools_before_relu_with_the_same_logits_and_gradients(variant):
    x = np.random.default_rng(3).normal(size=(2, 26, 24, 3)).astype(np.float32)
    labels = np.random.default_rng(4).integers(0, 4, size=(2, 26, 24))
    cfg = NetConfig(variant=variant, classes=4, filters=8)
    runs = []
    for cls in (Network, ReluFirst):
        net = cls(cfg, seed=5)
        logits = net.forward(x)
        loss = ops.softmax_cross_entropy(logits, labels, "mean")
        backward(loss)
        runs.append((net, logits.data, {v.name: v for v in topo_order(loss)}))
    (net, logits, vertices), (ref, ref_logits, _) = runs
    np.testing.assert_array_equal(logits, ref_logits)
    for name, p in net.store.items():
        np.testing.assert_array_equal(p.grad, ref.store[name].grad, err_msg=name)
    # the unit keeps its node names: init.conv -> init.pool -> init.relu,
    # and the output unit upscales the head's logits back to the input size
    unit = "init" if variant == "v1" else "init.s0"
    assert [v.name for v in vertices[unit + ".relu"].parents] == [unit + ".pool"]
    assert [v.name for v in vertices[unit + ".pool"].parents] == [unit + ".conv"]
    assert [v.name for v in vertices["out.upscale"].parents] == ["out.final"]


def test_network_gradient_check_runs_through_the_pool_and_the_upscale(monkeypatch):
    ran = set()
    for op in ("maxpool2x2", "bilinear_resize"):
        def spy(*args, _op=getattr(ops, op), **kw):
            ran.add(kw["name"])
            return _op(*args, **kw)
        monkeypatch.setattr(ops, op, spy)
    [result] = verify.check_network_gradients(seed=0)
    assert result.passed, result.line()
    assert ran == {"init.s0.pool", "init.s1.pool", "out.upscale"}


def test_inference_builds_no_graph():
    x = np.random.default_rng(6).normal(size=(2, 24, 24, 3)).astype(np.float32)
    for variant in ("v1", "v2", "v3"):
        net = small(variant)
        np.testing.assert_array_equal(net.predict_probs(x),
                                      ops.softmax(net.forward(x).data))
        with no_grad():
            logits = net.forward(x)
        assert topo_order(logits) == [logits.vertex]
        assert not logits.requires_grad


def arrays_of(net):
    return {name: p.data.copy() for name, p in net.store.items()}


def test_network_built_from_arrays_computes_the_same_function():
    x = np.random.default_rng(5).normal(size=(1, 24, 24, 3)).astype(np.float32)
    a = small("v2")
    b = Network(NetConfig(variant="v2", classes=4, filters=8), seed=99)
    assert not np.array_equal(a.forward(x).data, b.forward(x).data)
    b = Network(NetConfig(variant="v2", classes=4, filters=8), seed=99,
                arrays=arrays_of(a))
    np.testing.assert_array_equal(a.forward(x).data, b.forward(x).data)


def test_network_from_arrays_validates_names_and_shapes():
    net = small("v3")
    state = arrays_of(net)
    bad = dict(state)
    bad.pop("out.final.b")
    with pytest.raises(BuildError, match="out.final.b"):
        Network(net.config, arrays=bad)
    bad = dict(state)
    bad["out.final.b"] = np.zeros(7, np.float32)
    with pytest.raises(BuildError, match="out.final.b"):
        Network(net.config, arrays=bad)
    bad = dict(state, **{"level9.reduce.w": np.zeros((1, 1, 8, 4), np.float32)})
    with pytest.raises(BuildError, match="level9.reduce.w"):
        Network(net.config, arrays=bad)


def test_network_from_arrays_draws_nothing_and_owns_float32_copies(monkeypatch):
    source = small("v3")
    state = {name: arr.astype(np.float64) for name, arr in arrays_of(source).items()}
    kept = {name: arr.copy() for name, arr in state.items()}

    def no_draw(*args, **kwargs):
        raise AssertionError("a parameter was drawn")

    monkeypatch.setattr(arch, "he_init", no_draw)
    net = Network(source.config, arrays=state)
    for name, p in net.store.items():
        assert p.dtype == np.float32
        np.testing.assert_array_equal(p.data, source.store.get(name).data)

    x = np.random.default_rng(8).normal(size=(1, 24, 24, 3)).astype(np.float32)
    labels = np.random.default_rng(9).integers(0, 4, size=(1, 24, 24))
    backward(ops.softmax_cross_entropy(net.forward(x), labels, "mean"))
    Optimizer(net.store, lr0=0.1, momentum=0.9, weight_decay=0.01).step()
    assert not np.array_equal(net.store.get("out.final.w").data,
                              source.store.get("out.final.w").data)
    for name, arr in state.items():
        np.testing.assert_array_equal(arr, kept[name])


# ---------------------------------------------------------------------------
# v3 -> v1 embedding


@pytest.mark.parametrize("modalities", [1, 2, 3])
def test_embedding_matches_v3_outputs(modalities):
    rng = np.random.default_rng(6)
    v3 = small("v3", modalities=modalities)
    v1 = embed_v3_into_v1(v3)
    for _ in range(3):
        x = rng.normal(size=(1, 24, 24, modalities)).astype(np.float32)
        got = v1.forward(x).data
        want = v3.forward(x).data
        assert np.abs(got - want).max() <= 1e-4


def test_embedding_zeroes_cross_stream_weights():
    v3 = small("v3")
    v1 = embed_v3_into_v1(v3)
    w = v1.store.get("level1.dilated.w").data  # (3, 3, 36, 36) at filters=8: 12x12
    mid = 4
    for s in range(3):
        for t in range(3):
            block = w[:, :, s * mid:(s + 1) * mid, t * mid:(t + 1) * mid]
            if s == t:
                assert np.any(block)
            else:
                assert not np.any(block)


def test_embedding_rejects_mismatched_configs():
    with pytest.raises(BuildError):
        embed_v3_into_v1(small("v2"))
