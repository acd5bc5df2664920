import weakref

import numpy as np
import pytest

from mixnet import arch, ops
from mixnet.autodiff import Node, Vertex, backward, grad_check, no_grad, topo_order
from mixnet.errors import ShapeError
from mixnet.tensor import Tensor

from oracles import num_grad


def test_leaf_defaults():
    n = Node.leaf(np.ones((2, 2)))
    assert not n.requires_grad
    assert n.grad is None
    assert n.vertex.parents == ()


def test_a_node_is_a_tensor_holding_the_op_result():
    a = Node.leaf(np.array([[-1.0, 2.0], [0.5, -3.0]]), requires_grad=True)
    b = Node.leaf(np.full((2, 2), 0.25))
    s = ops.add(a, b)
    assert issubclass(Node, Tensor) and isinstance(s, Tensor)
    assert not hasattr(s, "value") and "value" not in Node.__slots__
    np.testing.assert_array_equal(s.data, a.data + b.data)
    assert s.dtype == np.float64 and s.shape == (2, 2)
    # graph links run between vertices, which hold no array
    assert s.vertex.parents == (a.vertex, b.vertex)
    assert not isinstance(s.vertex, Tensor) and not hasattr(s.vertex, "data")
    # the validation and dtype rule of Tensor apply to every node
    assert Node.leaf([1, 2]).dtype == np.float32
    with pytest.raises(ShapeError):
        Node.leaf(np.ones((2, 0)))


def test_topo_order_parents_first():
    a = Node.leaf(np.ones(3), requires_grad=True)
    b = ops.relu(a)
    c = ops.add(b, b)
    d = ops.reduce_sum(c)
    order = topo_order(d)
    pos = {id(v): i for i, v in enumerate(order)}
    assert pos[id(a.vertex)] < pos[id(b.vertex)] < pos[id(c.vertex)] < pos[id(d.vertex)]
    # every node appears exactly once even with the diamond on b
    assert len(order) == 4


def test_backward_rejects_non_scalar_root():
    a = Node.leaf(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(ops.relu(a))


def test_simple_chain_gradient():
    x = Node.leaf(np.array([-1.0, 2.0, 3.0]), requires_grad=True)
    y = ops.reduce_sum(ops.mul(ops.relu(x), Node.leaf(np.full(3, 2.0))))
    backward(y)
    np.testing.assert_allclose(x.grad, [0.0, 2.0, 2.0])


def test_diamond_accumulates_both_paths():
    # y = sum(x * x) with the same node on both sides: dy/dx = 2x
    x = Node.leaf(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    y = ops.reduce_sum(ops.mul(x, x))
    backward(y)
    np.testing.assert_allclose(x.grad, [2.0, -4.0, 1.0])


def test_no_grad_paths_stay_untouched():
    x = Node.leaf(np.ones(4), requires_grad=True)
    frozen = Node.leaf(np.full(4, 3.0), requires_grad=False)
    y = ops.reduce_sum(ops.mul(x, frozen))
    backward(y)
    np.testing.assert_allclose(x.grad, [3.0, 3.0, 3.0, 3.0])
    assert frozen.grad is None


def test_no_grad_keeps_values_and_drops_the_graph():
    x = Node.leaf(np.array([-1.0, 2.0, 3.0]), requires_grad=True)
    with no_grad():
        y = ops.reduce_sum(ops.mul(ops.relu(x), x))
        assert Node.leaf(np.ones(2), requires_grad=True).requires_grad
    assert float(y.data) == 13.0
    assert y.vertex.parents == () and y._backward is None and not y.requires_grad
    z = ops.relu(x)   # the graph is back after the block
    assert z.vertex.parents == (x.vertex,) and z.requires_grad


def test_grad_accumulates_across_backward_calls():
    x = Node.leaf(np.ones(2), requires_grad=True)
    y = ops.reduce_sum(ops.relu(x))
    backward(y)
    backward(y)
    np.testing.assert_allclose(x.grad, [2.0, 2.0])


def test_backward_keeps_gradients_on_leaves_only():
    x = Node.leaf(np.array([-1.0, 2.0, 3.0]), requires_grad=True)
    w = Node.leaf(np.full(3, 2.0), requires_grad=True)
    h = ops.relu(x)
    m = ops.mul(h, w)
    y = ops.reduce_sum(ops.add(m, h))
    for calls in (1, 2):
        backward(y)
        np.testing.assert_array_equal(x.grad, calls * np.array([0.0, 3.0, 3.0]))
        np.testing.assert_array_equal(w.grad, calls * np.array([0.0, 2.0, 3.0]))
        assert all(vertex.grad is None for vertex in topo_order(y)
                   if vertex.rule is not None)


def test_an_array_no_rule_reads_is_freed_while_the_graph_lives():
    # relu takes its mask from its own output, so once forward code drops
    # the conv output nothing holds its array
    rng = np.random.default_rng(2)
    x = Node.leaf(rng.normal(size=(2, 6, 6, 3)))
    w = Node.leaf(rng.normal(size=(3, 3, 3, 4)), requires_grad=True)
    b = Node.leaf(rng.normal(size=4), requires_grad=True)

    def step(keep_conv_output):
        w.grad = b.grad = None
        c = ops.conv2d(x, w, b)
        freed = weakref.ref(c.data)
        kept = c if keep_conv_output else None
        r = ops.relu(c)
        del c
        assert (freed() is None) != keep_conv_output
        backward(ops.reduce_sum(ops.mul(r, r)))
        del kept
        return w.grad, b.grad

    for got, want in zip(step(False), step(True)):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# what the per-layer tracer (perfbench/tracer.py) relies on


def _v1_loss(net):
    x = np.random.default_rng(7).normal(size=(1, 24, 24, 3)).astype(np.float32)
    return ops.softmax_cross_entropy(net.forward(x), np.zeros((1, 24, 24), int), "mean")


def test_a_replaced_backward_rule_is_the_one_backward_calls():
    x = Node.leaf(np.array([-1.0, 2.0, 3.0]), requires_grad=True)
    h = ops.relu(x, name="unit.relu")
    inner, names = h._backward, []

    def wrapped(g):
        names.append(h.name)
        return inner(g)

    h._backward = wrapped
    assert h.vertex.rule is wrapped
    backward(ops.reduce_sum(h))
    assert names == ["unit.relu"]
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0])


def test_topo_order_has_one_vertex_per_graph_value():
    order = topo_order(_v1_loss(arch.Network(arch.NetConfig(variant="v1"), seed=0)))
    assert all(isinstance(v, Vertex) for v in order)
    assert len({id(v) for v in order}) == len(order) == 76


def test_tensor_init_runs_once_per_node_and_never_for_a_vertex(monkeypatch):
    net = arch.Network(arch.NetConfig(variant="v1"), seed=0)
    calls = []
    init = Tensor.__init__

    def counting(obj, *args, **kwargs):
        calls.append(type(obj))
        init(obj, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    loss = _v1_loss(net)
    # one per op result and one for the input leaf; the parameters exist
    assert calls == [Node] * 42
    assert len(topo_order(loss)) - len(net.store) == 42
    assert not issubclass(Vertex, Tensor)


def test_tensor_names_the_one_node_class():
    # perfbench/tracer.py counts graph values by patching
    # mixnet.tensor.Tensor.__init__, so that name must be the node class
    # itself, and the node class must build a value in one __init__ call
    assert Tensor is Node
    assert Node.__bases__ == (object,)
    assert Node.__slots__ == ("data", "vertex")


def test_deep_chain_does_not_recurse():
    # 5000 stacked relus would blow the default recursion limit if the
    # traversal were recursive
    x = Node.leaf(np.ones(2), requires_grad=True)
    n = x
    for _ in range(5000):
        n = ops.relu(n)
    backward(ops.reduce_sum(n))
    np.testing.assert_allclose(x.grad, [1.0, 1.0])


def test_grad_check_passes_on_correct_graph():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4))

    def build(leaves):
        return ops.reduce_sum(ops.mul(ops.relu(leaves[0]), leaves[0]))

    report = grad_check(build, [x])
    assert report.passed
    assert report.coords_checked == 12
    assert report.max_rel_error < 1e-6


def test_grad_check_catches_a_wrong_gradient():
    # deliberately wrong backward rule: claims d(2x)/dx = 3
    def broken_scale(x):
        return Node(x.data * 2.0, (x,), lambda g: (g * 3.0,), name="broken")

    def build(leaves):
        return ops.reduce_sum(broken_scale(leaves[0]))

    report = grad_check(build, [np.ones(3)])
    assert not report.passed
    assert report.max_rel_error > 0.1
    # a wrong rule's error does not shrink with the step, so retrying
    # at smaller steps cannot pass it
    report = grad_check(build, [np.ones(3)], steps=(1e-3, 1e-5, 1e-7))
    assert not report.passed
    assert report.max_rel_error > 0.1


def test_grad_check_retries_a_kink_within_one_step():
    # 5e-4 lies within 1e-3 of relu's kink: the central difference there
    # reads 0.75 against the analytic 1, and a smaller step reads 1
    x = np.array([5e-4, -0.3, 0.7])

    def build(leaves):
        return ops.reduce_sum(ops.relu(leaves[0]))

    report = grad_check(build, [x])
    assert not report.passed
    assert report.max_rel_error == pytest.approx(0.25)
    assert report.worst[:2] == (0, 0)
    report = grad_check(build, [x], steps=(1e-3, 1e-5))
    assert report.passed
    assert report.coords_checked == 3
    assert report.max_rel_error < 1e-9


def test_grad_check_agrees_with_independent_numeric_gradient():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(2, 3))

    def build(leaves):
        scaled = ops.mul(leaves[0], Node.leaf(np.full(x0.shape, -1.5)))
        return ops.reduce_sum(ops.relu(scaled))

    report = grad_check(build, [x0])
    assert report.passed

    def f(x):
        return np.maximum(x * -1.5, 0).sum()

    g = num_grad(f, x0)
    leaf = Node.leaf(np.asarray(x0, dtype=np.float64), requires_grad=True)
    backward(build([leaf]))
    np.testing.assert_allclose(leaf.grad, g, atol=1e-8)


def test_grad_check_coordinate_sampling():
    def build(leaves):
        return ops.reduce_sum(ops.mul(leaves[0], leaves[0]))

    report = grad_check(build, [np.ones(100)], max_coords_per_input=10,
                        rng=np.random.default_rng(3))
    assert report.coords_checked == 10
    assert report.passed
