"""Reverse-mode automatic differentiation.

A ``Node`` is a :class:`~mixnet.tensor.Tensor` with graph links: it
holds the array an op produced as its own ``data``, the nodes that
array was computed from, and a rule that maps the output gradient to
the parent gradients.  Graphs are acyclic by construction; ``backward``
visits each node exactly once in reverse topological order.

A backward rule computes a parent's gradient only if
``parent.requires_grad``; for any other parent it returns ``None``
rather than an array ``backward`` would drop.  The network's input
slices are such parents: they are data leaves, so the first conv of
each stream builds no input gradient.

The finite-difference checker in this module, ``grad_check``, is the one
independent oracle used to validate every backward rule and the
network's parameter gradients.  It evaluates the graph in float64
(callers pass float64 inputs) so the central-difference error is far
below the tolerance being enforced.

Inside ``with no_grad():`` ops compute the same values but their nodes
keep no parents and no backward rule, so inference holds no graph and
each intermediate array is freed once the next op has consumed it.

A training step holds each activation once:

* ``backward`` stores ``.grad`` on leaves only (nodes with no backward
  rule: parameters and inputs).  An intermediate node's gradient lives
  in backward's local table until its rule has consumed it, then is
  dropped, so an intermediate ``.grad`` stays ``None``.
* A backward rule's closure keeps references to arrays the graph
  already holds (an op's input or its own output), never copies of
  them.  What a rule needs from a transformed input, such as a padded
  copy, it rebuilds when it runs and frees when it returns.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ParameterError, ShapeError
from .tensor import Tensor

_GRAD_ENABLED = contextvars.ContextVar("mixnet_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Build no backward graph inside the block (for inference)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Node(Tensor):
    """One entry of the computation graph: a tensor plus graph links.

    ``_backward`` takes the gradient of the final scalar with respect to
    this node's data and returns one gradient array per parent (``None``
    for parents that do not require gradients).
    """

    __slots__ = ("parents", "requires_grad", "grad", "_backward", "name")

    def __init__(self, value, parents: tuple = (), backward=None,
                 requires_grad: Optional[bool] = None, name: str = ""):
        super().__init__(value)
        if not _GRAD_ENABLED.get():
            parents, backward = (), None
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p in parents)
        self.parents = tuple(parents)
        self.requires_grad = requires_grad
        self.grad = None
        self._backward = backward
        self.name = name

    @classmethod
    def leaf(cls, value, requires_grad: bool = False, name: str = "") -> "Node":
        return cls(value, (), None, requires_grad, name)

    def __repr__(self):
        kind = "leaf" if not self.parents else f"op[{len(self.parents)} parents]"
        return f"Node({kind}, shape={self.shape}, name={self.name!r})"


def topo_order(root: Node) -> list[Node]:
    """Ancestors of ``root`` in topological order (parents before children).

    Iterative so that deep unit chains cannot hit the recursion limit.
    """
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Node) -> None:
    """Accumulate gradients of a scalar ``root`` into every leaf ancestor
    that requires them.  Existing ``.grad`` buffers keep accumulating;
    call ``zero_grad`` on the model (or reset ``.grad`` yourself) between
    steps.  Intermediate nodes get no ``.grad``.
    """
    if root.size != 1:
        raise ShapeError(f"backward needs a scalar root, got shape {root.shape}")
    order = topo_order(root)
    # a node's gradient waits in this table until its rule consumes it;
    # only a leaf's is kept, as its .grad
    local: dict[int, np.ndarray] = {id(root): np.ones(root.shape, dtype=root.dtype)}
    for node in reversed(order):
        g = local.pop(id(node), None)
        if g is None or not node.requires_grad:
            continue
        if node._backward is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        grads = node._backward(g)
        if len(grads) != len(node.parents):
            raise ShapeError(f"backward rule of {node.name!r} returned "
                             f"{len(grads)} gradients for {len(node.parents)} parents")
        for parent, pg in zip(node.parents, grads):
            if pg is None or not parent.requires_grad:
                continue
            if pg.shape != parent.shape:
                raise ShapeError(f"gradient shape {pg.shape} does not match "
                                 f"parent shape {parent.shape} ({node.name!r})")
            key = id(parent)
            local[key] = pg if key not in local else local[key] + pg


@dataclass
class GradCheckReport:
    """Outcome of one finite-difference sweep."""
    max_rel_error: float
    tolerance: float
    coords_checked: int
    worst: tuple = ()          # (input index, coordinate, analytic, numeric)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def _rel_error(a: float, n: float) -> float:
    # Floor the denominator so near-zero gradients are judged on an
    # absolute scale instead of exploding the ratio.
    return abs(a - n) / max(abs(a), abs(n), 1e-2)


def grad_check(build: Callable[[Sequence[Node]], Node],
               inputs: Sequence[np.ndarray],
               steps: Sequence[float] = (1e-3,),
               tolerance: float = 1e-4,
               max_coords_per_input: Optional[int] = None,
               rng: Optional[np.random.Generator] = None) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``build`` must construct a scalar-valued graph from a list of leaf
    nodes.  ``inputs`` are evaluated as float64 regardless of their dtype.
    By default every coordinate of every input is checked; large instances
    can cap the per-input coordinate count, sampled with ``rng``.

    Each coordinate is measured at ``steps[0]``.  Only if its error
    exceeds ``tolerance`` is it measured again at each later step, and it
    keeps its smallest error.  A relu kink within one step of the point
    bends a central difference, and that error shrinks with the step; a
    wrong backward rule's error does not.
    """
    arrays = [np.array(x, dtype=np.float64) for x in inputs]

    leaves = [Node.leaf(a, requires_grad=True) for a in arrays]
    out = build(leaves)
    if out.size != 1:
        raise ParameterError("grad_check requires a scalar-valued graph")
    backward(out)
    analytic = [np.zeros_like(a) if leaf.grad is None else np.array(leaf.grad)
                for a, leaf in zip(arrays, leaves)]

    def evaluate() -> float:
        nodes = [Node.leaf(a) for a in arrays]
        return float(build(nodes).data)

    def measure(flat, c, a, step) -> tuple[float, float]:  # (rel error, numeric)
        orig = flat[c]
        flat[c] = orig + step
        f_plus = evaluate()
        flat[c] = orig - step
        f_minus = evaluate()
        flat[c] = orig
        numeric = (f_plus - f_minus) / (2.0 * step)
        return _rel_error(a, numeric), numeric

    report = GradCheckReport(0.0, tolerance, 0)
    for idx, arr in enumerate(arrays):
        flat = arr.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_input is not None and flat.size > max_coords_per_input:
            gen = rng if rng is not None else np.random.default_rng(0)
            coords = gen.choice(flat.size, size=max_coords_per_input, replace=False)
        for c in coords:
            a = float(analytic[idx].reshape(-1)[c])
            err, numeric = measure(flat, c, a, steps[0])
            if err > tolerance:
                err, numeric = min([(err, numeric)]
                                   + [measure(flat, c, a, s) for s in steps[1:]])
            report.coords_checked += 1
            if err > report.max_rel_error:
                report.max_rel_error = err
                report.worst = (idx, int(c), a, numeric)
    return report
