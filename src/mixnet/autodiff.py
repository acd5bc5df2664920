"""Reverse-mode automatic differentiation.

Every value of the computation graph is a ``Node``.  It holds the array
an op produced as its own ``data``, and a ``Vertex`` that holds the
graph side of that value: the vertices it was computed from,
``requires_grad``, ``grad``, a rule that maps the output gradient to
the parent gradients, and the value's name and shape.  Graphs are
acyclic by construction; ``backward`` visits each vertex exactly once
in reverse topological order.

A node's constructor applies one array rule to what it is given:
float32 and float64 arrays keep their dtype and anything else becomes
float32 (``DEFAULT_DTYPE``); an array is made contiguous and its shape
checked by ``validate_shape``; a 0-d scalar stays 0-d.  Values are
treated as immutable once constructed, except parameter buffers: the
optimizer updates them in place, and ``arch.embed_v3_into_v1`` writes
its blocks into a freshly built network's buffers.

A graph edge carries no array: a vertex's ``parents`` are vertices, and
a backward rule's closure captures the arrays it reads (an op's input
or its own output, never copies of them), and no node.  So an
activation lives as long as forward code or some rule holds it, and is
freed once both are done with it: a conv output that only feeds
``relu``, which takes its mask from its own output, is gone as soon as
``relu`` has run.  What a rule needs from a transformed input, such as
a padded copy, it rebuilds when it runs and frees when it returns.

A backward rule computes a parent's gradient only if that parent
requires one; for any other parent it returns ``None`` rather than an
array ``backward`` would drop.  The network's input slices are such
parents: they are data leaves, so the first conv of each stream builds
no input gradient.

``backward`` stores ``.grad`` on leaves only (vertices with no backward
rule: parameters and inputs).  An intermediate vertex's gradient lives
in backward's local table until its rule has consumed it, then is
dropped, so an intermediate ``.grad`` stays ``None``.

The finite-difference checker in this module, ``grad_check``, is the one
independent oracle used to validate every backward rule and the
network's parameter gradients.  It evaluates the graph in float64
(callers pass float64 inputs) so the central-difference error is far
below the tolerance being enforced.

Inside ``with no_grad():`` ops compute the same values but their nodes
keep no parents and no backward rule, so inference holds no graph and
each intermediate array is freed once the next op has consumed it.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ParameterError, ShapeError

DEFAULT_DTYPE = np.float32

# Generous ceiling; anything past this is a bookkeeping bug, not a tensor.
MAX_ELEMENTS = 1 << 40

_GRAD_ENABLED = contextvars.ContextVar("mixnet_grad_enabled", default=True)


def validate_shape(dims) -> tuple[int, ...]:
    """Check that every extent is a positive integer and the element count
    cannot overflow; return the shape as a plain tuple."""
    shape = tuple(int(d) for d in dims)
    count = 1
    for d in shape:
        if d < 1:
            raise ShapeError(f"shape {shape} has a non-positive extent")
        count *= d
        if count > MAX_ELEMENTS:
            raise ShapeError(f"shape {shape} exceeds {MAX_ELEMENTS} elements")
    return shape


@contextlib.contextmanager
def no_grad():
    """Build no backward graph inside the block (for inference)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Vertex:
    """The graph side of one value, holding no array.

    ``rule`` takes the gradient of the final scalar with respect to the
    value and returns one gradient array per parent (``None`` for parents
    that do not require gradients); a leaf has none.
    """

    __slots__ = ("parents", "requires_grad", "grad", "rule", "name", "shape")

    def __init__(self, parents: tuple, requires_grad: bool, rule, name: str,
                 shape: tuple):
        self.parents = parents
        self.requires_grad = requires_grad
        self.grad = None
        self.rule = rule
        self.name = name
        self.shape = shape

    def __repr__(self):
        kind = "leaf" if not self.parents else f"op[{len(self.parents)} parents]"
        return f"Vertex({kind}, shape={self.shape}, name={self.name!r})"


def _on_vertex(attr: str) -> property:
    return property(lambda node: getattr(node.vertex, attr),
                    lambda node, value: setattr(node.vertex, attr, value))


class Node:
    """One value of the computation graph: a dense float array ``data``
    (the module's array rule applied) plus its ``vertex``.

    ``requires_grad``, ``grad``, ``_backward`` (the vertex's ``rule``)
    and ``name`` read and write the vertex; graph links are the vertex's
    ``parents``.
    """

    __slots__ = ("data", "vertex")

    def __init__(self, value, parents: tuple = (), backward=None,
                 requires_grad: Optional[bool] = None, name: str = ""):
        keep = isinstance(value, np.ndarray) and value.dtype in (np.float32, np.float64)
        arr = np.asarray(value, dtype=value.dtype if keep else DEFAULT_DTYPE)
        if arr.ndim > 0:
            # keep 0-d scalars 0-d; ascontiguousarray would promote them
            arr = np.ascontiguousarray(arr)
            validate_shape(arr.shape)
        self.data = arr
        if not _GRAD_ENABLED.get():
            parents, backward = (), None
        links = tuple(p.vertex for p in parents)
        if requires_grad is None:
            requires_grad = any(v.requires_grad for v in links)
        self.vertex = Vertex(links, requires_grad, backward, name, arr.shape)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    requires_grad = _on_vertex("requires_grad")
    grad = _on_vertex("grad")
    _backward = _on_vertex("rule")
    name = _on_vertex("name")

    @classmethod
    def leaf(cls, value, requires_grad: bool = False, name: str = "") -> "Node":
        return cls(value, (), None, requires_grad, name)

    def __repr__(self):
        return f"Node({self.vertex!r}, dtype={self.dtype.name})"


def topo_order(root: Node) -> list[Vertex]:
    """Vertices ``root`` was computed from, ``root``'s own last, in
    topological order (parents before children).

    Iterative so that deep unit chains cannot hit the recursion limit.
    """
    order: list[Vertex] = []
    seen: set[Vertex] = set()
    stack: list[tuple[Vertex, bool]] = [(root.vertex, False)]
    while stack:
        vertex, expanded = stack.pop()
        if expanded:
            order.append(vertex)
            continue
        if vertex in seen:
            continue
        seen.add(vertex)
        stack.append((vertex, True))
        for p in vertex.parents:
            if p not in seen:
                stack.append((p, False))
    return order


def backward(root: Node) -> None:
    """Accumulate gradients of a scalar ``root`` into every leaf ancestor
    that requires them.  Existing ``.grad`` buffers keep accumulating;
    call the optimizer's ``zero_grad`` (or reset ``.grad`` yourself)
    between steps.  Intermediate vertices get no ``.grad``.
    """
    if root.size != 1:
        raise ShapeError(f"backward needs a scalar root, got shape {root.shape}")
    order = topo_order(root)
    # a vertex's gradient waits in this table until its rule consumes it;
    # only a leaf's is kept, as its .grad
    local: dict[Vertex, np.ndarray] = {root.vertex: np.ones(root.shape, dtype=root.dtype)}
    for vertex in reversed(order):
        g = local.pop(vertex, None)
        if g is None or not vertex.requires_grad:
            continue
        if vertex.rule is None:
            vertex.grad = g if vertex.grad is None else vertex.grad + g
            continue
        grads = vertex.rule(g)
        if len(grads) != len(vertex.parents):
            raise ShapeError(f"backward rule of {vertex.name!r} returned "
                             f"{len(grads)} gradients for {len(vertex.parents)} parents")
        for parent, pg in zip(vertex.parents, grads):
            if pg is None or not parent.requires_grad:
                continue
            if pg.shape != parent.shape:
                raise ShapeError(f"gradient shape {pg.shape} does not match "
                                 f"parent shape {parent.shape} ({vertex.name!r})")
            local[parent] = pg if parent not in local else local[parent] + pg


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
