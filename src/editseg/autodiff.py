"""Reverse-mode automatic differentiation over dense float arrays.

A ``Tensor`` wraps a numpy array plus an optional gradient. Each operation
returns a node that keeps its parents and a closure ``backward(grad)``,
which takes the node's gradient and accumulates into the parents;
``Tensor.backward()`` calls the closures in reverse topological order. A
tensor keeps the float dtype it is given, and every op computes in its
operands' dtype, so the gradients come out in the dtype of the values. The
model runs in float32; gradient checks against central finite differences
build float64 tensors, which need the precision, and run through the same
ops.

This module is only the core: ``Tensor``, ``no_grad``, ``_node`` (which
builds a node), ``_keeps_graph`` (whether it keeps a closure, for an op
that can skip work no backward will read) and ``_accumulate`` (which adds a
gradient into a parent).
Every op is a single node with a hand-written backward in ``kernels`` or
``model``.

``_accumulate`` alone decides which tensors keep a gradient: it drops any
handed to a tensor that does not require one, so a backward closure hands
it every input's gradient untested. ``_node`` only decides whether a node
keeps a closure at all (not under ``no_grad`` or on constant inputs).

Graphs are single-threaded, single-use objects: build, call ``backward()``
once, discard. No closure refers to its own node, so a graph holds no
reference cycle: one dropped without ``backward()`` is freed by reference
counting alone. ``backward()`` also unlinks each node from its closure and
parents as it goes, freeing intermediates before it ends. Leaf tensors
(parameters) keep accumulating into ``grad`` until ``zero_grad()``.
"""

from __future__ import annotations

import numpy as np

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction (eval-mode forward)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """Dense n-dimensional float value with optional gradient.

    A float array keeps its dtype; anything else (lists, Python scalars,
    integer or bool arrays) becomes float64.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        # Iterative post-order DFS; recursion would overflow on long graphs.
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        # Dropping each closure and its parents once it has run frees every
        # intermediate node (data and grad) as soon as the loop has passed
        # it, unless the caller still holds it.
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = None
                node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray):
    """Add ``g`` into ``t.grad``, or drop it if ``t`` does not require one.

    Accumulation always rebinds (never mutates in place), so holding a view
    or a shared reference on the first contribution is safe.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _keeps_graph(parents) -> bool:
    """Whether ``_node`` keeps a closure for a node with these parents."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _node(data, parents, backward):
    """Create a graph node.

    ``backward(grad)`` receives the node's gradient and accumulates into the
    parents; it is only kept when gradients are needed (``_keeps_graph``).
    It never refers to the node, so a graph holds no reference cycle.
    """
    out = Tensor(data)
    if _keeps_graph(parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out
