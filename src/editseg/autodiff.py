"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array plus an optional gradient. Operations build
a computation graph of closures; ``Tensor.backward()`` runs reverse-mode
accumulation in topological order. Everything is 64-bit: gradient checks
against central finite differences need the precision.

Graphs are single-threaded, single-use objects: build, call ``backward()``
once, discard. ``backward()`` unlinks each node from its closure and parents
as it goes, so when it ends the graph is freed by reference counting, with
no wait for the cycle collector. Leaf tensors (parameters) keep accumulating
into ``grad`` until ``zero_grad()``.
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
    """Dense n-dimensional float64 value with optional gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

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
        # Each closure holds its own node, so the graph is a reference cycle.
        # Dropping the closure once it has run breaks the cycle, and dropping
        # the parents too frees each intermediate node (data and grad) as soon
        # as the loop has passed it, unless the caller still holds it.
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward()
                node._backward = None
                node._parents = ()

    # Operator sugar; the free functions below do the work.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray):
    # Accumulation always rebinds (never mutates in place), so holding a view
    # or a shared reference on the first contribution is safe.
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _node(data, parents, backward_factory):
    """Create a graph node.

    ``backward_factory(out)`` returns the closure stored on the node; it is
    only called (and the closure only kept) when gradients are needed.
    """
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward_factory(out)
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def factory(out):
        def backward():
            g = out.grad
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g, a.data.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(g, b.data.shape))

        return backward

    return _node(a.data + b.data, (a, b), factory)


def sub(a, b):
    return add(a, neg(as_tensor(b)))


def neg(a):
    a = as_tensor(a)

    def factory(out):
        def backward():
            _accumulate(a, -out.grad)

        return backward

    return _node(-a.data, (a,), factory)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def factory(out):
        def backward():
            g = out.grad
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

        return backward

    return _node(a.data * b.data, (a, b), factory)


def pow_scalar(a, p: float):
    a = as_tensor(a)

    def factory(out):
        def backward():
            _accumulate(a, out.grad * p * np.power(a.data, p - 1.0))

        return backward

    return _node(np.power(a.data, p), (a,), factory)


def relu(a):
    a = as_tensor(a)

    def factory(out):
        def backward():
            _accumulate(a, out.grad * (a.data > 0.0))

        return backward

    return _node(np.maximum(a.data, 0.0), (a,), factory)


# ---------------------------------------------------------------------------
# linear algebra and reductions


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")

    def factory(out):
        def backward():
            g = out.grad
            if a.requires_grad:
                _accumulate(a, g @ b.data.T)
            if b.requires_grad:
                _accumulate(b, a.data.T @ g)

        return backward

    return _node(a.data @ b.data, (a, b), factory)


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def factory(out):
        def backward():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(g, a.data.shape))

        return backward

    return _node(data, (a,), factory)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape):
    a = as_tensor(a)

    def factory(out):
        def backward():
            _accumulate(a, out.grad.reshape(a.data.shape))

        return backward

    return _node(a.data.reshape(shape), (a,), factory)


def transpose(a, axes=None):
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    inv = np.argsort(axes)

    def factory(out):
        def backward():
            _accumulate(a, out.grad.transpose(inv))

        return backward

    return _node(a.data.transpose(axes), (a,), factory)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def factory(out):
        def backward():
            pieces = np.split(out.grad, splits, axis=axis)
            for t, g in zip(tensors, pieces):
                if t.requires_grad:
                    _accumulate(t, g)

        return backward

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), factory)


def _is_fancy(idx) -> bool:
    parts = idx if isinstance(idx, tuple) else (idx,)
    return any(isinstance(p, (np.ndarray, list)) for p in parts)


def getitem(a, idx):
    """Indexing; supports basic slices and integer-array gathers.

    Gathers with repeated indices scatter-add on the way back.
    """
    a = as_tensor(a)
    fancy = _is_fancy(idx)

    def factory(out):
        def backward():
            g = np.zeros_like(a.data)
            if fancy:
                np.add.at(g, idx, out.grad)
            else:
                g[idx] += out.grad
            _accumulate(a, g)

        return backward

    return _node(a.data[idx], (a,), factory)
