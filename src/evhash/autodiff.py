"""Minimal reverse-mode differentiation on numpy arrays.

This is not a general autograd: it supports exactly the operations the
recurrent autoencoder and its losses need. Graphs are built eagerly by
the ops below; ``backward`` walks the tape iteratively (no recursion) and
accumulates gradients into leaves.

Ops are small on purpose. The BN-LSTM layers, which dominate training,
are not built from them: ``model`` runs each layer as one node with a
hand-written backward pass over a packed batch, so a training step's
tape holds a few nodes per layer plus the per-item loss terms.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A node of the tape: an array value plus backward bookkeeping."""

    __slots__ = ("value", "grad", "_parents", "_bwd")

    def __init__(self, value, parents=(), bwd=None):
        self.value = value
        self.grad = None
        self._parents = parents
        self._bwd = bwd

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's grad."""
        if self.value.ndim != 0:
            raise ValueError("backward() expects a scalar loss")
        topo = _toposort(self)
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._bwd is None:
                continue  # leaf or source tensor: keep any accumulated grad
            if node.grad is not None:
                node._bwd(node.grad)
                node.grad = None  # free intermediate grads as we go


class Leaf(Tensor):
    """A trainable tensor. Its grad persists across backward passes."""

    __slots__ = ()

    def __init__(self, value):
        super().__init__(np.asarray(value))
        self.grad = np.zeros_like(self.value)


def _toposort(root):
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return topo


def _buf(t):
    if t.grad is None:
        t.grad = np.zeros_like(t.value)
    return t.grad


def val(x):
    """Underlying ndarray of ``x`` whether or not it is on the tape."""
    return x.value if isinstance(x, Tensor) else x


# -- arithmetic ---------------------------------------------------------
#
# Every op accepts Tensor or ndarray operands. With no Tensor among them
# it reduces to plain numpy, which is the inference fast path.


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return a + b
    av, bv = val(a), val(b)
    out_v = av + bv

    def bwd(g):
        if ta:
            _buf(a)[...] += _unbroadcast(g, av.shape)
        if tb:
            _buf(b)[...] += _unbroadcast(g, bv.shape)

    return Tensor(out_v, tuple(x for x in (a, b) if isinstance(x, Tensor)), bwd)


def addn(tensors):
    """Sum of many same-shape terms as a single node."""
    live = [t for t in tensors if isinstance(t, Tensor)]
    total = sum(val(t) for t in tensors)
    if not live:
        return total

    def bwd(g):
        for t in live:
            _buf(t)[...] += g

    return Tensor(np.asarray(total), tuple(live), bwd)


def sub(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return a - b
    av, bv = val(a), val(b)
    out_v = av - bv

    def bwd(g):
        if ta:
            _buf(a)[...] += _unbroadcast(g, av.shape)
        if tb:
            _buf(b)[...] -= _unbroadcast(g, bv.shape)

    return Tensor(out_v, tuple(x for x in (a, b) if isinstance(x, Tensor)), bwd)


def mul(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return a * b
    av, bv = val(a), val(b)
    out_v = av * bv

    def bwd(g):
        if ta:
            _buf(a)[...] += _unbroadcast(g * bv, av.shape)
        if tb:
            _buf(b)[...] += _unbroadcast(g * av, bv.shape)

    return Tensor(out_v, tuple(x for x in (a, b) if isinstance(x, Tensor)), bwd)


def scale(a, c):
    """a * c for a python/numpy constant c."""
    if not isinstance(a, Tensor):
        return a * c

    def bwd(g):
        _buf(a)[...] += g * c

    return Tensor(a.value * c, (a,), bwd)


def square(a):
    if not isinstance(a, Tensor):
        return a * a
    av = a.value

    def bwd(g):
        _buf(a)[...] += 2.0 * av * g

    return Tensor(av * av, (a,), bwd)


# -- nonlinearities -----------------------------------------------------


def arctanh_clamped(a, margin=1e-6):
    """arctanh with inputs clipped to [-1+margin, 1-margin].

    Clipping keeps the output finite; it never flips a sign. Clamped
    entries get zero gradient (the local function is constant there).
    """
    av = val(a)
    lo, hi = -1.0 + margin, 1.0 - margin
    clipped = np.clip(av, lo, hi)
    out_v = np.arctanh(clipped)
    if not isinstance(a, Tensor):
        return out_v
    inside = (av > lo) & (av < hi)
    deriv = np.where(inside, 1.0 / (1.0 - clipped * clipped), 0.0)

    def bwd(g):
        _buf(a)[...] += g * deriv

    return Tensor(out_v, (a,), bwd)


# -- reductions ---------------------------------------------------------


def sum_all(a):
    if not isinstance(a, Tensor):
        return np.asarray(a).sum()
    av = a.value

    def bwd(g):
        _buf(a)[...] += g

    return Tensor(np.asarray(av.sum()), (a,), bwd)


def wsum(a, w):
    """Scalar sum(a * w) for a constant weight array w (broadcastable)."""
    av = val(a)
    out_v = np.asarray((av * w).sum())
    if not isinstance(a, Tensor):
        return out_v

    def bwd(g):
        _buf(a)[...] += g * np.broadcast_to(w, av.shape)

    return Tensor(out_v, (a,), bwd)


# -- row plumbing (ragged batches) --------------------------------------


def gather_rows(a, idx):
    """a[idx] for an integer array of row indices (repeats allowed)."""
    av = val(a)
    out_v = av[idx]
    if not isinstance(a, Tensor):
        return out_v

    def bwd(g):
        np.add.at(_buf(a), idx, g)

    return Tensor(out_v, (a,), bwd)


def slice_rows(a, start, stop):
    av = val(a)
    out_v = av[start:stop]
    if not isinstance(a, Tensor):
        return out_v

    def bwd(g):
        _buf(a)[start:stop] += g

    return Tensor(out_v, (a,), bwd)


def slice_cols(a, start, stop):
    av = val(a)
    out_v = av[:, start:stop]
    if not isinstance(a, Tensor):
        return out_v

    def bwd(g):
        _buf(a)[:, start:stop] += g

    return Tensor(out_v, (a,), bwd)
