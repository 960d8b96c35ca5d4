"""Minimal reverse-mode differentiation on numpy arrays.

This is not a general autograd. A node is a value plus a hand-written
backward function; ``backward`` walks the tape iteratively (no
recursion) and accumulates gradients into leaves. This module holds the
tape itself and the few generic ops the model needs between its layers.
The BN-LSTM layers (``model``) and the three loss terms (``losses``) are
each one node over a packed batch, so a training step's tape holds a few
nodes per layer plus one per loss term, whatever the batch size.
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


# -- ops -----------------------------------------------------------------
#
# Every op accepts a Tensor or an ndarray. Given no Tensor it reduces to
# plain numpy, which is the inference fast path.


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


ARCTANH_MARGIN = 1e-6


def arctanh_clamped(a):
    """arctanh with inputs clipped to [-1+margin, 1-margin], the margin
    being ARCTANH_MARGIN.

    Clipping keeps the output finite; it never flips a sign. Clamped
    entries get zero gradient (the local function is constant there).
    """
    av = val(a)
    lo, hi = -1.0 + ARCTANH_MARGIN, 1.0 - ARCTANH_MARGIN
    clipped = np.clip(av, lo, hi)
    out_v = np.arctanh(clipped)
    if not isinstance(a, Tensor):
        return out_v
    inside = (av > lo) & (av < hi)
    deriv = np.where(inside, 1.0 / (1.0 - clipped * clipped), 0.0)

    def bwd(g):
        _buf(a)[...] += g * deriv

    return Tensor(out_v, (a,), bwd)


def gather_rows(a, idx):
    """a[idx] for an integer array of row indices (repeats allowed)."""
    av = val(a)
    out_v = av[idx]
    if not isinstance(a, Tensor):
        return out_v

    def bwd(g):
        np.add.at(_buf(a), idx, g)

    return Tensor(out_v, (a,), bwd)
