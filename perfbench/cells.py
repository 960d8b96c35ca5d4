"""Per-cell GEMM work of one training step, and its measured floor.

A training step runs every BN-LSTM cell over a ragged, time-major batch:
at 1-based step t the cell sees the B_t items still active. Per step it
multiplies h (B_t x d_h) by W_h and x (B_t x d_x) by W_x; the backward
pass forms dh = g W_h^T and, when the input is on the tape, dx = g W_x^T,
and finally one stacked product per weight for dW (autodiff defers those
to ``Leaf.flush_pending``). The flop counts below are computed from those
shapes, not measured; the floor times the same GEMMs in numpy, which a
training step cannot beat.
"""

from __future__ import annotations

import time

import numpy as np

CELL_NAMES = ("enc1", "enc2", "enc3", "enc4", "dec1", "dec2", "dec3", "dec4")


def layer_lengths(lengths) -> list[np.ndarray]:
    """Per-item sequence lengths at each of the eight cells.

    The encoder strides by 2 (ceil) before its third and fourth cells; the
    decoder upsamples by 2 after its first and second.
    """
    m = np.asarray(lengths, dtype=np.int64)
    len3 = -(-m // 2)
    len4 = -(-len3 // 2)
    lu1 = 2 * len4
    lu2 = 2 * lu1
    return [m, m, len3, len4, len4, lu1, lu2, lu2]


def _active_rows(lens: np.ndarray) -> list[int]:
    return [int(np.sum(lens >= t)) for t in range(1, int(lens.max()) + 1)]


def _cells(model, lengths):
    """(name, d_x, d_h, per-item lengths, input on tape) per cell. Only the
    first encoder cell reads plain arrays; every other input is a tape
    tensor whose gradient is formed."""
    return [(name, cell.d_x, cell.d_h, lens, i > 0)
            for i, (name, cell, lens) in enumerate(
                zip(CELL_NAMES, model.cells, layer_lengths(lengths)))]


def step_flops(model, lengths) -> dict[str, int]:
    """Computed GEMM flops of one forward+backward step, per cell."""
    out = {}
    for name, d_x, d_h, lens, on_tape in _cells(model, lengths):
        rows = int(lens.sum())
        g = 4 * d_h
        fwd = 2 * rows * (d_h + d_x) * g
        bwd_inputs = 2 * rows * g * (d_h + (d_x if on_tape else 0))
        bwd_weights = 2 * rows * (d_h + d_x) * g
        out[name] = fwd + bwd_inputs + bwd_weights
    return out


def gemm_floor(model, lengths, dtype) -> dict[str, float]:
    """Seconds numpy takes for the GEMMs of one step, per cell."""
    rng = np.random.default_rng(0)
    out = {}
    for name, d_x, d_h, lens, on_tape in _cells(model, lengths):
        rows = _active_rows(lens)
        b0, total = rows[0], sum(rows)

        def arr(*shape):
            return rng.standard_normal(shape).astype(dtype)

        W_h, W_x = arr(d_h, 4 * d_h), arr(d_x, 4 * d_h)
        h, x, g = arr(b0, d_h), arr(b0, d_x), arr(b0, 4 * d_h)
        hs, xs, gs = arr(total, d_h), arr(total, d_x), arr(total, 4 * d_h)
        t0 = time.perf_counter()
        for b in rows:
            h[:b] @ W_h
            x[:b] @ W_x
            g[:b] @ W_h.T
            if on_tape:
                g[:b] @ W_x.T
        hs.T @ gs
        xs.T @ gs
        out[name] = time.perf_counter() - t0
    return out
